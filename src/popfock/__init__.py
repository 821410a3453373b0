"""Exact-arithmetic combinatorics of partition overlaid patterns, a lattice
Fock model of the level-one modules of affine sl_{r+1}, and verification of
the stability of the normalized pattern-indexed bases."""

from .rootdata import (AffineWeight, FiniteWeight, Lambda, bilinear,
                       fundamental, pos_root, simple_root, theta,
                       translate_weight, weight_from_seq, zero_weight)
from .partitions import (Partition, colored_count, colored_partitions,
                         enumerate_rect, fits_rectangle)
from .gtpattern import GTPattern, enumerate_patterns
from .pop import POP, area_identity, depth, enumerate_pops, is_stable, iter_pops
from .fock import FockKey, FockVector, act_heisenberg, act_root_vector, vacuum, weight_of
from .translate import Cocycle, translate_Q, translate_amount, translate_amount_inverse
from .clbasis import cl_monomial, cl_vector, rho, sign_eps, verify_stability

__version__ = "0.1.0"
