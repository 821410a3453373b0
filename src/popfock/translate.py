"""Sign table on the root lattice and the translation operators T_x of the
lattice Fock model, for x in the root lattice and for any weight.

Two sign objects live here.  The sign form is the bimultiplicative eps_tilde
on lattice tuples; on the simple roots it is the fixed reference table
(Cocycle.table): eps(a_i, a_i) = -1, eps(a_i, a_j) = (-1)^(a_i|a_j) for i > j,
+1 for i < j.  The translation operators themselves compose with a second,
non-bimultiplicative cocycle comp_eps, which is the one the normalization sign
of the basis vectors must use: the two differ (for example on the pair (a, a)
for a root a), and the stability checks fail under the table.  comp_eps is
determined by the diagonal sign function _d_sign_lat below.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from math import gcd

from .rootdata import fundamental, simple_root


def eps_tilde(x_lat, y_lat):
    """Bimultiplicative form on integer vectors: (-1)^(sum_{i>j} x_i y_j)."""
    total = 0
    acc = y_lat[0]
    for i in range(1, len(x_lat)):
        total += x_lat[i] * acc
        acc += y_lat[i]
    return -1 if total % 2 else 1


def _drop_class(x):
    """Lattice representative of x minus the fundamental weight of its coset."""
    lat = x.lattice_rep()
    cls = sum(lat)
    return tuple(c - 1 if p < cls else c for p, c in enumerate(lat))


@lru_cache(maxsize=None)
def _d_sign_lat(lat):
    """Diagonal correction d on Q, from a lattice tuple with zero sum.

    On multiples of roots, d(k a) = (-1)^floor(k/2); this is pinned by the
    stability of the normalized basis vectors.  Off the root rays the value
    only matters through d(b) d(-b) = (-1)^((b|b)/2), which the chosen
    lexicographic convention satisfies.
    """
    if all(c == 0 for c in lat):
        return 1
    g = gcd(*lat)
    prim = tuple(c // g for c in lat)
    if sorted(prim) == [-1] + [0] * (len(lat) - 2) + [1]:
        k = g if prim.index(1) < prim.index(-1) else -g
        return -1 if (k // 2) % 2 else 1
    first = next(c for c in lat if c != 0)
    if first > 0:
        return 1
    q_half = sum(c * c for c in lat) // 2
    return -1 if q_half % 2 else 1


class Cocycle:
    """Sign table bound to a rank; exposes the table and the composition form."""

    def __init__(self, r):
        self.r = r

    def comp_eps(self, x, y):
        """Composition cocycle of the translation operators: the constant in
        T_x T_y = comp_eps(x, y) T_{x+y}, x's fundamental-weight part dropped."""
        if y.class_index() != 0:
            raise ValueError("second argument must lie in the root lattice")
        xd = _drop_class(x)
        yl = y.lattice_rep()
        xy = tuple(a + b for a, b in zip(xd, yl))
        return (_d_sign_lat(xd) * _d_sign_lat(yl) * _d_sign_lat(xy)
                * eps_tilde(yl, xd))

    def table(self):
        """Matrix of eps_tilde on pairs of simple roots, row-major."""
        lats = [simple_root(self.r, a).lattice_rep()
                for a in range(1, self.r + 1)]
        return [[eps_tilde(x, y) for y in lats] for x in lats]

    def table_dump(self):
        lines = ["rank=%d" % self.r]
        for a, row in enumerate(self.table(), start=1):
            lines.append("eps(a_%d, .) = %s" % (a, " ".join("%+d" % v for v in row)))
        return "\n".join(lines) + "\n"

    def table_hash(self):
        return hashlib.sha256(self.table_dump().encode()).hexdigest()


def translate_Q(beta, v):
    """Translation operator T_beta, beta in Q: a signed lattice shift.

    Key-wise e^g (x) u -> d(beta) eps~(g, beta) e^{g+beta} (x) u.  Satisfies
    T_beta T_{-beta} = id, the conjugation law on root vectors with no extra
    sign, and commutes with the nonzero Heisenberg modes.
    """
    if beta.class_index() != 0:
        raise ValueError("translate_Q requires beta in the root lattice")
    beta_lat = beta.lattice_rep()
    d = _d_sign_lat(beta_lat)

    def sign_fn(gamma_lat):
        return d * eps_tilde(gamma_lat, beta_lat)

    return v.lattice_shift(beta, sign_fn)


def translate_amount(x, v):
    """T_x for any weight x: T_{varpi_c} T_{x - varpi_c} with c the coset of x;
    maps sector 0 to sector c.

    T_{varpi_c} is the sector-changing operator e^g (x) u ->
    eps~(g, varpi_c) e^{g + varpi_c} (x) u, the identity for c = 0.  It takes
    the sector-0 vacuum to the sector-c vacuum, and conjugation by it shifts
    the t-exponent of x_alpha (x) t^s by (varpi_c | alpha) with no extra sign.
    """
    if v.sector != 0:
        raise ValueError("sector mismatch: expected sector 0")
    c = x.class_index()
    varpi = fundamental(x.r, c)
    v = translate_Q(x - varpi, v)
    if c == 0:
        return v
    varpi_lat = varpi.lattice_rep()
    return v.lattice_shift(varpi, lambda g: eps_tilde(g, varpi_lat))


def translate_amount_inverse(x, v):
    """Inverse of translate_amount; maps sector c back to sector 0."""
    c = x.class_index()
    if v.sector != c:
        raise ValueError("sector mismatch: expected sector %d" % c)
    varpi = fundamental(x.r, c)
    if c:
        varpi_lat = varpi.lattice_rep()
        v = v.lattice_shift(-varpi, lambda g: eps_tilde(
            tuple(a - b for a, b in zip(g, varpi_lat)), varpi_lat))
    return translate_Q(varpi - x, v)
