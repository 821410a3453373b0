"""Command-line front end: enumeration, model construction, verification
suites; reports as JSON lines, exit 0 iff every check passes.

Each invocation runs at one rank (--r); the report stream is deterministic
for a fixed configuration.  The verification suites are the one definition of
the acceptance criteria: the acceptance tests run them with their defaults.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial

from . import clbasis, fock, gtpattern, pop
from .clbasis import _report
from .partitions import colored_count, colored_partitions, enumerate_rect
from .pop import POP, enumerate_pops, is_stable, iter_pops, depth_total
from .rootdata import (FiniteWeight, all_roots, bilinear, dominant_seqs,
                       fundamental, simple_root, theta, weight_from_seq,
                       zero_weight)
from .translate import (Cocycle, translate_amount, translate_amount_inverse,
                        translate_Q)


class UsageError(Exception):
    pass


def _int(text, cfg):
    return int(text)


def _ints(text, n):
    seq = tuple(int(x) for x in text.split(","))
    if len(seq) != n:
        raise ValueError("needs %d comma-separated entries" % n)
    return seq


def _lambda(text, cfg):
    seq = _ints(text, cfg.r + 1)
    if any(a < b for a, b in zip(seq, seq[1:])) or seq[-1]:
        raise ValueError("must be weakly decreasing and end in 0")
    return seq


def _gamma(text, cfg):
    terms = (c * simple_root(cfg.r, a)
             for a, c in enumerate(_ints(text, cfg.r), 1))
    return sum(terms, zero_weight(cfg.r))


def _sector(text, cfg):
    if int(text) > cfg.r:
        raise ValueError("must be at most r")
    return int(text)


# Every flag as flag -> (config field, parser, least value, help).  A parser
# takes the text and the config parsed so far: --r comes first.
FLAGS = {
    "--r": ("r", _int, 1, "rank of sl_{r+1}, inferred when omitted"),
    "--lambda": ("lam", _lambda, None, "dominant weight sequence, e.g. 2,1,0"),
    "--kmax": ("kmax", _int, 0, "largest shift in stability checks"),
    "--depth": ("depth", _int, 0, "depth bound (or energy bound for brackets)"),
    "--sector": ("sector", _sector, 0, "restrict to one level-one module"),
    "--gamma": ("gamma", _gamma, None, "root lattice element as comma-"
                                       "separated simple-root coefficients"),
    "--m": ("m", _int, 0, "size for colored partitions"),
    "--pop": ("pop", lambda text, cfg: POP.from_json(json.loads(text)), None,
              "POP as JSON {\"rows\":..., \"overlay\":...}"),
    "--k": ("k", _int, 0, "shift for the vector"),
    "--out": ("out", lambda text, cfg: text, None,
              "write the report to a file"),
}

# The flags each command reads besides --out, each with its default: None
# leaves the flag unset (every sector, the default weights, no depth bound)
# and "required" marks a flag the command needs.  Any other flag is bad input.
COMMANDS = {
    "enumerate": {"patterns": {"--r": 1, "--lambda": "required"},
                  "pops": {"--r": 1, "--lambda": "required", "--depth": None},
                  "colored": {"--r": 1, "--m": 0}},
    "verify": {"identities": {"--r": 1, "--lambda": None},
               "dims": {"--r": 1, "--depth": 4, "--sector": None},
               "brackets": {"--r": 1, "--depth": 3, "--sector": None},
               "translate": {"--r": 1},
               "weights": {"--r": 1, "--lambda": None},
               "stability": {"--r": 1, "--lambda": None, "--depth": 3,
                             "--kmax": 2},
               "mtp": {"--r": 1, "--lambda": None, "--depth": 3},
               "chain": {"--r": 1, "--lambda": None},
               "basis": {"--r": 1, "--gamma": None, "--depth": 2,
                         "--sector": None},
               "collapse": {"--r": 1, "--depth": 4}},
    "dump": {"cocycle": {"--r": 1},
             "vector": {"--pop": "required", "--k": 0}},
}


def _flags_read(reads):
    return " ".join(flag if default is None else "%s %s" % (flag, default)
                    for flag, default in reads.items())


def parse_config(argv):
    """The configuration of one invocation, every flag the command reads
    parsed, bounded and defaulted per FLAGS and COMMANDS, and `sectors` the
    sectors to run; raises UsageError on bad input."""
    parser = argparse.ArgumentParser(
        prog="popfock",
        description="Exact verification suite for partition overlaid patterns "
                    "and the level-one lattice Fock model.")
    flags = argparse.ArgumentParser(add_help=False,
                                    argument_default=argparse.SUPPRESS)
    for flag, (dest, _, _, text) in FLAGS.items():
        flags.add_argument(flag, dest=flag, metavar=dest.upper(), help=text)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (("enumerate", "enumerate combinatorial objects"),
                          ("verify", "run a verification suite"),
                          ("dump", "dump the cocycle table or a vector")):
        reads = COMMANDS[command]
        p = sub.add_parser(command, help=text, parents=[flags],
                           epilog="flags read, with their defaults: "
                           + "; ".join("%s %s --out" % (suite, _flags_read(f))
                                       for suite, f in reads.items()))
        p.add_argument("suite", choices=list(reads))

    given = vars(parser.parse_args(argv))
    cfg = argparse.Namespace(command=given.pop("command"),
                             suite=given.pop("suite"))
    reads = dict(COMMANDS[cfg.command][cfg.suite], **{"--out": None})
    name = "%s %s" % (cfg.command, cfg.suite)
    for flag in FLAGS:
        if flag in given and flag not in reads:
            raise UsageError("%s does not read %s" % (name, flag))
    for flag, extra in (("--lambda", 0), ("--gamma", 1)):
        if flag in given:
            given.setdefault("--r", str(given[flag].count(",") + extra))
    for flag, (dest, parse, least, _) in FLAGS.items():
        value = reads.get(flag)
        if value == "required" and flag not in given:
            raise UsageError("%s needs %s" % (name, flag))
        if flag in given:
            try:
                value = parse(given[flag], cfg)
                if least is not None and value < least:
                    raise ValueError("must be at least %d" % least)
            except (ValueError, LookupError, TypeError, AttributeError,
                    RecursionError) as exc:
                raise UsageError("%s: %s" % (flag, exc))
        setattr(cfg, dest, value)
    if "--sector" in reads:
        cfg.sectors = ([cfg.sector] if cfg.sector is not None
                       else list(range(cfg.r + 1)))
    return cfg


def _default_lambdas(r):
    """The dominant weights 0, varpi_1, 2 varpi_1, varpi_1 + varpi_r as
    sequences, duplicates removed."""
    w1, wr = fundamental(r, 1), fundamental(r, r)
    seqs = [w.coords for w in (zero_weight(r), w1, 2 * w1, w1 + wr)]
    return list(dict.fromkeys(seqs))


def _lambda_set(cfg):
    return [cfg.lam] if cfg.lam else _default_lambdas(cfg.r)


def _stable_pops(cfg):
    """Stable POPs of depth at most --depth over the lambda set."""
    for seq in _lambda_set(cfg):
        for P in iter_pops(seq):
            if is_stable(P) and depth_total(P) <= cfg.depth:
                yield P


# --------------------------- suites ---------------------------------------

def _pattern_recursion_failures(pattern, r):
    """The s at which the pattern half of I(P_s) differs from that of
    I(P_{s+1}) joined with I^j_s for s <= j <= r; every POP on the pattern
    shares it."""
    inv = {s: pop.pattern_invariant_set(pattern, s) for s in range(1, r + 2)}
    bad = set()
    for s in range(1, r + 1):
        merged = {part: dict(v) for part, v in inv[s + 1].items()}
        for j in range(s, r + 1):
            sl = pop.pattern_invariant_slice(pattern, s, j)
            for part in ("d", "dprime"):
                merged[part].update(sl[part])
        if inv[s] != merged:
            bad.add(s)
    return bad


def suite_identities(cfg):
    """Area identity plus the depth and invariant-set recursions, every POP.

    The pattern half of the invariant-set recursion is checked once per
    pattern: iter_pops yields each pattern's POPs in one run, so the suite
    keeps the failing s of the current pattern only.  The overlay half, the
    depth recursion and the area identity are checked on every POP.
    """
    reports = []
    r = cfg.r
    seqs = [cfg.lam] if cfg.lam else sorted(
        seq for total in range(5) for seq in dominant_seqs(r, total))
    for seq in seqs:
        n_checked = 0
        ok = True
        witness = None
        pattern, pattern_bad = None, set()
        for P in iter_pops(seq):
            n_checked += 1
            good, diag = pop.area_identity(P)
            if not good:
                ok, witness = False, {"pop": P.to_json(), "diag": str(diag)}
                break
            if P.pattern is not pattern:
                pattern = P.pattern
                pattern_bad = _pattern_recursion_failures(pattern, r)
            dd = pop.depth(P)
            ov = {s: pop.overlay_invariant_set(P, s) for s in range(1, r + 2)}
            for s in range(1, r + 1):
                lhs = dd["restricted"][s]
                rhs = dd["restricted"][s + 1] + sum(
                    dd["table"][(s, j)] for j in range(s, r + 1))
                if lhs != rhs:
                    ok, witness = False, {"pop": P.to_json(), "s": s,
                                          "reason": "depth recursion"}
                    break
                merged = dict(ov[s + 1])
                for j in range(s, r + 1):
                    merged.update(pop.overlay_invariant_slice(P, s, j))
                if s in pattern_bad or ov[s] != merged:
                    ok, witness = False, {"pop": P.to_json(), "s": s,
                                          "reason": "invariant recursion"}
                    break
            if not ok:
                break
        reports.append(_report(
            "pop_identities", {"r": r, "lambda": list(seq), "pops": n_checked},
            ok, witness))
    return reports


def suite_dims(cfg):
    reports = []
    r = cfg.r
    # the root lattice points gamma with (gamma|gamma) <= 8
    gammas = [c for c, _ in fock.lattice_points(r, 0, 4)]
    for i in cfg.sectors:
        for c in gammas:
            gq = FiniteWeight(r, c)
            for m in range(cfg.depth + 1):
                got = fock.graded_dim(r, i, gq, m)
                want = colored_count(r, m)
                reports.append(_report(
                    "graded_dim", {"r": r, "i": i, "gamma": list(c), "m": m},
                    got == want,
                    None if got == want else {"got": got, "want": want}))
    return reports


def finite_bracket(al, be):
    """[x_al, x_be] in the matrix realization, as E-matrix coefficients."""
    la, lb = al.lattice_rep(), be.lattice_rep()
    i, j = la.index(1) + 1, la.index(-1) + 1
    k, l = lb.index(1) + 1, lb.index(-1) + 1
    out = {}
    if j == k:
        out[(i, l)] = out.get((i, l), 0) + 1
    if l == i:
        out[(k, j)] = out.get((k, j), 0) - 1
    return out


def _bracket_terms(al, be):
    """[x_al, x_be] split as (root terms [(root, c)], Cartan coefficients):
    the off-diagonal entries of finite_bracket as roots, and its trace-0
    diagonal h = sum_a acc_a alpha_a as acc, the partial sums of h."""
    r = al.r
    roots = []
    h = [0] * (r + 1)
    for (i, j), c in finite_bracket(al, be).items():
        if i == j:
            h[i - 1] += c
            continue
        coords = [0] * (r + 1)
        coords[i - 1] += 1
        coords[j - 1] -= 1
        roots.append((FiniteWeight(r, coords), c))
    return roots, list(accumulate(h[:-1]))


def bracket_expected(al, be, s1, s2, v):
    """RHS of the affine bracket on v, in the matrix realization."""
    n = s1 + s2
    roots, acc = _bracket_terms(al, be)
    exp = fock.zero_vector(v.r, v.sector)
    for gamma, c in roots:
        exp = exp + c * fock.act_root_vector(gamma, n, v)
    for a, c in enumerate(acc, 1):
        if c:
            exp = exp + c * fock.act_heisenberg(a, n, v)
    if be == -al and s2 == -s1 and s1 != 0:
        exp = exp + Fraction(s1) * v
    return exp


_BRACKET_MODES = range(-2, 3)


class _KeyIndex(dict):
    """Engine key -> index, numbering keys in the order they are first met."""

    def __missing__(self, key):
        n = self[key] = len(self)
        return n


def _scaled(image, scale, index):
    """An engine image (L, {key: int}) as {key index: scale / L * int};
    raises unless L divides scale."""
    den, terms = image
    if scale % den:
        raise ArithmeticError("kernel denominator %d does not divide %d"
                              % (den, scale))
    f = scale // den
    return {index[key]: f * c for key, c in terms.items()}


def _bracket_rhs(al, be, table, heis, scale, nkeys):
    """scale^2 times bracket_expected(al, be, s1, s2, .) without its central
    term, on the keys with index < nkeys, by n = s1 + s2: for each n a list
    of {key index: int}, one per key."""
    roots, acc = _bracket_terms(al, be)
    out = {}
    for n in range(-4, 5):
        parts = ([(table[gamma, n], c * scale) for gamma, c in roots]
                 + [(heis[a, n], c) for a, c in enumerate(acc, 1) if c])
        rows = []
        for k in range(nkeys):
            row = {}
            for images, c in parts:
                for q, x in images[k].items():
                    row[q] = row.get(q, 0) + c * x
            rows.append(row)
        out[n] = rows
    return out


def _bracket_failures(r, emax, keys):
    """Failing instances (al, be, s1, s2, key position) of
    [x_al (x) t^s1, x_be (x) t^s2] = bracket_expected on the unit vectors of
    the distinct keys `keys` (one sector, energy <= emax), in sweep order.

    Each root action is a one-factor block of the engine, computed once per
    translation class into a class table that lives while the integer tables
    are built: table[alpha, s][k] is the image of the key with index k as
    {key index: L * coefficient}, L = (emax + 4)!.  A block image is over c!
    for its largest creation degree c, and no image the sweep needs has
    energy above emax + 4.  For |s| <= 2 the tables cover the keys of `keys`
    and every key their images reach; for 2 < |s| <= 4 (the right-hand side)
    only `keys`.  An instance holds iff L^2 (x_al x_be - x_be x_al) k equals
    L^2 RHS(k), term by term."""
    roots = all_roots(r)
    scale = factorial(emax + 4)
    tkeys = [(key.gamma.lattice_rep(), key.modes) for key in keys]
    index = _KeyIndex((key, n) for n, key in enumerate(tkeys))
    classes = {}

    def images(alpha, s, ks):
        return [_scaled((L, {(lat, m): sign * c for m, c in image.items()}),
                        scale, index)
                for lat, sign, (L, image) in fock._block_images(
                    alpha.lattice_rep(), ((s, 1),), ks, classes)]

    table = {(alpha, s): images(alpha, s, tkeys)
             for s in _BRACKET_MODES for alpha in roots}
    reached = list(index)[len(keys):]
    for (alpha, s), rows in table.items():
        rows.extend(images(alpha, s, reached))
    for n in (-4, -3, 3, 4):
        for alpha in roots:
            table[alpha, n] = images(alpha, n, tkeys)
    del classes
    square = scale * scale
    heis = {(a, n): [_scaled(fock._to_engine(fock.act_heisenberg(
        a, n, fock.FockVector(r, key.sector, {key: 1}))), square, index)
        for key in keys] for a in range(1, r + 1) for n in range(-4, 5)}
    for al in roots:
        for be in roots:
            rhs = _bracket_rhs(al, be, table, heis, scale, len(keys))
            opposite = be == -al
            for s1 in _BRACKET_MODES:
                A = table[al, s1]
                for s2 in _BRACKET_MODES:
                    B = table[be, s2]
                    want = rhs[s1 + s2]
                    central = s1 * square if opposite and s2 == -s1 else 0
                    for k in range(len(keys)):
                        diff = {q: -c for q, c in want[k].items()}
                        if central:
                            diff[k] = diff.get(k, 0) - central
                        for k1, c1 in B[k].items():
                            for k2, c2 in A[k1].items():
                                diff[k2] = diff.get(k2, 0) + c1 * c2
                        for k1, c1 in A[k].items():
                            for k2, c2 in B[k1].items():
                                diff[k2] = diff.get(k2, 0) - c1 * c2
                        if any(diff.values()):
                            yield al, be, s1, s2, k


def suite_brackets(cfg):
    reports = []
    r = cfg.r
    n_pairs = len(all_roots(r)) ** 2 * len(_BRACKET_MODES) ** 2
    for i in cfg.sectors:
        keys = fock.enumerate_keys(r, i, cfg.depth)
        bad = next(_bracket_failures(r, cfg.depth, keys), None)
        witness = None
        if bad is not None:
            al, be, s1, s2, k = bad
            witness = {"al": al.to_json(), "be": be.to_json(),
                       "s1": s1, "s2": s2, "key": repr(keys[k])}
        reports.append(_report(
            "brackets", {"r": r, "sector": i, "emax": cfg.depth,
                         "instances": n_pairs * len(keys)},
            bad is None, witness))
    return reports


def _translate_failures(r):
    """Witnesses of the translation laws that fail at rank r, in check order.

    T_x is translate_amount and T_x^-1 translate_amount_inverse, which reduce
    to translate_Q on the root lattice.  Each law runs once, over its list of
    (x, roots, key vectors): the inverse T_x^-1 T_x = id, the composition
    T_{x - d al} T_{d al} = comp_eps(x - d al, d al) T_x for d <= 2, and the
    conjugation T_x^-1 (x_ga (x) t^s) T_x = x_ga (x) t^(s + (x|ga)).  Then
    T_beta against the Heisenberg modes, and the vacuum transport.  Each
    T_x v is computed once per (x, v)."""
    coc = Cocycle(r)
    vecs = [fock.FockVector(r, 0, {k: Fraction(1)})
            for k in fock.enumerate_keys(r, 0, 3)]
    betas = [simple_root(r, a) for a in range(1, r + 1)] + [theta(r)]
    negs = [-b for b in betas]
    varpis = [fundamental(r, i) for i in range(1, r + 1)]
    shifted = [lam - beta for lam in map(weight_from_seq, _default_lambdas(r))
               for beta in (zero_weight(r), simple_root(r, 1),
                            -simple_root(r, 1))]
    inverse = ([(x, vecs) for x in betas + negs]
               + [(x, vecs[:5]) for x in varpis])
    composition = ([(x, betas, vecs[:5])
                    for x in [zero_weight(r)] + betas + negs]
                   + [(x, betas, vecs[:3]) for x in shifted])
    conjugation = ([(x, all_roots(r), vecs[:5]) for x in negs + varpis]
                   + [(x, negs, vecs[:3]) for x in shifted])
    T = lru_cache(maxsize=None)(translate_amount)
    T_inv = translate_amount_inverse
    for x, vs in inverse:
        for v in vs:
            if T_inv(x, T(x, v)) != v:
                yield {"prop": "inverse", "x": x.to_json()}
    for x, alphas, vs in composition:
        for al in alphas:
            for d in (0, 1, 2):
                sg = coc.comp_eps(x - d * al, d * al)
                for v in vs:
                    if T(x - d * al, T(d * al, v)) != sg * T(x, v):
                        yield {"prop": "composition", "x": x.to_json(),
                               "alpha": al.to_json(), "d": d}
    for x, gammas, vs in conjugation:
        for ga in gammas:
            shift = int(bilinear(x, ga))
            for s in (-1, 0, 1):
                for v in vs:
                    lhs = T_inv(x, fock.act_root_vector(ga, s, T(x, v)))
                    if lhs != fock.act_root_vector(ga, s + shift, v):
                        yield {"prop": "conjugation", "x": x.to_json(),
                               "root": ga.to_json(), "s": s}
    for b in betas:
        for a in range(1, r + 1):
            pair = bilinear(b, simple_root(r, a))
            for v in vecs[:5]:
                lhs = translate_Q(
                    b, fock.act_heisenberg(a, 0, translate_Q(-b, v)))
                if lhs != fock.act_heisenberg(a, 0, v) - pair * v:
                    yield {"prop": "cartan zero mode", "beta": b.to_json(),
                           "a": a}
            for n in (-2, -1, 1, 2):
                for v in vecs[:5]:
                    if (translate_Q(b, fock.act_heisenberg(a, n, v))
                            != fock.act_heisenberg(a, n, translate_Q(b, v))):
                        yield {"prop": "heisenberg", "beta": b.to_json(),
                               "a": a, "n": n}
    vac = fock.vacuum(r, 0)
    for i, varpi in enumerate(varpis, 1):
        if T(varpi, vac) != fock.vacuum(r, i):
            yield {"prop": "vacuum transport", "i": i}


def suite_translate(cfg):
    witness = next(_translate_failures(cfg.r), None)
    return [_report("translate", {"r": cfg.r}, witness is None, witness)]


def suite_weights(cfg):
    reports = []
    for seq in _lambda_set(cfg):
        pops = enumerate_pops(seq)
        vecs = [clbasis.cl_vector(P, 0) for P in pops]
        ok = clbasis.rank_of(vecs) == len(vecs)
        reports.append(_report(
            "cl_basis_independent",
            {"r": cfg.r, "lambda": list(seq), "count": len(vecs)}, ok))
        reps = (clbasis.verify_weight(P, k, v if k == 0 else None)
                for P, v in zip(pops, vecs) for k in (0, 1))
        bad = next((rep for rep in reps if rep["status"] != "pass"), None)
        reports.append(_report("weight_law",
                               {"r": cfg.r, "lambda": list(seq)},
                               bad is None, bad))
    return reports


def suite_stability(cfg):
    return [clbasis.verify_stability(P, cfg.kmax) for P in _stable_pops(cfg)]


def suite_mtp(cfg):
    return [rep for P in _stable_pops(cfg) for s in range(1, cfg.r + 2)
            for rep in clbasis.verify_mtp(P, s)]


def suite_chain(cfg):
    return [clbasis.weyl_span(weight_from_seq(seq), 1)
            for seq in _lambda_set(cfg)]


def suite_basis(cfg):
    reports = []
    r = cfg.r
    gammas = ([cfg.gamma] if cfg.gamma is not None
              else [zero_weight(r), simple_root(r, 1)])
    for gq in gammas:
        for i in cfg.sectors:
            for d in range(cfg.depth + 1):
                _, rep = clbasis.stable_basis(i, gq, d)
                reports.append(rep)
    return reports


# g in {1, h_1(-1), h_1(-1)^2} as its (modes, coefficient) pairs, each with
# its degree m
_COLLAPSE_G = (((((), 1),), 0),
               (((((1, 1),), 1),), 1),
               (((((1, 1), (1, 1)), 1),), 2))


def _collapse_instances(alpha, depth):
    """Arguments of verify_crucprop for the root alpha, by family.

    general: d <= depth, d' <= 2, |pi| <= d, each g and mu = (d + d') varpi.
    sl2: mu = d' alpha, so d = d', with g = 1, m = 0, d' <= depth + 2 and
    |pi| <= min(d', depth)."""
    general = [(alpha, d, dp, pi, clbasis._mu_with_pairing(alpha, d + dp),
                g, m)
               for d in range(depth + 1) for dp in range(3)
               for g, m in _COLLAPSE_G
               for pi in enumerate_rect(d, dp, d)]
    sl2 = [(alpha, dp, dp, pi, dp * alpha, (((), 1),), 0)
           for dp in range(depth + 3)
           for pi in enumerate_rect(dp, dp, min(dp, depth))]
    return {"general": general, "sl2": sl2}


def suite_collapse(cfg):
    """Single-root collapse for alpha_1 and theta: one report per root and
    family, whose witness is the first failing instance.  Each distinct
    argument tuple of clbasis._crucprop_collapsed is computed once per call."""
    collapsed = lru_cache(maxsize=None)(clbasis._crucprop_collapsed)
    reports = []
    r = cfg.r
    for alpha in dict.fromkeys([simple_root(r, 1), theta(r)]):
        for family, insts in _collapse_instances(alpha, cfg.depth).items():
            reps = (clbasis.verify_crucprop(*args, collapsed=collapsed)
                    for args in insts)
            bad = next((rep for rep in reps if rep["status"] != "pass"), None)
            reports.append(_report(
                "collapse", {"r": r, "alpha": alpha.to_json(), "family": family,
                             "depth": cfg.depth, "instances": len(insts)},
                bad is None, bad))
    return reports


SUITES = {
    "identities": suite_identities,
    "dims": suite_dims,
    "brackets": suite_brackets,
    "translate": suite_translate,
    "weights": suite_weights,
    "stability": suite_stability,
    "mtp": suite_mtp,
    "chain": suite_chain,
    "basis": suite_basis,
    "collapse": suite_collapse,
}


def run(cfg):
    """Execute the configured command; returns (exit_status, report lines).

    The Fock model's caches are emptied first, so every run starts cold, as
    a fresh CLI process does.
    """
    fock.clear_caches()
    lines = []
    status = 0
    if cfg.command == "enumerate":
        if cfg.suite == "patterns":
            objs = [P.to_json() for P in gtpattern.enumerate_patterns(cfg.lam)]
        elif cfg.suite == "pops":
            objs = (P.to_json()
                    for P in iter_pops(cfg.lam, depth_filter=cfg.depth))
        else:
            # each multiset as its r part lists, decreasing within a color
            objs = [[[n for b, n in reversed(modes) if b == a]
                     for a in range(1, cfg.r + 1)]
                    for modes in colored_partitions(cfg.r, cfg.m)]
        lines = [json.dumps(obj, sort_keys=True) for obj in objs]
    elif cfg.command == "verify":
        reports = SUITES[cfg.suite](cfg)
        coc_hash = Cocycle(cfg.r).table_hash()
        for rep in reports:
            rep = dict(rep)
            rep["cocycle"] = coc_hash[:16]
            lines.append(json.dumps(rep, sort_keys=True, default=str))
            if rep["status"] != "pass":
                status = 1
    elif cfg.command == "dump":
        if cfg.suite == "cocycle":
            lines.append(Cocycle(cfg.r).table_dump().rstrip("\n"))
        else:
            lines.extend(clbasis.cl_vector(cfg.pop, cfg.k).dump_lines())
    return status, lines


def main(argv=None):
    """Exit status: 0 if every check passes, 1 if one fails, 2 on bad input,
    3 on an internal error, which also prints one JSON error line, and 141
    (128 + SIGPIPE) when the reader of the reports closes its end early."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_config(argv)
        try:
            out = open(cfg.out, "w") if cfg.out else sys.stdout
        except OSError as exc:
            raise UsageError("cannot write --out %s: %s"
                             % (cfg.out, exc.strerror))
        try:
            status, lines = run(cfg)
            # one line at a time, not one string of them all; as no report
            # line is empty, these are the bytes of "\n".join(lines) + "\n",
            # and none for a run without lines
            for line in lines:
                out.write(line + "\n")
            out.flush()
        finally:
            if out is not sys.stdout:
                out.close()
        return status
    except BrokenPipeError:
        # `popfock ... | head -1`: nothing more can reach the reader, so stop
        # quietly, and point stdout at the null device so that the
        # interpreter's final flush does not fail on the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        # free what the failed run holds, so that this handler runs after
        # MemoryError: the engine caches and, for MemoryError, the frames of
        # its traceback, whose locals (some in reference cycles) keep the
        # failed call's data alive; gc is imported with the module, as even
        # that import fails here before the collection
        fock.clear_caches()
        if isinstance(exc, MemoryError):
            exc.__traceback__ = None
            gc.collect()
        import traceback  # only on this path: it costs start-up time
        traceback.print_exc()
        print(json.dumps({"status": "error", "error": type(exc).__name__,
                          "message": str(exc)}, sort_keys=True))
        return 3


if __name__ == "__main__":
    sys.exit(main())
