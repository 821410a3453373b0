"""Independent oracles for the benchmark workloads and the checker of their
report streams.

Nothing here imports popfock: every expected value is recomputed from its
closed form or by a method the program does not use, so a fault in the
program cannot also hide in the oracle.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

PRIME = (1 << 61) - 1

COCYCLE_FIELD = re.compile(r"^[0-9a-f]{16}$")


def colored_partition_count(r, m):
    """p_r(m), the coefficient of q^m in prod_{n>=1} (1 - q^n)^(-r).

    Taking the logarithmic derivative gives m p(m) = r sum_k sigma(k) p(m-k),
    with sigma the divisor sum; the program convolves the product instead.
    """
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    p = [1]
    for n in range(1, m + 1):
        acc = sum(divisor_sum(k) * p[n - k] for k in range(1, n + 1))
        p.append(r * acc // n)
    return p[m]


def divisor_sum(k):
    return sum(q for q in range(1, k + 1) if k % q == 0)


def lattice_energy(c):
    """(|gamma|^2 - |varpi_i|^2) / 2 for the lattice point whose epsilon
    coordinates c sum to its coset index i; this equals (sum c^2 - i) / 2."""
    twice = sum(x * x for x in c) - sum(c)
    if twice % 2:
        raise ValueError("lattice point %r has a half-integral energy" % (c,))
    return twice // 2


def lattice_points(r, i, emax):
    """Integer vectors of length r+1 summing to i with lattice energy <= emax."""
    n = r + 1
    bound = 0
    while bound * bound <= 2 * emax + i:
        bound += 1
    out = []

    def rec(prefix):
        if len(prefix) == n - 1:
            c = tuple(prefix) + (i - sum(prefix),)
            if lattice_energy(c) <= emax:
                out.append(c)
            return
        for x in range(-bound, bound + 1):
            rec(prefix + [x])

    rec([])
    return out


def sector_key_count(r, i, emax):
    """Keys of the sector-i module with energy <= emax: each lattice point of
    energy e0 carries sum_{m <= emax - e0} p_r(m) creation multisets."""
    return sum(sum(colored_partition_count(r, m)
                   for m in range(emax - lattice_energy(c) + 1))
               for c in lattice_points(r, i, emax))


def weyl_module_dim(seq):
    """prod_i C(r+1, i)^{m_i} with m_i = lambda_i - lambda_{i+1}."""
    n = len(seq)
    out = 1
    for i in range(1, n):
        out *= comb(n, i) ** (seq[i - 1] - seq[i])
    return out


def is_dominant_seq(seq):
    return (len(seq) >= 2 and seq[-1] == 0
            and all(seq[k] >= seq[k + 1] for k in range(len(seq) - 1)))


def dominates(lam, mu):
    """mu^+ <= lambda in dominance order, mu given by any epsilon coordinates
    of the same length: after sorting mu and moving it to lambda's coordinate
    sum, every partial sum of lambda - mu^+ is >= 0 and the total is 0."""
    n = len(lam)
    shift, rem = divmod(sum(lam) - sum(mu), n)
    if rem:
        return False
    mu_plus = sorted((x + shift for x in mu), reverse=True)
    partial = 0
    for a, b in zip(lam, mu_plus):
        partial += a - b
        if partial < 0:
            return False
    return partial == 0


def fundamental_coords(r, i):
    return tuple(1 if p < i else 0 for p in range(r + 1))


def lattice_rep(coords, i):
    """The representative of an epsilon-coordinate vector whose sum is i."""
    n = len(coords)
    shift, rem = divmod(sum(coords) - i, n)
    if rem:
        raise ValueError("%r is not in the coset %d" % (coords, i))
    return tuple(x - shift for x in coords)


def rank_mod_prime(rows, p=PRIME):
    """Rank over GF(p) of rows given as {column: Fraction}.  Full rank mod p
    implies full rank over the rationals."""
    pivots = {}
    rank = 0
    for row in rows:
        vec = {}
        for col, q in row.items():
            q = Fraction(q)
            if q.denominator % p == 0:
                raise ValueError("denominator divisible by the prime")
            val = q.numerator * pow(q.denominator, -1, p) % p
            if val:
                vec[col] = val
        while vec:
            col = min(vec)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(vec[col], -1, p)
                pivots[col] = {k: v * inv % p for k, v in vec.items()}
                rank += 1
                break
            f = vec[col]
            for k, v in piv.items():
                val = (vec.get(k, 0) - f * v) % p
                if val:
                    vec[k] = val
                else:
                    vec.pop(k, None)
    return rank


# ---------------------------------------------------------------------------
# workloads: the CLI arguments and the checks of their report streams

BRACKETS = {"r": 2, "depth": 1, "sector": 0}
BASIS = {"r": 3, "depth": 2, "sector": 1}
IDENTITIES = {"r": 3, "lambda": (6, 4, 2, 0)}

WORKLOADS = {
    "brackets": ["verify", "brackets", "--r", str(BRACKETS["r"]),
                 "--depth", str(BRACKETS["depth"]),
                 "--sector", str(BRACKETS["sector"])],
    "basis": ["verify", "basis", "--r", str(BASIS["r"]),
              "--depth", str(BASIS["depth"]),
              "--sector", str(BASIS["sector"])],
    "identities": ["verify", "identities", "--r", str(IDENTITIES["r"]),
                   "--lambda", ",".join(map(str, IDENTITIES["lambda"]))],
}


def parse_reports(text):
    """Report lines of a stream as dicts; raises ValueError on a bad line."""
    if not text.endswith("\n"):
        raise ValueError("report stream does not end in a newline")
    return [json.loads(line) for line in text[:-1].split("\n")]


def _common_problems(reports, check):
    problems = []
    cocycles = {rep.get("cocycle") for rep in reports}
    if len(cocycles) != 1 or not COCYCLE_FIELD.match(str(next(iter(cocycles)))):
        problems.append("cocycle fields %r" % sorted(map(str, cocycles)))
    for n, rep in enumerate(reports):
        if rep.get("check") != check:
            problems.append("report %d: check %r, want %r"
                            % (n, rep.get("check"), check))
        if rep.get("status") != "pass":
            problems.append("report %d: status %r" % (n, rep.get("status")))
    return problems


def check_brackets(reports):
    r, emax, i = BRACKETS["r"], BRACKETS["depth"], BRACKETS["sector"]
    problems = _common_problems(reports, "brackets")
    if len(reports) != 1:
        return problems + ["%d reports, want 1" % len(reports)]
    n_roots = r * (r + 1)
    want = {"r": r, "sector": i, "emax": emax,
            "instances": n_roots * n_roots * 25 * sector_key_count(r, i, emax)}
    if reports[0].get("input") != want:
        problems.append("input %r, want %r" % (reports[0].get("input"), want))
    return problems


def basis_cases():
    """(i, gamma coords, d) of each stable_basis report, in report order."""
    r, dmax, i = BASIS["r"], BASIS["depth"], BASIS["sector"]
    alpha1 = (1, -1) + (0,) * (r - 1)
    return [(i, gamma, d) for gamma in ((0,) * (r + 1), alpha1)
            for d in range(dmax + 1)]


def check_basis(reports):
    r = BASIS["r"]
    problems = _common_problems(reports, "stable_basis")
    cases = basis_cases()
    if len(reports) != len(cases):
        return problems + ["%d reports, want %d" % (len(reports), len(cases))]
    for n, (rep, (i, gamma, d)) in enumerate(zip(reports, cases)):
        inp = rep.get("input", {})
        got = (inp.get("i"), tuple(inp.get("gamma", {}).get("coords", ())),
               inp.get("d"))
        if got != (i, gamma, d) or inp.get("gamma", {}).get("r") != r:
            problems.append("report %d: input %r, want i=%d gamma=%r d=%d"
                            % (n, inp, i, gamma, d))
            continue
        size = rep.get("witness", {}).get("size")
        if size != colored_partition_count(r, d):
            problems.append("report %d: size %r, want p_%d(%d) = %d"
                            % (n, size, r, d, colored_partition_count(r, d)))
        lam = tuple(inp.get("lambda_seq", ()))
        mu = tuple(a + b for a, b in zip(fundamental_coords(r, i), gamma))
        if not (len(lam) == r + 1 and is_dominant_seq(lam)
                and sum(lam) % (r + 1) == i and dominates(lam, mu)):
            problems.append("report %d: lambda_seq %r is not dominant in "
                            "class %d above %r" % (n, lam, i, mu))
    return problems


def check_identities(reports):
    r, lam = IDENTITIES["r"], IDENTITIES["lambda"]
    problems = _common_problems(reports, "pop_identities")
    if len(reports) != 1:
        return problems + ["%d reports, want 1" % len(reports)]
    want = {"r": r, "lambda": list(lam), "pops": weyl_module_dim(lam)}
    if reports[0].get("input") != want:
        problems.append("input %r, want %r" % (reports[0].get("input"), want))
    return problems


CHECKERS = {"brackets": check_brackets, "basis": check_basis,
            "identities": check_identities}


def check_stream(workload, text):
    """Problems found in one report stream; an empty list means correct."""
    try:
        return CHECKERS[workload](parse_reports(text))
    except (ValueError, TypeError, AttributeError, KeyError) as exc:
        return ["malformed report stream: %r" % (exc,)]


def check_basis_vectors(vectors):
    """Check the vectors stable_basis returned on the basis workload.

    vectors: one list per report, in report order, each vector a list of
    (lattice coords, modes, numerator, denominator) terms.  Every key must sit
    on the lattice point varpi_i + gamma with energy
    (|varpi_i + gamma|^2 - |varpi_i|^2) / 2 + d, and each set must have full
    rank over GF(PRIME).
    """
    r = BASIS["r"]
    cases = basis_cases()
    if len(vectors) != len(cases):
        return ["%d captured sets, want %d" % (len(vectors), len(cases))]
    problems = []
    for n, (vecs, (i, gamma, d)) in enumerate(zip(vectors, cases)):
        point = lattice_rep(tuple(a + b for a, b in
                                  zip(fundamental_coords(r, i), gamma)), i)
        energy = lattice_energy(point) + d
        if len(vecs) != colored_partition_count(r, d):
            problems.append("set %d: %d vectors" % (n, len(vecs)))
        rows = []
        for vec in vecs:
            row = {}
            for coords, modes, num, den in vec:
                coords = tuple(coords)
                modes = tuple(tuple(m) for m in modes)
                key_energy = lattice_energy(coords) + sum(m for _, m in modes)
                if coords != point or key_energy != energy:
                    problems.append("set %d: key %r %r off the weight space "
                                    "(point %r, energy %d)"
                                    % (n, coords, modes, point, energy))
                    break
                row[(coords, modes)] = Fraction(num, den)
            rows.append(row)
        if rank_mod_prime(rows) != len(rows):
            problems.append("set %d: rank below %d over GF(p)" % (n, len(rows)))
    return problems
