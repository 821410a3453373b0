"""Slow, independent implementations that the tests compare the library
against: brute-force POP enumeration, the column-grouped basis operator, the
sign propagation of the sector-changing translations, and direct
constructions of Heisenberg polynomials and weight-space keys."""

from popfock.clbasis import OperatorWord, cl_monomial
from popfock.fock import (FockKey, _mode_multisets, act_heisenberg,
                          zero_vector)
from popfock import gtpattern
from popfock.gtpattern import GTPattern
from popfock.partitions import enumerate_rect
from popfock.pop import POP, depth_total
from popfock.rootdata import FiniteWeight, fundamental, pos_root
from popfock.translate import eps_tilde


def enumerate_pops_bruteforce(lamseq, weight=None, depth_filter=None):
    """Independent enumerator used as an oracle: brute force over entry boxes."""
    lamseq = tuple(int(x) for x in lamseq)
    n = len(lamseq)
    r = n - 1
    patterns = []

    def rec_rows(rows_bottom_up):
        below = rows_bottom_up[-1]
        if len(below) == 1:
            try:
                patterns.append(GTPattern(list(reversed(rows_bottom_up))))
            except ValueError:
                pass
            return
        j = len(below) - 1
        lo = min(below)
        hi = max(below)

        def rec_row(row):
            if len(row) == j:
                ok = all(below[i] >= row[i] >= below[i + 1] for i in range(j))
                if ok:
                    rec_rows(rows_bottom_up + [row])
                return
            for v in range(lo, hi + 1):
                rec_row(row + [v])

        rec_row([])

    rec_rows([list(lamseq)])
    out = []
    for pattern in patterns:
        if weight is not None and gtpattern.weight(pattern) != weight:
            continue
        st = gtpattern.stats(pattern)
        cells = sorted(st["d"], key=lambda ij: (ij[1], ij[0]))
        stacks = [[]]
        for (i, j) in cells:
            opts = enumerate_rect(st["d"][(i, j)], st["dprime"][(i, j)])
            stacks = [acc + [pi] for acc in stacks for pi in opts]
        for acc in stacks:
            P = POP(pattern, dict(zip(cells, acc)))
            if depth_filter is not None and depth_total(P) != depth_filter:
                continue
            out.append(P)
    return out


def rho_column(P, k=0, s=1):
    """Column-grouped form of the same operator; agrees with rho as an operator."""
    r = P.r
    word = OperatorWord()
    for j in range(s, r + 1):
        for i in range(s, j + 1):
            d = P.d(i, j) + (k if i == j else 0)
            dp = P.dprime(i, j) + (k if i == 1 else 0)
            word = word * cl_monomial(pos_root(r, i, j), d, dp, P.overlay[(i, j)])
    return word


class SignPropagator:
    """Signs of the sector-changing translation for one fundamental weight.

    The sign of each lattice point is determined from vacuum -> vacuum by
    propagating the intertwining law through Chevalley actions; propagation is
    path-independent and agrees with the closed form eps~(gamma, varpi_i),
    which is what sign() returns.  verify() re-derives the table by actual
    propagation and aborts on any inconsistency.
    """

    def __init__(self, r, i):
        if not 0 <= i <= r:
            raise ValueError("sector index out of range")
        self.r = r
        self.i = i
        self._varpi_lat = fundamental(r, i).lattice_rep()
        self._memo = {}
        self.consistent = None

    def sign(self, gamma):
        if gamma not in self._memo:
            if gamma.class_index() != 0:
                raise ValueError("sign propagation is seeded on the root lattice")
            self._memo[gamma] = eps_tilde(gamma.lattice_rep(), self._varpi_lat)
        return self._memo[gamma]

    def verify(self, step_signs):
        """Check path independence given the per-step sign ratios.

        step_signs: iterable of (gamma, mu, ratio) meaning the propagated sign
        at gamma + mu equals ratio times the sign at gamma.  Aborts on clash.
        """
        derived = {}
        seed = FiniteWeight(self.r, (0,) * (self.r + 1))
        derived[seed] = 1
        pending = list(step_signs)
        progress = True
        while progress:
            progress = False
            for gamma, mu, ratio in pending:
                if gamma in derived:
                    target = gamma + mu
                    val = derived[gamma] * ratio
                    if target in derived:
                        if derived[target] != val:
                            self.consistent = False
                            raise AssertionError(
                                "sign propagation inconsistent at %r" % (target,))
                    else:
                        derived[target] = val
                        progress = True
        for gamma, val in derived.items():
            if self.sign(gamma) != val:
                self.consistent = False
                raise AssertionError("propagated sign differs from table at %r"
                                     % (gamma,))
        self.consistent = True
        return derived


def weight_space_keys(r, i, gamma_q, m):
    g = fundamental(r, i) + gamma_q
    return [FockKey(g, modes) for modes in _mode_multisets(r, m)]


def apply_poly(terms, v):
    """Apply a polynomial in Heisenberg modes given as {modes tuple: coeff}."""
    out = zero_vector(v.r, v.sector)
    for modes, coeff in terms.items():
        w = v * coeff
        for a, n in reversed(modes):
            w = act_heisenberg(a, -n, w)
        out = out + w
    return out
