"""Finite and affine weight arithmetic for sl_{r+1} in epsilon coordinates."""

from __future__ import annotations

from fractions import Fraction


class FiniteWeight:
    """Element of the weight lattice P of sl_{r+1}.

    Stored as r+1 epsilon coordinates, canonicalized so the last entry is 0
    (the coordinates are only defined up to adding a constant sequence).
    """

    __slots__ = ("r", "coords")

    def __init__(self, r, coords):
        coords = tuple(int(c) for c in coords)
        if r < 1:
            raise ValueError("rank must be >= 1")
        if len(coords) != r + 1:
            raise ValueError("expected %d coordinates, got %d" % (r + 1, len(coords)))
        last = coords[-1]
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "coords", tuple(c - last for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteWeight is immutable")

    def __eq__(self, other):
        return isinstance(other, FiniteWeight) and self.r == other.r and self.coords == other.coords

    def __hash__(self):
        return hash((self.r, self.coords))

    def __repr__(self):
        return "FiniteWeight(%d, %r)" % (self.r, list(self.coords))

    def __add__(self, other):
        self._check_rank(other)
        return FiniteWeight(self.r, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check_rank(other)
        return FiniteWeight(self.r, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FiniteWeight(self.r, tuple(-a for a in self.coords))

    def __mul__(self, n):
        return FiniteWeight(self.r, tuple(int(n) * a for a in self.coords))

    __rmul__ = __mul__

    def _check_rank(self, other):
        if self.r != other.r:
            raise ValueError("rank mismatch: %d vs %d" % (self.r, other.r))

    def is_dominant(self):
        return all(self.coords[i] >= self.coords[i + 1] for i in range(self.r))

    def class_index(self):
        """Coset of the weight modulo the root lattice Q, as an index in 0..r."""
        return sum(self.coords) % (self.r + 1)

    def lattice_rep(self):
        """The unique integer-vector representative whose entries sum to class_index."""
        n = self.r + 1
        total = sum(self.coords)
        cls = total % n
        shift = (total - cls) // n
        return tuple(c - shift for c in self.coords)

    def fundamental_coeffs(self):
        """Coefficients m_i in the ϖ-basis (may be negative)."""
        return tuple(self.coords[i] - self.coords[i + 1] for i in range(self.r))

    def to_json(self):
        return {"r": self.r, "coords": list(self.coords)}


def zero_weight(r):
    return FiniteWeight(r, (0,) * (r + 1))


def fundamental(r, i):
    """ϖ_i = ε_1 + ... + ε_i, with ϖ_0 := 0."""
    if not 0 <= i <= r:
        raise ValueError("fundamental weight index out of range")
    return FiniteWeight(r, tuple(1 if p < i else 0 for p in range(r + 1)))


def simple_root(r, a):
    """α_a = ε_a − ε_{a+1}, 1 <= a <= r."""
    if not 1 <= a <= r:
        raise ValueError("simple root index out of range")
    coords = [0] * (r + 1)
    coords[a - 1] = 1
    coords[a] = -1
    return FiniteWeight(r, coords)


def pos_root(r, i, j):
    """α_{i,j} = α_i + ... + α_j = ε_i − ε_{j+1}, 1 <= i <= j <= r."""
    if not 1 <= i <= j <= r:
        raise ValueError("positive root indices out of range")
    coords = [0] * (r + 1)
    coords[i - 1] = 1
    coords[j] = -1
    return FiniteWeight(r, coords)


def theta(r):
    return pos_root(r, 1, r)


def all_roots(r):
    """All roots ε_i − ε_j (i != j), positive ones first, in deterministic order."""
    pos = [pos_root(r, i, j) for j in range(1, r + 1) for i in range(1, j + 1)]
    return pos + [-a for a in pos]


def is_root(x):
    lat = x.lattice_rep()
    return sorted(lat) == [-1] + [0] * (x.r - 1) + [1] and sum(lat) == 0


def bilinear(x, y):
    """Normalized invariant form on finite weights, rational on P x P:
    sum(x_i y_i) - sum(x) sum(y) / (r+1)."""
    if x.r != y.r:
        raise ValueError("rank mismatch")
    n = x.r + 1
    dot = sum(a * b for a, b in zip(x.coords, y.coords))
    return Fraction(n * dot - sum(x.coords) * sum(y.coords), n)


def seq_from_fundamental(r, ms):
    """ϖ-coefficients (m_1,...,m_r) -> sequence (λ_1 >= ... >= λ_{r+1} = 0)."""
    ms = tuple(int(m) for m in ms)
    if len(ms) != r:
        raise ValueError("expected %d coefficients" % r)
    if any(m < 0 for m in ms):
        raise ValueError("not dominant: negative fundamental coefficient")
    return tuple(sum(ms[i:]) for i in range(r)) + (0,)


def weight_from_seq(seq):
    return FiniteWeight(len(seq) - 1, seq)


def dominant_seqs(r, total):
    """Dominant sequences (weakly decreasing, r+1 entries, last 0) with the
    given sum, in ascending lex order."""
    seqs = []

    def rec(prefix, remaining, cap):
        if len(prefix) == r:
            if remaining == 0:
                seqs.append(tuple(prefix) + (0,))
            return
        for v in range(min(cap, remaining) + 1):
            rec(prefix + [v], remaining - v, v)

    rec([], total, total)
    return seqs


def residue_class(lam):
    """i_λ: remainder of λ_1 + ... + λ_{r+1} mod r+1, for dominant λ."""
    if not lam.is_dominant():
        raise ValueError("weight is not dominant")
    return sum(lam.coords) % (lam.r + 1)


class AffineWeight:
    """Affine weight: finite part + level * Lambda0 + delta * δ.

    The artifact normalizes Λ_i := Λ_0 + ϖ_i (delta coefficient 0), so every
    weight produced by the model has an integer delta coefficient.  The raw
    translation formula may produce rational deltas for translations outside Q;
    integrality is asserted where the model requires it (assert_integral).
    """

    __slots__ = ("finite", "level", "delta")

    def __init__(self, finite, level, delta=0):
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "level", int(level))
        object.__setattr__(self, "delta", Fraction(delta))

    def __setattr__(self, name, value):
        raise AttributeError("AffineWeight is immutable")

    def __eq__(self, other):
        return (isinstance(other, AffineWeight) and self.finite == other.finite
                and self.level == other.level and self.delta == other.delta)

    def __hash__(self):
        return hash((self.finite, self.level, self.delta))

    def __repr__(self):
        return "AffineWeight(%r, level=%d, delta=%s)" % (self.finite, self.level, self.delta)

    def __add__(self, other):
        return AffineWeight(self.finite + other.finite, self.level + other.level,
                            self.delta + other.delta)

    def __sub__(self, other):
        return AffineWeight(self.finite - other.finite, self.level - other.level,
                            self.delta - other.delta)

    def assert_integral(self):
        if self.delta.denominator != 1:
            raise AssertionError("non-integral delta coefficient: %s" % self.delta)
        return self

    def to_json(self):
        obj = self.finite.to_json()
        obj["level"] = self.level
        obj["delta"] = [self.delta.numerator, self.delta.denominator]
        return obj


def Lambda(r, i):
    """Λ_i in the artifact normalization Λ_0 + ϖ_i."""
    return AffineWeight(fundamental(r, i), 1, 0)


def translate_weight(beta, L):
    """t_β(Λ) = Λ + (Λ|δ)β − [(Λ|β) + (Λ|δ)(β|β)/2] δ."""
    level = L.level
    lam_beta = bilinear(L.finite, beta)
    beta_beta = bilinear(beta, beta)
    new_finite = L.finite + level * beta
    new_delta = L.delta - lam_beta - Fraction(level) * beta_beta / 2
    return AffineWeight(new_finite, level, new_delta)
