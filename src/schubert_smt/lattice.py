"""Index-tuple combinatorics for the Grassmannian quotient order.

Minimal coset representatives are stored as strictly increasing tuples
(the one-line notation restricted to the first r values); the full
permutation is reconstructed with the complement in increasing order
whenever it is needed.  Torus weights are plain integer vectors in
epsilon coordinates, so dominance questions reduce to prefix sums and
all arithmetic stays in ZZ.
"""

import itertools
from operator import lt

from ._record import Record, _set

WeightVector = tuple[int, ...]


class IndexTuple(Record):
    """A strictly increasing r-tuple with entries in 1..n.

    Doubles as a Pluecker index and as a minimal coset representative
    for the quotient of the symmetric group by a maximal parabolic.
    It keys the point, basis and cell caches, so its constructor,
    equality and hash are written out.
    """

    __slots__ = ("values", "n")
    values: tuple[int, ...]
    n: int

    def __init__(self, values, n: int):
        vals = tuple(map(int, values))
        if not vals:
            raise ValueError("index tuple must be nonempty")
        if min(vals) < 1 or max(vals) > n:
            raise ValueError(f"values {vals} out of range 1..{n}")
        if not all(map(lt, vals, vals[1:])):
            raise ValueError(f"values {vals} not strictly increasing")
        _set(self, "values", vals)
        _set(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values and self.n == other.n

    def __hash__(self):
        return hash((self.values, self.n))

    @property
    def r(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __str__(self):
        return "(" + ",".join(map(str, self.values)) + ")"


def top_element(r: int, n: int) -> IndexTuple:
    """The maximal element (n-r+1, ..., n) of the quotient order."""
    return IndexTuple(tuple(range(n - r + 1, n + 1)), n)


def leq_componentwise(a: IndexTuple, b: IndexTuple) -> bool:
    """Entrywise order a_i <= b_i; the Bruhat order on coset representatives."""
    if a.r != b.r or a.n != b.n:
        raise ValueError(f"shape mismatch: {a} in I({a.r},{a.n}) vs {b} in I({b.r},{b.n})")
    return all(x <= y for x, y in zip(a.values, b.values))


def distinguished_w(i: int, n: int) -> IndexTuple:
    """The i-th element (i = 1..5) of the sub-lattice studied by the quotient probes.

    All five live in I(n, 2n) and share the even prefix (2, 4, ..., 2n-6);
    the first is the componentwise-minimal semistable representative
    (2, 4, ..., 2n) and the other four sit above it.
    """
    if n < 3:
        raise ValueError("distinguished representatives need n >= 3")
    if i not in (1, 2, 3, 4, 5):
        raise ValueError(f"index {i} not in 1..5")
    prefix = tuple(range(2, 2 * n - 5, 2))
    tails = {
        1: (2 * n - 4, 2 * n - 2, 2 * n),
        2: (2 * n - 3, 2 * n - 2, 2 * n),
        3: (2 * n - 4, 2 * n - 1, 2 * n),
        4: (2 * n - 3, 2 * n - 1, 2 * n),
        5: (2 * n - 2, 2 * n - 1, 2 * n),
    }
    return IndexTuple(prefix + tails[i], 2 * n)


def extend_to_permutation(w: IndexTuple) -> tuple[int, ...]:
    """Minimal-length permutation whose first r values are w, rest the complement ascending."""
    complement = tuple(v for v in range(1, w.n + 1) if v not in set(w.values))
    return w.values + complement


def apply_coset_to_weight(w: IndexTuple, lam) -> WeightVector:
    """Permuted weight w.lam: coordinate i of lam lands at position sigma(i)."""
    lam = tuple(int(c) for c in lam)
    if len(lam) != w.n:
        raise ValueError(f"weight has length {len(lam)}, expected {w.n}")
    sigma = extend_to_permutation(w)
    out = [0] * w.n
    for i, c in enumerate(lam):
        out[sigma[i] - 1] = c
    return tuple(out)


def is_dominance_nonpositive(mu) -> bool:
    """Whether mu <= 0 in dominance order.

    In type A this means every proper prefix sum of the epsilon
    coordinates is <= 0 and the total sum is 0.
    """
    mu = tuple(int(c) for c in mu)
    acc = 0
    for c in mu[:-1]:
        acc += c
        if acc > 0:
            return False
    return acc + mu[-1] == 0


def fundamental_weight_multiple(k: int, r: int, m: int) -> WeightVector:
    """k times the r-th fundamental weight of SL(m), in integral epsilon coordinates.

    Only defined when m divides k*r, which is exactly the descent condition.
    """
    if not 1 <= r <= m - 1:
        raise ValueError(f"r={r} out of range 1..{m - 1}")
    if (k * r) % m != 0:
        raise ValueError(f"{k}*omega_{r} is not integral in epsilon coordinates for SL({m})")
    shift = (k * r) // m
    return tuple(k - shift if i < r else -shift for i in range(m))


def line_bundle_descends(k: int, r: int, m: int) -> bool:
    """Whether k*omega_r lies in the root lattice of SL(m), i.e. m | k*r."""
    if not 1 <= r <= m - 1:
        raise ValueError(f"r={r} out of range 1..{m - 1}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return (k * r) % m == 0


def minimal_semistable_w(n: int) -> tuple[IndexTuple, tuple[IndexTuple, ...]]:
    """Exhaustive scan of I(n, 2n) for the unique minimal w with w(2*omega_n) <= 0.

    Returns the minimum together with the full list of representatives
    satisfying the condition, which certifies uniqueness.  Feasible for
    n <= 6 (at most C(12, 6) = 924 tuples).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    lam = fundamental_weight_multiple(2, n, 2 * n)
    hits = []
    for values in itertools.combinations(range(1, 2 * n + 1), n):
        w = IndexTuple(values, 2 * n)
        if is_dominance_nonpositive(apply_coset_to_weight(w, lam)):
            hits.append(w)
    if not hits:
        raise RuntimeError("no semistable representative found; implementation bug")
    minima = [w for w in hits if all(leq_componentwise(w, other) for other in hits)]
    if len(minima) != 1:
        raise RuntimeError(f"minimum not unique ({len(minima)} found); implementation bug")
    return minima[0], tuple(hits)
