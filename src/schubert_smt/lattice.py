"""Index-tuple combinatorics for the Grassmannian quotient order.

Minimal coset representatives are stored as strictly increasing tuples
(the one-line notation restricted to the first r values).
"""

from operator import lt

from ._record import Record, _set


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
