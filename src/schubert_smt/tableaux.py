"""Rectangular Young tableaux made of Pluecker index rows.

A tableau is a sequence of rows of equal length; each row is a strictly
increasing tuple.  Standardness is the row-chain condition (successive
rows weakly increase componentwise, optionally bounded by a Schubert
representative), which for rectangular shapes is equivalent to the
usual strict-rows / weak-columns filling condition.
"""

from ._record import Record, _set
from .lattice import IndexTuple


class Tableau(Record):
    """Row list of IndexTuples, all sharing the same (r, n).

    Enumeration builds one per output tableau, so its constructor,
    equality and hash are written out.
    """

    __slots__ = ("rows",)
    rows: tuple[IndexTuple, ...]

    def __init__(self, rows):
        rows = tuple(rows)
        if not rows:
            raise ValueError("tableau needs at least one row")
        r, n = rows[0].r, rows[0].n
        for row in rows[1:]:
            if row.r != r or row.n != n:
                raise ValueError("rows are not homogeneous in (r, n)")
        _set(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash((self.rows,))

    @property
    def r(self) -> int:
        return self.rows[0].r

    @property
    def n(self) -> int:
        return self.rows[0].n

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.r)

    def row_values(self) -> tuple[tuple[int, ...], ...]:
        return tuple(row.values for row in self.rows)

    def __str__(self):
        return "[" + " | ".join(",".join(map(str, row.values)) for row in self.rows) + "]"


def make_tableau(rows) -> Tableau:
    """Build a tableau from IndexTuple rows; standardness is not required."""
    return Tableau(tuple(rows))


def rows_are_standard(
    rows: tuple[tuple[int, ...], ...], bound_values: tuple[int, ...] | None = None
) -> bool:
    """Chain condition on rows, each a tuple of values, in the given order.

    A multiset of rows admits a standard arrangement iff its lex-sorted
    arrangement is one, so on canonically sorted monomial rows this
    decides standardness of the monomial.
    """
    for a, b in zip(rows, rows[1:]):
        if any(x > y for x, y in zip(a, b)):
            return False
    if bound_values is not None and rows:
        if any(x > y for x, y in zip(rows[-1], bound_values)):
            return False
    return True


def monomial_content(rows: tuple[tuple[int, ...], ...], n: int) -> tuple[int, ...]:
    """counts[v-1] = number of entries v among the rows, for v in 1..n."""
    counts = [0] * n
    for row in rows:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def is_standard(t: Tableau, bound: IndexTuple | None = None) -> bool:
    """Row chain tau_1 <= tau_2 <= ... <= tau_m (<= bound when given)."""
    if bound is None:
        return rows_are_standard(t.row_values())
    if bound.r != t.r or bound.n != t.n:
        raise ValueError(f"bound {bound} does not match tableau shape ({t.r},{t.n})")
    return rows_are_standard(t.row_values(), bound.values)


def content(t: Tableau) -> tuple[int, ...]:
    """counts[v-1] = number of boxes containing v, for v in 1..n."""
    return monomial_content(t.row_values(), t.n)


def is_torus_invariant(t: Tableau) -> bool:
    """All of 1..n occur equally often, i.e. the content is constant."""
    c = content(t)
    return c[0] >= 1 and all(x == c[0] for x in c)


def enumerate_standard(
    shape_rows: int,
    r: int,
    n: int,
    bound: IndexTuple | None = None,
    content: tuple[int, ...] | None = None,
) -> list[Tableau]:
    """All standard tableaux with shape_rows rows of length r over 1..n.

    Optionally bounded above by `bound` and/or constrained to an exact
    content vector.  Output is in lexicographic order on the flattened
    row sequence, which downstream code uses as the canonical basis
    order.  Backtracks row by row in chain order.  With a content, a
    partial chain is cut as soon as the remaining rows cannot absorb the
    remaining content: each remaining row lies entrywise between the last
    placed row and the bound, so for every threshold t the remaining
    boxes holding values <= t number between rows_left * #{i : bound_i <= t}
    and rows_left * #{i : prev_i <= t}.  The cut removes only branches
    that cannot complete, so the output and its order are unchanged.
    """
    if shape_rows < 1:
        raise ValueError("need at least one row")
    if not 1 <= r <= n:
        raise ValueError(f"row length {r} out of range for n={n}")
    if bound is not None and (bound.r != r or bound.n != n):
        raise ValueError("bound shape does not match (r, n)")
    target = None
    if content is not None:
        target = tuple(int(c) for c in content)
        if len(target) != n:
            raise ValueError(f"content has length {len(target)}, expected {n}")
        if any(c < 0 for c in target):
            raise ValueError("content entries must be nonnegative")
        if sum(target) != shape_rows * r:
            raise ValueError(
                f"content sums to {sum(target)}, shape holds {shape_rows * r} boxes"
            )

    bound_vals = bound.values if bound is not None else tuple(range(n - r + 1, n + 1))
    bound_le = [sum(b <= t for b in bound_vals) for t in range(n + 1)]
    used = [0] * (n + 1)
    results: list[tuple[tuple[int, ...], ...]] = []
    rows_acc: list[tuple[int, ...]] = []

    def feasible(prev: tuple[int, ...], rows_left: int) -> bool:
        if target is None:
            return True
        # Each remaining row lies entrywise between prev and the bound, so it
        # holds between bound_le[t] and prev_le entries <= t; `below` is the
        # remaining content of the values 1..t.
        below = 0
        prev_le = 0
        for t in range(1, n + 1):
            need = target[t - 1] - used[t]
            if need > rows_left:
                return False
            below += need
            while prev_le < r and prev[prev_le] <= t:
                prev_le += 1
            if not rows_left * bound_le[t] <= below <= rows_left * prev_le:
                return False
        return True

    def candidate_rows(prev: tuple[int, ...]):
        row = [0] * r

        def place(pos: int, min_val: int):
            if pos == r:
                yield tuple(row)
                return
            lo = max(min_val, prev[pos])
            for v in range(lo, bound_vals[pos] + 1):
                if target is not None and used[v] >= target[v - 1]:
                    continue
                row[pos] = v
                yield from place(pos + 1, v + 1)

        yield from place(0, 1)

    def recurse(prev: tuple[int, ...], rows_left: int):
        if rows_left == 0:
            results.append(tuple(rows_acc))
            return
        for row in candidate_rows(prev):
            for v in row:
                used[v] += 1
            rows_acc.append(row)
            if feasible(row, rows_left - 1):
                recurse(row, rows_left - 1)
            rows_acc.pop()
            for v in row:
                used[v] -= 1

    start = (0,) * r
    if feasible(start, shape_rows):
        recurse(start, shape_rows)
    return [
        Tableau(tuple(IndexTuple(vals, n) for vals in rows)) for rows in results
    ]
