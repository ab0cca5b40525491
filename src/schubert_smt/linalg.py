"""Small exact linear algebra kernel over the integers.

The determinant is a cofactor formula up to 5 x 5, the size of every
Pluecker minor at ranks 3 to 5, and a fraction-free (Bareiss)
elimination above.  One function, `_eliminate`, applies the same
Bareiss update to rows read one at a time: the solver runs on it and
stops reading its rows at full column rank, and so do rank and
membership (`IntRowSpan`).  Every intermediate value
is an integer, and every division is exact.
"""


def det_int(rows) -> int:
    """Determinant of a square integer matrix, given as a sequence of rows.

    Up to 5 x 5 it is a cofactor formula read off the rows without a copy;
    above that, Bareiss elimination on a copy, swept in place column by
    column.  The sweep stays apart from `_eliminate`: on 2000 minors per
    size of Schubert points, a determinant taken row at a time through it
    cost 11.9 against 7.2 us at 6 x 6 and 22.0 against 15.4 us at 8 x 8
    (CPython 3.11 on a 2-core machine).
    """
    k = len(rows)
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if k == 4:
        # Laplace expansion along the top two rows: each 2 x 2 minor on
        # columns {s, t} times the complementary minor of the bottom rows
        (a, b, c, d), (e, f, g, h), (i, j, l, m), (n, o, p, q) = rows
        return (
            (a * f - b * e) * (l * q - m * p)
            - (a * g - c * e) * (j * q - m * o)
            + (a * h - d * e) * (j * p - l * o)
            + (b * g - c * f) * (i * q - m * n)
            - (b * h - d * f) * (i * p - l * n)
            + (c * h - d * g) * (i * o - j * n)
        )
    if k == 5:
        # the same expansion: 2 x 2 minors of the top rows times 3 x 3
        # minors of the bottom rows, which expand along their first row
        (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4) = rows[:3]
        (d0, d1, d2, d3, d4), (e0, e1, e2, e3, e4) = rows[3:]
        m01, m02 = d0 * e1 - d1 * e0, d0 * e2 - d2 * e0
        m03, m04 = d0 * e3 - d3 * e0, d0 * e4 - d4 * e0
        m12, m13, m14 = d1 * e2 - d2 * e1, d1 * e3 - d3 * e1, d1 * e4 - d4 * e1
        m23, m24, m34 = d2 * e3 - d3 * e2, d2 * e4 - d4 * e2, d3 * e4 - d4 * e3
        return (
            (a0 * b1 - a1 * b0) * (c2 * m34 - c3 * m24 + c4 * m23)
            - (a0 * b2 - a2 * b0) * (c1 * m34 - c3 * m14 + c4 * m13)
            + (a0 * b3 - a3 * b0) * (c1 * m24 - c2 * m14 + c4 * m12)
            - (a0 * b4 - a4 * b0) * (c1 * m23 - c2 * m13 + c3 * m12)
            + (a1 * b2 - a2 * b1) * (c0 * m34 - c3 * m04 + c4 * m03)
            - (a1 * b3 - a3 * b1) * (c0 * m24 - c2 * m04 + c4 * m02)
            + (a1 * b4 - a4 * b1) * (c0 * m23 - c2 * m03 + c3 * m02)
            + (a2 * b3 - a3 * b2) * (c0 * m14 - c1 * m04 + c4 * m01)
            - (a2 * b4 - a4 * b2) * (c0 * m13 - c1 * m03 + c3 * m01)
            + (a3 * b4 - a4 * b3) * (c0 * m12 - c1 * m02 + c2 * m01)
        )
    if k == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if k < 2:
        return rows[0][0] if k else 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for c in range(k - 1):
        if m[c][c] == 0:
            for i in range(c + 1, k):
                if m[i][c]:
                    m[c], m[i] = m[i], m[c]
                    sign = -sign
                    break
            else:
                return 0
        p = m[c][c]
        for i in range(c + 1, k):
            mic = m[i][c]
            for j in range(c + 1, k):
                m[i][j] = (p * m[i][j] - mic * m[c][j]) // prev
            m[i][c] = 0
        prev = p
    return sign * m[k - 1][k - 1]


def rank_int(rows) -> int:
    """Rank over QQ of an integer matrix."""
    rows = list(rows)
    span = IntRowSpan(len(rows[0]) if rows else 0)
    return sum(span.add(row) for row in rows)


def _eliminate(steps, row, width: int) -> tuple[list[int], tuple[int, int, list[int]] | None]:
    """Reduce a row against pivot steps: (its multipliers, the pivot step it
    would add, or None if it reduces to zero).

    A step (q, p, tail) is a pivot row reduced by the steps before it: q is
    its pivot column's position among the columns not yet pivoted, p the
    pivot, tail its reduced entries in the columns after that.  Step t
    takes the row's entry m in column q and applies x <- (p_t * x - m * y)
    / p_{t-1} to its other entries, y those of the tail: the update of
    `det_int`, whose divisions Sylvester's identity makes exact.  A row
    left nonzero pivots on its first nonzero entry.
    """
    v = list(row)
    if len(v) != width:
        raise ValueError(f"row has length {len(v)}, expected {width}")
    mults = []
    prev = 1
    for q, p, tail in steps:
        m = v.pop(q)
        if m:
            v = [(p * x - m * y) // prev for x, y in zip(v, tail)]
        elif p != prev:
            v = [p * x // prev for x in v]
        mults.append(m)
        prev = p
    q = next((i for i, x in enumerate(v) if x), None)
    return mults, None if q is None else (q, v.pop(q), v)


class IntRowSpan:
    """Incremental row space over QQ of integer vectors of one width.

    The vectors added are reduced by `_eliminate`, the solver's
    fraction-free update, and a vector not in the span of those before it
    becomes the next pivot step.  Every division is exact, so rank and
    membership are exact.
    """

    def __init__(self, width: int):
        self.width = width
        self._steps: list[tuple[int, int, list[int]]] = []

    def add(self, vec) -> bool:
        """Insert a vector; True if the rank grew."""
        _, step = _eliminate(self._steps, vec, self.width)
        if step is None:
            return False
        self._steps.append(step)
        return True

    def contains(self, vec) -> bool:
        return _eliminate(self._steps, vec, self.width)[1] is None

    @property
    def rank(self) -> int:
        return len(self._steps)


class GaussSolver:
    """Fraction-free (Bareiss) elimination of integer rows of width B, read
    one at a time from an iterator and only until they have full column
    rank B, then replayed to solve A x = v for many right-hand sides, A
    being the rows read.

    Each row read is reduced once by `_eliminate`, against the pivot
    steps before it in their order.  A row left nonzero becomes the next
    pivot step; a row left zero lies in the span of the pivot rows, and
    `solve` checks that its right-hand side does too.  The rows are read
    lazily, so a caller that computes each row on demand computes none
    past full rank; if the iterator runs out first, `ok` stays False.
    """

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        # the pivot steps (q, p, tail) that `_eliminate` reduces against
        self._steps: list[tuple[int, int, list[int]]] = []
        # (multipliers, whether it became a pivot) of each row read, in order
        self._read: list[tuple[list[int], bool]] = []
        rows = iter(rows)
        while not self.ok and (row := next(rows, None)) is not None:
            mults, step = _eliminate(self._steps, row, ncols)
            if step is not None:
                self._steps.append(step)
            self._read.append((mults, step is not None))

    @property
    def nrows(self) -> int:
        """The number of rows read."""
        return len(self._read)

    @property
    def rank(self) -> int:
        """Rank over QQ of the rows read."""
        return len(self._steps)

    @property
    def ok(self) -> bool:
        return len(self._steps) == self.ncols

    def solve(self, rhs) -> tuple[list[int], int] | None:
        """(y, D) with x = y / D the solution of A x = rhs, rhs[i] being the
        right-hand side of the i-th row read, or None if the system is
        inconsistent; entries past the rows read are not looked at.  D is
        the last pivot; y is integral by Cramer's rule, and x is integral
        exactly when D divides every y."""
        if not self.ok:
            raise RuntimeError("solver has not reached full column rank")
        steps = self._steps
        values: list[int] = []  # the reduced right-hand sides of the pivot rows
        for i, (mults, pivot) in enumerate(self._read):
            v, prev = rhs[i], 1
            for (_, p, _), m, u in zip(steps, mults, values):
                v = (p * v - m * u) // prev
                prev = p
            if pivot:
                values.append(v)
            elif v:  # the row is in the span of the pivot rows before it, its rhs is not
                return None
        d = steps[-1][1] if steps else 1
        y: list[int] = []  # the solution on the columns after pivot t, times d
        for (q, p, tail), v in zip(reversed(steps), reversed(values)):
            y.insert(q, (d * v - sum(a * b for a, b in zip(tail, y))) // p)
        return y, d
