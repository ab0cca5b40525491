"""The integral Pluecker coordinate ring of G(r, n).

Monomials are multisets of strictly increasing index rows, stored
lex-sorted; polynomials are sparse integer-linear combinations of
monomials, homogeneous in degree.  Evaluation realises p_tau as the
r x r minor on columns tau of an integer matrix, which gives the
determinant oracle every identity in this package is checked against.

Straightening into the standard-monomial basis is done by exact
evaluation-interpolation: enumerate the candidate standard basis of the
matching degree and content, evaluate everything at random points of
the cone over the target Schubert variety X(w), drawing more points until
the evaluation matrix has full column rank, solve the integer linear
system by fraction-free elimination (the coefficients come out as integer
numerators over one common denominator, which must divide them all),
and check the result exactly at every sample point.  The Grassmannian
itself is the top Schubert variety X(n-r+1, ..., n), so every cell
samples Schubert points.  Chained exchange-relation rewriting is
deliberately avoided.
"""

import random
from bisect import bisect_left
from functools import lru_cache

from ._record import Record
from .lattice import IndexTuple, top_element
from .linalg import GaussSolver, det_int, rank_int
from .tableaux import Monomial, Row, enumerate_standard, monomial_content, rows_are_standard

Matrix = tuple[tuple[int, ...], ...]

GENERIC_ENTRY_BOUND = 5     # generic evaluation points have entries in [-5, 5]
TRIANGULAR_ENTRY_BOUND = 3  # strictly-upper entries of Borel factors in [-3, 3]
EXTRA_SAMPLES = 8           # a cell samples B + this many points, then grows by as many


class RankDeficientError(RuntimeError):
    """The evaluation matrix of a cell stayed short of full column rank B
    at its cap of 8 (B + EXTRA_SAMPLES) sample points.  The standard
    basis is linearly independent on the variety, so this signals a bug
    or a degenerate point sampler."""


class StraighteningError(RuntimeError):
    """Internal consistency check of the straightening engine failed."""


def normalize_index(values, n: int) -> tuple[int, Row | None]:
    """Sort an index list, tracking the sign of the permutation.

    Returns (0, None) when a value repeats; rejects out-of-range values.
    """
    vals = [int(v) for v in values]
    if any(v < 1 or v > n for v in vals):
        raise ValueError(f"values {vals} out of range 1..{n}")
    # insertion sort: each value passes the placed values greater than it
    placed: list[int] = []
    sign = 1
    for v in vals:
        i = bisect_left(placed, v)
        if i < len(placed) and placed[i] == v:
            return 0, None
        if (len(placed) - i) & 1:
            sign = -sign
        placed.insert(i, v)
    return sign, tuple(placed)


def normalize_monomial(rows, n: int) -> tuple[int, Monomial | None]:
    """Sort each row, tracking signs, and then the rows: (sign, monomial).

    Rejects out-of-range values in every row, then returns (0, None) if
    a row has a repeated value.
    """
    sign = 1
    normalized = []
    for row in rows:
        s, sorted_row = normalize_index(row, n)
        sign *= s
        normalized.append(sorted_row)
    return (sign, tuple(sorted(normalized))) if sign else (0, None)


class PluckerPolynomial:
    """Sparse integer polynomial in the Pluecker coordinates of G(r, n)."""

    __slots__ = ("r", "n", "terms")

    def __init__(self, r: int, n: int, terms=None):
        self.r = int(r)
        self.n = int(n)
        clean: dict[Monomial, int] = {}
        items = terms.items() if isinstance(terms, dict) else (terms or [])
        degree = None
        for rows, coeff in items:
            coeff = int(coeff)
            if coeff == 0:
                continue
            rows = tuple(tuple(int(v) for v in row) for row in rows)
            for row in rows:
                if len(row) != self.r:
                    raise ValueError(f"row {row} has length {len(row)}, expected {self.r}")
                if any(v < 1 or v > self.n for v in row):
                    raise ValueError(f"row {row} out of range 1..{self.n}")
                if any(a >= b for a, b in zip(row, row[1:])):
                    raise ValueError(f"row {row} not strictly increasing")
            rows = tuple(sorted(rows))
            if degree is None:
                degree = len(rows)
            elif len(rows) != degree:
                raise ValueError("polynomial is not degree-homogeneous")
            clean[rows] = clean.get(rows, 0) + coeff
            if clean[rows] == 0:
                del clean[rows]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, r: int, n: int, terms: dict[Monomial, int]) -> "PluckerPolynomial":
        """Wrap terms that are already canonical: sorted rows, nonzero
        coefficients, one degree.  The dict is taken, not copied."""
        out = cls.__new__(cls)
        out.r, out.n, out.terms = r, n, terms
        return out

    @classmethod
    def zero(cls, r: int, n: int) -> "PluckerPolynomial":
        return cls._of(int(r), int(n), {})

    @classmethod
    def monomial(cls, rows, n: int, coeff: int = 1) -> "PluckerPolynomial":
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        r = len(rows[0]) if rows else 0
        return cls(r, n, {rows: coeff})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int | None:
        for rows in self.terms:
            return len(rows)
        return None

    # -- ring structure -----------------------------------------------

    def _check_compatible(self, other: "PluckerPolynomial"):
        if self.r != other.r or self.n != other.n:
            raise ValueError("polynomials live on different Grassmannians")

    def __add__(self, other: "PluckerPolynomial") -> "PluckerPolynomial":
        self._check_compatible(other)
        if not self.is_zero() and not other.is_zero() and self.degree != other.degree:
            raise ValueError("cannot add polynomials of different degrees")
        terms = dict(self.terms)
        for rows, c in other.terms.items():
            terms[rows] = terms.get(rows, 0) + c
            if terms[rows] == 0:
                del terms[rows]
        return PluckerPolynomial._of(self.r, self.n, terms)

    def __neg__(self) -> "PluckerPolynomial":
        return PluckerPolynomial._of(self.r, self.n, {rows: -c for rows, c in self.terms.items()})

    def __sub__(self, other: "PluckerPolynomial") -> "PluckerPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "PluckerPolynomial":
        if isinstance(other, int):
            terms = {rows: other * c for rows, c in self.terms.items()} if other else {}
            return PluckerPolynomial._of(self.r, self.n, terms)
        self._check_compatible(other)
        terms: dict[Monomial, int] = {}
        for rows_a, ca in self.terms.items():
            for rows_b, cb in other.terms.items():
                rows = tuple(sorted(rows_a + rows_b))
                terms[rows] = terms.get(rows, 0) + ca * cb
                if terms[rows] == 0:
                    del terms[rows]
        return PluckerPolynomial._of(self.r, self.n, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PluckerPolynomial)
            and self.r == other.r
            and self.n == other.n
            and self.terms == other.terms
        )

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for rows in sorted(self.terms):
            c = self.terms[rows]
            mono = "".join("p[" + ",".join(map(str, row)) + "]" for row in rows) or "1"
            sign = "-" if c < 0 else "+"
            mag = "" if abs(c) == 1 and rows else f"{abs(c)}*"
            parts.append(f"{sign} {mag}{mono}")
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else joined


# -- relations ---------------------------------------------------------


def plucker_relation(i_set, j_set, r: int, n: int) -> PluckerPolynomial:
    """The quadratic exchange relation attached to index sets of sizes r-1 and r+1.

    sum_h (-1)^h p_{i_1..i_{r-1} j_h} p_{j_1.. ^j_h ..j_{r+1}}, with each
    first factor sign-normalised and repeated-index terms dropped.  The
    result vanishes identically on the matrix space.
    """
    i_vals = tuple(int(v) for v in i_set)
    j_vals = tuple(int(v) for v in j_set)
    if len(i_vals) != r - 1 or len(j_vals) != r + 1:
        raise ValueError(
            f"index sets must have sizes {r - 1} and {r + 1}, got {len(i_vals)} and {len(j_vals)}"
        )
    for vals in (i_vals, j_vals):
        if any(v < 1 or v > n for v in vals):
            raise ValueError(f"values {vals} out of range 1..{n}")
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"values {vals} not strictly increasing")
    terms: dict[Monomial, int] = {}
    for h, jh in enumerate(j_vals, start=1):
        sign_h = -1 if h % 2 else 1
        s, first = normalize_index(i_vals + (jh,), n)
        if s == 0:
            continue
        second = j_vals[:h - 1] + j_vals[h:]
        rows = tuple(sorted((first, second)))
        terms[rows] = terms.get(rows, 0) + sign_h * s
    return PluckerPolynomial(r, n, terms)


# -- evaluation oracle -------------------------------------------------


class MinorTable(dict):
    """The r x r minors of one integer r x n matrix, keyed by column
    tuple and computed on first lookup.

    The table is built from the matrix's n columns, each a tuple of r
    entries, and keeps them.  A minor hands its columns to `det_int` as
    rows, uncopied: the determinant of the transpose is the same.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Matrix):
        super().__init__()
        self.columns = columns

    def __missing__(self, cols: Row) -> int:
        columns = self.columns
        value = self[cols] = det_int([columns[c - 1] for c in cols])
        return value


def monomial_value(rows: Monomial, minors: MinorTable) -> int:
    value = 1
    for row in rows:
        value *= minors[row]
        if value == 0:
            return 0
    return value


def value_at(f: PluckerPolynomial, minors: MinorTable) -> int:
    """Exact value of f at the point whose minor table is given."""
    return sum(c * monomial_value(rows, minors) for rows, c in f.terms.items())


def evaluate(f: PluckerPolynomial, matrix) -> int:
    """Exact value of f at an integer r x n matrix, given by row."""
    matrix = tuple(tuple(int(v) for v in row) for row in matrix)
    if len(matrix) != f.r or any(len(row) != f.n for row in matrix):
        raise ValueError(f"matrix is not {f.r} x {f.n}")
    return value_at(f, MinorTable(tuple(zip(*matrix))))


def restrict(f: PluckerPolynomial, w: IndexTuple) -> PluckerPolynomial:
    """Drop every term containing a row not below w; the restriction to X(w)."""
    if w.r != f.r or w.n != f.n:
        raise ValueError("Schubert representative does not match the Grassmannian")
    bound = w.values
    terms = {
        rows: c
        for rows, c in f.terms.items()
        if all(all(x <= y for x, y in zip(row, bound)) for row in rows)
    }
    return PluckerPolynomial._of(f.r, f.n, terms)


# -- random points -----------------------------------------------------


def sample_generator(w: IndexTuple, seed) -> random.Random:
    """The generator of the sample stream of X(w) for one seed."""
    return random.Random(f"schubert:{w.n}:{','.join(map(str, w.values))}:{seed}")


_ENTRIES = tuple(range(-TRIANGULAR_ENTRY_BOUND, TRIANGULAR_ENTRY_BOUND + 1))


def random_schubert_point(w: IndexTuple, rng: random.Random) -> Matrix:
    """The next point of a sample stream of X(w): an integer r x n matrix
    whose row space lies in X(w), returned as its n columns.

    Row i is column w_i of a random unit upper-triangular integer b, so
    every minor p_tau with tau not below w vanishes.  Only the w_i - 1
    entries above the diagonal are random: uniform in [-3, 3], drawn for
    all rows in one `rng.choices` call, row after row.
    """
    values, n = w.values, w.n
    entries = rng.choices(_ENTRIES, k=sum(values) - len(values))
    rows, start = [], 0
    for v in values:
        stop = start + v - 1
        rows.append(entries[start:stop] + [1] + [0] * (n - v))
        start = stop
    return tuple(zip(*rows))


def random_point(r: int, n: int, seed) -> Matrix:
    """A random full-rank integer r x n matrix with entries in [-5, 5]."""
    rng = random.Random(f"generic:{r}:{n}:{seed}")
    for _ in range(64):
        m = tuple(
            tuple(rng.randint(-GENERIC_ENTRY_BOUND, GENERIC_ENTRY_BOUND) for _ in range(n))
            for _ in range(r)
        )
        if rank_int(m) == r:
            return m
    raise RuntimeError("failed to sample a full-rank matrix")  # pragma: no cover


# -- straightening -----------------------------------------------------


class _Cell(Record):
    __slots__ = ("basis", "points", "solver")
    basis: tuple[Monomial, ...]
    points: tuple[MinorTable, ...]
    solver: GaussSolver


# The stream and cell caches hold one operation's work: no verify, probe
# or straighten call measured uses more than one stream or 3 cells, and a
# cell keeps its own points alive.  Older seeds' streams and cells leave soon.
@lru_cache(maxsize=16)
def _stream(bound: IndexTuple, seed) -> tuple[random.Random, list[MinorTable]]:
    """The sample stream of X(bound) for one seed: its generator and the
    points drawn from it so far, each with the minors computed at it."""
    return sample_generator(bound, seed), []


def _sample(bound: IndexTuple, seed, count: int) -> tuple[MinorTable, ...]:
    """The first `count` points of the (bound, seed) stream, drawing the
    ones not drawn yet."""
    rng, points = _stream(bound, seed)
    while len(points) < count:
        points.append(MinorTable(random_schubert_point(bound, rng)))
    return tuple(points[:count])


@lru_cache(maxsize=256)
def _standard_basis(bound: IndexTuple, content: tuple[int, ...]) -> tuple[Monomial, ...]:
    """The standard monomials of one weight cell of X(bound), in canonical
    (sorted) order; (r, n) come from the bound and the degree from the content."""
    degree = sum(content) // bound.r
    return tuple(enumerate_standard(degree, bound.r, bound.n, bound=bound, content=content))


@lru_cache(maxsize=16)
def _interpolation_cell(bound: IndexTuple, content: tuple[int, ...], seed) -> _Cell:
    """The sample points of one weight cell and its solver.

    Draws B + EXTRA_SAMPLES points, then EXTRA_SAMPLES more at a time
    until the solver's rows have full column rank B, up to a cap of
    8 (B + EXTRA_SAMPLES) points.  A point's row of basis values is
    computed only if the solver reads it, and it reads none past full rank.
    """
    basis = _standard_basis(bound, content)

    def rows(points):
        return ([monomial_value(b, m) for b in basis] for m in points)

    count = len(basis) + EXTRA_SAMPLES
    cap = 8 * count
    points = _sample(bound, seed, count)
    solver = GaussSolver(len(basis), rows(points))
    while not solver.ok:
        if count >= cap:
            raise RankDeficientError(
                f"rank {solver.rank} < B={len(basis)} at {count} sample points "
                f"(the cap) in the (degree={sum(content) // bound.r}, content={content}) cell"
            )
        count = min(count + EXTRA_SAMPLES, cap)
        grown = _sample(bound, seed, count)
        solver.extend(rows(grown[len(points):]))
        points = grown
    return _Cell(basis=basis, points=points, solver=solver)


def _straighten_component(
    comp: PluckerPolynomial, cont: tuple[int, ...], bound: IndexTuple, seed
) -> PluckerPolynomial:
    r, n, degree = comp.r, comp.n, comp.degree
    cell = _interpolation_cell(bound, cont, seed)
    rhs = [value_at(comp, m) for m in cell.points]
    solved = cell.solver.solve(rhs)
    if solved is not None:
        numerators, d = solved
        support = [(b, y) for b, y in zip(cell.basis, numerators) if y]
        for i, (m, v) in enumerate(zip(cell.points, rhs)):
            if sum(monomial_value(b, m) * y for b, y in support) != d * v:
                if i < cell.solver.nrows:
                    raise StraighteningError("solution fails the exact back-check; bug")
                # the rows read fix the solution, so this unread point
                # lies outside the span of the basis values
                solved = None
                break
    if solved is None:
        # at full column rank more points cannot help
        raise StraighteningError(
            f"inconsistent system at full column rank in the (degree={degree}, "
            f"content={cont}) cell; the standard basis does not span it; bug"
        )
    if any(y % d for y in numerators):
        raise StraighteningError("non-integral straightening coefficients; bug")
    return PluckerPolynomial._of(r, n, {b: y // d for b, y in support})


def straighten(
    f: PluckerPolynomial, bound: IndexTuple | None = None, seed=0
) -> PluckerPolynomial:
    """Expand f in the standard monomial basis of X(bound), by default of
    the whole Grassmannian X(top_element(f.r, f.n)).

    The output agrees with f as a function on the cone over the target
    variety; it is supported on standard monomials only.  Polynomials
    supported on several torus weights are straightened one weight cell
    at a time.  Sorting each column of a monomial whose rows lie below
    the bound gives a standard monomial of the same content, so no cell
    has an empty basis.
    """
    if bound is not None:
        f = restrict(f, bound)
    if f.is_zero() or all(rows_are_standard(rows) for rows in f.terms):
        return f
    if bound is None:
        bound = top_element(f.r, f.n)
    by_content: dict[tuple[int, ...], dict[Monomial, int]] = {}
    for rows, c in f.terms.items():
        by_content.setdefault(monomial_content(rows, f.n), {})[rows] = c
    result = PluckerPolynomial.zero(f.r, f.n)
    for cont in sorted(by_content):
        comp = PluckerPolynomial._of(f.r, f.n, by_content[cont])
        result = result + _straighten_component(comp, cont, bound, seed)
    return result
