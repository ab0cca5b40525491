"""Shared independent oracles for the test suite.

Everything here recomputes expected values by a route different from the
implementation under test: brute-force enumeration over all row
multisets, the row-by-row backtracker that enumeration used before it
walked horizontal strips, the Schubert-point sampler drawn entry by
entry, simple-reflection action on value sets, the weight criterion for
semistability as prefix sums, function-level rank computations straight
from the determinant oracle, and span probes that straighten every
product and run on their own rational row span.
`recording_cells` and `grew` let a test check that the cells it relies on
really grew, and `cell_stream` says which drawn points a cell reads.
"""

import functools
import itertools
import math
from fractions import Fraction

from schubert_smt import plucker
from schubert_smt.invariant_ring import (
    GenerationReport,
    NormalityReport,
    invariant_basis,
    multiply_to_coordinates,
)
from schubert_smt.plucker import MinorTable, random_schubert_point, sample_generator, value_at


def brute_force_standard(shape_rows, r, n, bound=None, content=None):
    """All standard tableaux by filtering every multiset of rows."""
    all_rows = list(itertools.combinations(range(1, n + 1), r))
    out = []
    for rows in itertools.combinations_with_replacement(all_rows, shape_rows):
        chain = all(
            all(x <= y for x, y in zip(a, b)) for a, b in zip(rows, rows[1:])
        )
        if not chain:
            continue
        if bound is not None and not all(
            x <= y for x, y in zip(rows[-1], bound)
        ):
            continue
        if content is not None:
            counts = [0] * n
            for row in rows:
                for v in row:
                    counts[v - 1] += 1
            if tuple(counts) != tuple(content):
                continue
        out.append(rows)
    out.sort()
    return out


def reference_enumerate_standard(shape_rows, r, n, bound=None, content=None):
    """`enumerate_standard` as a row-by-row backtracker, as rows.

    It places the rows in chain order and, with a content, cuts a partial
    chain as soon as the remaining rows cannot absorb the remaining
    content: each remaining row lies entrywise between the last placed
    row and the bound, so for every threshold t the remaining boxes
    holding values <= t number between rows_left * #{i : bound_i <= t}
    and rows_left * #{i : prev_i <= t}.  Output is in the same
    flattened-lex order, with no sort.  `bound` is a tuple of values.
    """
    bound_vals = tuple(bound) if bound is not None else tuple(range(n - r + 1, n + 1))
    target = tuple(content) if content is not None else None
    bound_le = [sum(b <= t for b in bound_vals) for t in range(n + 1)]
    used = [0] * (n + 1)
    results = []
    rows_acc = []

    def feasible(prev, rows_left):
        if target is None:
            return True
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

    def candidate_rows(prev):
        row = [0] * r

        def place(pos, min_val):
            if pos == r:
                yield tuple(row)
                return
            for v in range(max(min_val, prev[pos]), bound_vals[pos] + 1):
                if target is not None and used[v] >= target[v - 1]:
                    continue
                row[pos] = v
                yield from place(pos + 1, v + 1)

        yield from place(0, 1)

    def recurse(prev, rows_left):
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
    return results


def apply_simple_reflection(values, i):
    """Left action of the value swap i <-> i+1 on a one-line value set."""
    swapped = [i + 1 if v == i else i if v == i + 1 else v for v in values]
    return tuple(sorted(swapped))


def weight_criterion(w):
    """Whether w(2 omega_n) <= 0 in dominance order, for w in I(n, 2n).

    In epsilon coordinates 2 omega_n minus its mean is (1, ..., 1, -1,
    ..., -1), n of each, and w puts the +1s at w_1, ..., w_n and the -1s
    at the other values.  The total is 0, so w(2 omega_n) <= 0 exactly
    when no prefix sum over the values 1..t is positive.
    """
    ups = set(w.values)
    steps = (1 if t in ups else -1 for t in range(1, w.n + 1))
    return all(s <= 0 for s in itertools.accumulate(steps))


def fraction_rank(rows):
    """Plain rational row reduction; independent of the package's kernel."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class FractionRowSpan:
    """Incremental row space over QQ by plain rational elimination;
    independent of the package's kernel.

    Each vector added is reduced against the echelon rows before it, in
    the order they were kept; a vector left nonzero is scaled to 1 at its
    first nonzero entry and kept.  `basis` records the vectors added that
    raised the rank, as given, in the order added.
    """

    def __init__(self):
        self._echelon = []  # (pivot column, reduced row with a 1 there)
        self.basis = []

    def _reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for col, row in self._echelon:
            if v[col]:
                f = v[col]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        v = self._reduce(vec)
        col = next((j for j, x in enumerate(v) if x), None)
        if col is None:
            return False
        self._echelon.append((col, [x / v[col] for x in v]))
        self.basis.append(list(vec))
        return True

    def contains(self, vec):
        return not any(self._reduce(vec))

    @property
    def rank(self):
        return len(self.basis)


def fraction_solve(matrix, rhs):
    """One solution of A x = rhs by plain rational Gauss-Jordan elimination,
    with free variables set to zero; None if the system is inconsistent."""
    ncols = len(matrix[0]) if matrix else 0
    m = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(matrix, rhs)]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
    if any(row[-1] for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(m, pivots):
        x[col] = row[-1]
    return x


def fraction_det(matrix):
    """Determinant by rational elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def leibniz_det(matrix):
    """Determinant as the signed sum over all permutations."""
    k = len(matrix)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(
            1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j]
        )
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def reference_schubert_point(w, rng):
    """The next Schubert point of a sample stream, drawn entry by entry.

    b is unit upper triangular; for each value c of w in order, its
    entries b[0][c-1], ..., b[c-2][c-1] are the next draws of
    floor(7 * rng.random()) - 3.  Returns the r x n matrix with rows
    b.e_{w(i)} by row; the package's sampler must return its columns and
    leave the generator in the same state."""
    n = w.n
    b = [[int(l == c) for c in range(n)] for l in range(n)]
    for c in w.values:
        for l in range(c - 1):
            b[l][c - 1] = math.floor(7 * rng.random()) - 3
    return tuple(tuple(b[l][c - 1] for l in range(n)) for c in w.values)


def schubert_points(w, seed_tag, n_points):
    """The first points of the (w, seed_tag) sample stream, as minor tables."""
    rng = sample_generator(w, seed_tag)
    return [MinorTable(random_schubert_point(w, rng)) for _ in range(n_points)]


def function_rank(polys, w, n_points, seed_tag):
    """Rank of a family of polynomials as functions on the cone over X(w),
    via evaluation at random points only (no straightening involved)."""
    points = schubert_points(w, seed_tag, n_points)
    matrix = [[value_at(p, m) for m in points] for p in polys]
    return fraction_rank(matrix)


def recording_cells(monkeypatch):
    """A list that receives every interpolation cell straightening uses."""
    cells = []
    build = plucker._interpolation_cell
    monkeypatch.setattr(
        plucker, "_interpolation_cell", lambda *args: cells.append(build(*args)) or cells[-1]
    )
    return cells


def grew(cell):
    """Whether a cell's solver read more than B + EXTRA_SAMPLES points."""
    return cell.solver.nrows > len(cell.basis) + plucker.EXTRA_SAMPLES


@functools.lru_cache(maxsize=None)
def first_degree_one_invariant(bound):
    """The first standard monomial of content (1, ..., 1) below the bound,
    by brute force, or None if there is none."""
    first = brute_force_standard(2, bound.r, bound.n, bound.values, (1,) * bound.n)
    return first[0] if first else None


def cell_stream(bound, content, seed):
    """The points of the (bound, seed) stream drawn so far that a cell of
    this content reads: all of them, or for an invariant cell (n = 2r and
    every value equally often) of a bound with a degree-one invariant only
    those at which the first one is nonzero."""
    drawn = plucker._stream(bound, seed)[1]
    first = first_degree_one_invariant(bound) if 2 * bound.r == bound.n else None
    if first is None or len(set(content)) != 1:
        return list(drawn)
    return [m for m in drawn if m[first[0]] * m[first[1]]]


def reference_normality_probe(w, d, seed=0):
    """`normality_probe` with every product R_a . R_b straightened."""
    target = invariant_basis(w, d)
    span = FractionRowSpan()
    for a in range(1, d // 2 + 1):
        b = d - a
        basis_a = invariant_basis(w, a)
        basis_b = basis_a if b == a else invariant_basis(w, b)
        for i, ma in enumerate(basis_a.monomials):
            start = i if a == b else 0
            for mb in basis_b.monomials[start:]:
                span.add(multiply_to_coordinates(ma, mb, target, seed=seed))
    spanned = span.rank == len(target)
    witnesses = []
    if not spanned:
        for pos, rows in enumerate(target.monomials):
            unit = [0] * len(target)
            unit[pos] = 1
            if not span.contains(unit):
                witnesses.append(rows)
    return NormalityReport(
        w=w,
        degree=d,
        dim_lower_products=span.rank,
        dim_graded_piece=len(target),
        spanned=spanned,
        cokernel_witnesses=tuple(witnesses),
    )


def reference_generation_probe(w, k_max, seed=0):
    """`generation_degree_probe` from eager tables of every straightened
    product of two basis monomials, with each generated piece carried
    as the integer rows of its span."""
    bases = {d: invariant_basis(w, d) for d in range(1, k_max + 1)}
    tables = {}

    def table(a, b):
        if (a, b) not in tables:
            tables[(a, b)] = {
                (i, j): multiply_to_coordinates(ma, mb, bases[a + b], seed=seed)
                for i, ma in enumerate(bases[a].monomials)
                for j, mb in enumerate(bases[b].monomials)
            }
        return tables[(a, b)]

    generated = {
        d: [[int(i == j) for j in range(len(bases[d]))] for i in range(len(bases[d]))]
        for d in (1, 2)
    }
    reports = []
    for d in range(3, k_max + 1):
        dim = len(bases[d])
        span = FractionRowSpan()
        pieces = [(d - 1, 1)] + ([(d - 2, 2)] if d >= 4 else [])
        for a, b in pieces:
            mult = table(a, b)
            for vec in generated[a]:
                for j in range(len(bases[b])):
                    out = [0] * dim
                    for i, vi in enumerate(vec):
                        if vi:
                            out = [x + vi * y for x, y in zip(out, mult[(i, j)])]
                    span.add(out)
        generated[d] = span.basis
        reports.append(
            GenerationReport(
                degree=d, dim_graded_piece=dim, dim_generated=span.rank, spanned=span.rank == dim
            )
        )
    return reports
