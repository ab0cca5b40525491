"""Shared independent oracles for the test suite.

Everything here recomputes expected values by a route different from the
implementation under test: brute-force enumeration over all row
multisets, simple-reflection action on value sets, and function-level
rank computations straight from the determinant oracle.
"""

import itertools
import random
from fractions import Fraction

from schubert_smt import make_index_tuple, make_tableau
from schubert_smt.plucker import evaluate, random_schubert_point


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


def apply_simple_reflection(values, i):
    """Left action of the value swap i <-> i+1 on a one-line value set."""
    swapped = [i + 1 if v == i else i if v == i + 1 else v for v in values]
    return tuple(sorted(swapped))

def rows_of(t):
    return t.row_values()


def tableaux_rows(tableaux):
    return [t.row_values() for t in tableaux]


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


def reference_schubert_point(w, seed):
    """The Schubert-point sampler drawn entry by entry with rng.randint(-3, 3);
    the package's sampler must return exactly these matrices."""
    rng = random.Random(f"schubert:{w.n}:{','.join(map(str, w.values))}:{seed}")
    n = w.n
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = 1
        for j in range(i + 1, n):
            b[i][j] = rng.randint(-3, 3)
    return tuple(tuple(b[l][c - 1] for l in range(n)) for c in w.values)


def function_rank(polys, w, n_points, seed_tag):
    """Rank of a family of polynomials as functions on the cone over X(w),
    via evaluation at random points only (no straightening involved)."""
    points = [random_schubert_point(w, f"{seed_tag}:{i}") for i in range(n_points)]
    matrix = [[evaluate(p, m) for m in points] for p in polys]
    return fraction_rank(matrix)


def tab(rows, n):
    return make_tableau(make_index_tuple(row, n) for row in rows)
