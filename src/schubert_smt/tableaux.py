"""Standard monomials in the Pluecker coordinates, as tuples of rows.

A monomial p_tau_1 ... p_tau_m is the tuple of its index rows, each a
strictly increasing tuple of values, in lex-sorted (canonical) order.
It is standard when its rows form a chain: successive rows weakly
increase componentwise, optionally bounded by a Schubert representative.
Read as columns, such rows form a semistandard Young tableau, so the
standard monomials of one degree are the standard tableaux of a
rectangular shape.

Standard monomials are enumerated, and counted, by adding the values
1..n one horizontal strip at a time to that tableau, with the number of
completions of each partial shape memoised per call: the walk enters
only shapes that complete, and a count never lists a monomial.
"""

from itertools import product

from .lattice import IndexTuple

Row = tuple[int, ...]
Monomial = tuple[Row, ...]  # rows in canonical (lex-sorted) order


def rows_are_standard(rows: Monomial, bound_values: Row | None = None) -> bool:
    """Chain condition on rows, each a tuple of values, in the given order.

    A multiset of rows admits a standard arrangement iff its lex-sorted
    arrangement is one, so on canonically sorted monomial rows this
    decides standardness of the monomial.  Rows are compared with `zip`,
    so their lengths are the caller's to check.
    """
    for a, b in zip(rows, rows[1:]):
        if any(x > y for x, y in zip(a, b)):
            return False
    if bound_values is not None and rows:
        if any(x > y for x, y in zip(rows[-1], bound_values)):
            return False
    return True


def monomial_content(rows: Monomial, n: int) -> tuple[int, ...]:
    """counts[v-1] = number of entries v among the rows, for v in 1..n."""
    counts = [0] * n
    for row in rows:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def _completion_table(shape_rows: int, r: int, n: int, bound, content) -> dict:
    """The strip walk's memo, filled from the empty shape (0,) * r.

    A state (v, shape) is the shape of the transposed tableau after the
    values 1..v: shape[j] counts the rows whose entry j is <= v.  The memo
    maps each state that can be reached to its number of completions and
    to the next states, one per horizontal strip of v + 1, that complete.
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

    d = shape_rows
    bound_vals = bound.values if bound is not None else tuple(range(n - r + 1, n + 1))
    table: dict[tuple[int, tuple[int, ...]], tuple[int, list[tuple[int, ...]]]] = {}
    # a post-order walk on an explicit stack, so n is not bounded by the
    # recursion limit: a state is entered with candidates None, pushes its
    # candidate next states, and is filled in once they all are
    stack = [((0, (0,) * r), None)]
    while stack:
        state, candidates = stack.pop()
        if candidates is None:
            v, shape = state
            if v == n:  # every position was filled when v passed its bound
                table[state] = (1, [])
                continue
            # a row takes v + 1 at position j only if its entry j - 1 is
            # already placed (rows strictly increase), and position j is
            # full once v + 1 reaches bound[j]; the ranges are independent
            ranges = [
                range(d if b <= v + 1 else s, hi + 1)
                for b, s, hi in zip(bound_vals, shape, (d,) + shape[:-1])
            ]
            size = None if target is None else sum(shape) + target[v]
            candidates = [
                (v + 1, nxt) for nxt in product(*ranges) if size is None or sum(nxt) == size
            ]
            stack.append((state, candidates))
            for nxt in reversed(candidates):
                if nxt not in table:
                    stack.append((nxt, None))
        else:
            total = 0
            nexts = []
            for nxt in candidates:
                count = table[nxt][0]
                if count:
                    total += count
                    nexts.append(nxt[1])
            table[state] = (total, nexts)
    return table


def count_standard(
    shape_rows: int,
    r: int,
    n: int,
    bound: IndexTuple | None = None,
    content: tuple[int, ...] | None = None,
) -> int:
    """len(enumerate_standard(...)) with the same arguments, by counting."""
    table = _completion_table(shape_rows, r, n, bound, content)
    return table[(0, (0,) * r)][0]


def enumerate_standard(
    shape_rows: int,
    r: int,
    n: int,
    bound: IndexTuple | None = None,
    content: tuple[int, ...] | None = None,
) -> list[Monomial]:
    """All standard monomials of shape_rows rows of length r over 1..n.

    Optionally bounded above by `bound` and/or constrained to an exact
    content vector.  Each monomial is a tuple of row tuples, and the
    list is sorted, which is the canonical basis order downstream.  The
    rows, read as columns, form a semistandard tableau with r rows and
    shape_rows columns; the walk adds the values 1..n to it one
    horizontal strip at a time (of size content[v-1] when a content is
    given), and enters only the states whose completion count is
    nonzero, so its cost follows the size of its output.
    """
    table = _completion_table(shape_rows, r, n, bound, content)
    rows = [[0] * r for _ in range(shape_rows)]
    results: list[Monomial] = []
    # the cells (row i, position j) that the strip of v + 1 into each next state fills
    strips = {
        (v, shape): [
            (nxt, [(i, j) for j, (s, t) in enumerate(zip(shape, nxt)) for i in range(s, t)])
            for nxt in nexts
        ]
        for (v, shape), (_, nexts) in table.items()
    }

    # one iterator over the strips of each state on the path; the one on
    # top places the value len(stack)
    stack = [iter(strips[(0, (0,) * r)])]
    while stack:
        v = len(stack)
        for nxt, cells in stack[-1]:
            for i, j in cells:
                rows[i][j] = v
            if v == n:
                results.append(tuple(map(tuple, rows)))
            else:
                stack.append(iter(strips[(v, nxt)]))
                break
        else:
            stack.pop()
    results.sort()
    return results
