"""Seeded workload inputs, built from the paper's formulas alone.

Nothing here imports the program: the Schubert representatives, the
generators and the random polynomials are written down again from their
definitions, so the inputs cannot inherit a fault of the code they test.
"""

import itertools
import random

# verify draws its interpolation points from --seed, and a few seeds make
# it fail (see CHANGES.md), so every verify_n5 call runs with the
# program's default seed, as a call without --seed does.
VERIFY_ARGV = ["verify", "--case", "all", "--n", "5", "--gate-n5", "--json"]
PROBE_K_MAX = 3
PROBE_ARGV = [
    "probe", "--w", "4,5,6", "--n2n", "6", "--mode", "generation",
    "--k-max", str(PROBE_K_MAX), "--json",
]

# One straighten_stream round: every (i, n, degree) class of random
# polynomial twice, each time with a different term count, plus
# STREAM_PRODUCTS products of two degree-one generators.  Every round has
# this mix, and every round draws fresh polynomials, so a run averages
# over thousands of inputs and its figures do not hang on a few draws.
STREAM_CLASSES = [
    (i, n, degree) for i in (3, 4, 5) for n in (3, 4) for degree in (2, 3)
]
STREAM_REPEATS = 2
STREAM_PRODUCTS = 6
MAX_TERMS = 3


def distinguished_w(i: int, n: int) -> tuple[int, ...]:
    """The i-th of the five representatives in I(n, 2n): the even prefix
    (2, 4, ..., 2n-6) followed by one of five three-entry tails."""
    prefix = tuple(range(2, 2 * n - 5, 2))
    tails = {
        1: (2 * n - 4, 2 * n - 2, 2 * n),
        2: (2 * n - 3, 2 * n - 2, 2 * n),
        3: (2 * n - 4, 2 * n - 1, 2 * n),
        4: (2 * n - 3, 2 * n - 1, 2 * n),
        5: (2 * n - 2, 2 * n - 1, 2 * n),
    }
    return prefix + tails[i]


def _odds(m: int) -> tuple[int, ...]:
    return tuple(range(1, m + 1, 2))


def _evens(m: int) -> tuple[int, ...]:
    return tuple(range(2, m + 1, 2))


def degree_one_generators(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The five degree-one invariants on X(w5) as two-row tableaux: the
    first n-2 odd values plus a pair, over the first n-3 even values plus
    a triple, the pairs and triples splitting {2n-4, ..., 2n}."""
    odd, even = _odds(2 * n - 5), _evens(2 * n - 6)
    a, b, c, d, e = range(2 * n - 4, 2 * n + 1)
    splits = [
        ((b, d), (a, c, e)),
        ((a, d), (b, c, e)),
        ((b, c), (a, d, e)),
        ((a, c), (b, d, e)),
        ((a, b), (c, d, e)),
    ]
    return [(odd + top, even + bottom) for top, bottom in splits]


def degree_two_generators(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The two degree-two invariants on X(w5) that are not products of
    degree-one invariants, as four-row tableaux."""
    odd, even = _odds(2 * n - 5), _evens(2 * n - 6)
    a, b, c, d, e = range(2 * n - 4, 2 * n + 1)
    return [
        (odd + (a, b), odd + (c, d), even + (a, c, e), even + (b, d, e)),
        (odd + (a, c), odd + (b, d), even + (a, b, e), even + (c, d, e)),
    ]


def rows_below(w: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every strictly increasing row of length len(w) lying entrywise below w."""
    return [
        row
        for row in itertools.combinations(range(1, 2 * len(w) + 1), len(w))
        if all(x <= y for x, y in zip(row, w))
    ]


def is_chain(rows) -> bool:
    """Lex-sorted rows form a standard monomial iff they weakly increase entrywise."""
    rows = sorted(rows)
    return all(all(x <= y for x, y in zip(a, b)) for a, b in zip(rows, rows[1:]))


def _document(n: int, terms) -> dict:
    return {
        "r": n,
        "n": 2 * n,
        "terms": [
            {"coeff": str(c), "monomial": [list(row) for row in rows]} for rows, c in terms
        ],
    }


def _random_polynomial(rng: random.Random, i: int, n: int, degree: int, nterms: int) -> dict:
    """nterms distinct non-standard monomials of the given degree on X(w_i)."""
    pool = rows_below(distinguished_w(i, n))
    monomials: list[tuple] = []
    while len(monomials) < nterms:
        rows = tuple(sorted(rng.choice(pool) for _ in range(degree)))
        if not is_chain(rows) and rows not in monomials:
            monomials.append(rows)
    terms = [(rows, rng.choice([-1, 1]) * rng.randint(1, 9)) for rows in monomials]
    return _document(n, terms)


def stream_round(seed: int, index: int) -> list[dict]:
    """Round `index` of a run's straighten requests: {"bound", "doc"} each."""
    rng = random.Random(f"perfbench:stream:{seed}:{index}")
    requests = []
    for repeat in range(STREAM_REPEATS):
        for k, (i, n, degree) in enumerate(STREAM_CLASSES):
            nterms = 1 + (k + repeat) % MAX_TERMS
            requests.append({
                "bound": distinguished_w(i, n),
                "doc": _random_polynomial(rng, i, n, degree, nterms),
            })
    # x2.x3 is the one non-standard product (the left side of the
    # degree-two relation); the others take the program's standard fast path.
    pairs = list(itertools.combinations_with_replacement(range(5), 2))
    for p in range(STREAM_PRODUCTS):
        n = 3 + p % 2
        a, b = (1, 2) if p < 2 else rng.choice(pairs)
        gens = degree_one_generators(n)
        requests.append({
            "bound": distinguished_w(5, n),
            "doc": _document(n, [(tuple(sorted(gens[a] + gens[b])), 1)]),
        })
    rng.shuffle(requests)
    return requests


def op_seed(bench_seed: int, index: int) -> int:
    """The program's --seed for the index-th operation of a run."""
    return bench_seed * 100_003 + index
