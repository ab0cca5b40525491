"""Graded pieces of torus-invariant section rings on Schubert varieties.

The degree-k piece R_k on X(w), w in I(r, 2r), is spanned by the
standard monomials with 2k rows of length r, bounded by w, in which
every value 1..2r occurs exactly k times.  All probes below reduce to
exact linear algebra in these coordinates.  The engine works on the
monomials and builds a `Tableau` only for output and for straightening.
"""

from bisect import bisect_left

from ._record import Record
from .lattice import IndexTuple
from .linalg import IntRowSpan
from .plucker import (
    Monomial,
    PluckerPolynomial,
    _standard_basis,
    rows_are_standard,
    straighten,
)
from .tableaux import Tableau, count_standard, is_standard, is_torus_invariant


class BasisMismatchError(RuntimeError):
    """A straightened product left the expected invariant basis; since
    weight and standardness are preserved, this signals a bug."""


def _tableau(rows: Monomial, n: int) -> Tableau:
    return Tableau(tuple(IndexTuple(row, n) for row in rows))


class GradedPieceBasis(Record):
    """Basis of R_k on X(w): its standard monomials in canonical order.

    `monomials` is the tuple that the standard-basis cache holds.  The
    canonical order is the sorted order, so `position` bisects it.
    Iteration yields each element as a new `Tableau`.
    """

    __slots__ = ("w", "k", "monomials")
    w: IndexTuple
    k: int
    monomials: tuple[Monomial, ...]

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return (_tableau(rows, self.w.n) for rows in self.monomials)

    def position(self, rows: Monomial) -> int:
        i = bisect_left(self.monomials, rows)
        if self.monomials[i:i + 1] != (rows,):
            raise BasisMismatchError(f"monomial {rows} is not in the invariant basis")
        return i


class NormalityReport(Record):
    __slots__ = (
        "w",
        "degree",
        "dim_lower_products",
        "dim_graded_piece",
        "spanned",
        "cokernel_witnesses",
    )
    w: IndexTuple
    degree: int
    dim_lower_products: int
    dim_graded_piece: int
    spanned: bool
    cokernel_witnesses: tuple[Tableau, ...]

    @property
    def cokernel_dim(self) -> int:
        return self.dim_graded_piece - self.dim_lower_products

    def to_dict(self) -> dict:
        return {
            "w": list(self.w.values),
            "degree": self.degree,
            "dim_lower_products": self.dim_lower_products,
            "dim_graded_piece": self.dim_graded_piece,
            "spanned": self.spanned,
            "cokernel_dim": self.cokernel_dim,
            "cokernel_witnesses": [
                [list(row) for row in t.row_values()] for t in self.cokernel_witnesses
            ],
        }


class GenerationReport(Record):
    __slots__ = ("degree", "dim_graded_piece", "dim_generated", "spanned")
    degree: int
    dim_graded_piece: int
    dim_generated: int
    spanned: bool

    @property
    def cokernel_dim(self) -> int:
        return self.dim_graded_piece - self.dim_generated

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "dim_graded_piece": self.dim_graded_piece,
            "dim_generated": self.dim_generated,
            "spanned": self.spanned,
            "cokernel_dim": self.cokernel_dim,
        }


class SemistableReport(Record):
    __slots__ = ("w", "found", "witness", "degree", "cap")
    w: IndexTuple
    found: bool
    witness: Tableau | None
    degree: int | None
    cap: int

    def to_dict(self) -> dict:
        return {
            "w": list(self.w.values),
            "found": self.found,
            "witness": [list(row) for row in self.witness.row_values()] if self.witness else None,
            "degree": self.degree,
            "cap": self.cap,
        }


def invariant_basis(w: IndexTuple, k: int) -> GradedPieceBasis:
    """Basis of the degree-k invariants on X(w): constant content k, 2k rows.

    The basis holds the very tuple of monomials that the standard-basis
    cache of straightening holds, so each basis is enumerated once per
    process and no call builds a tableau.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    if w.n != 2 * w.r:
        raise ValueError(f"invariants of the doubled weight need n = 2r, got ({w.r}, {w.n})")
    return GradedPieceBasis(w, k, _standard_basis(w, (k,) * w.n))


def tableau_monomial(t: Tableau) -> PluckerPolynomial:
    return PluckerPolynomial.monomial(t.row_values(), t.n)


def multiply_to_coordinates(
    a: Tableau, b: Tableau, target: GradedPieceBasis, seed=0
) -> list[int]:
    """Coordinates of the product a.b in the target invariant basis."""
    for t in (a, b):
        if not is_standard(t, target.w):
            raise ValueError(f"{t} is not standard on X({target.w})")
        if not is_torus_invariant(t):
            raise ValueError(f"{t} is not torus invariant")
    if len(a.rows) + len(b.rows) != 2 * target.k:
        raise ValueError("degrees do not sum to the target degree")
    product = tableau_monomial(a) * tableau_monomial(b)
    expanded = straighten(product, target.w, seed=seed)
    coords = [0] * len(target)
    for rows, c in expanded.terms.items():
        coords[target.position(rows)] = c
    return coords


# A product given as its terms (c, a, b): the sum of c.a.b over basis monomials.
Product = list[tuple[int, Monomial, Monomial]]


def _span_of_products(products: list[Product], target: GradedPieceBasis, seed) -> IntRowSpan:
    """Span of the given products in the coordinates of the target R_d.

    A product of two basis monomials whose merged rows are a standard
    chain below w is itself a basis element (standard monomial theory),
    so every product made only of such terms goes in first, with no
    straightening.  The other products follow, and only while the rank
    is below dim R_d, which it cannot exceed; their non-standard terms
    are straightened on demand, each distinct monomial once per call.
    """
    dim = len(target)
    n, bound = target.w.n, target.w.values
    straightened: dict[Monomial, list[int]] = {}

    def vector(merged) -> list[int]:
        vec = [0] * dim
        for c, rows, factors in merged:
            if factors is None:
                vec[target.position(rows)] += c
                continue
            if rows not in straightened:
                a, b = (_tableau(f, n) for f in factors)
                straightened[rows] = multiply_to_coordinates(a, b, target, seed=seed)
            vec = [x + c * y for x, y in zip(vec, straightened[rows])]
        return vec

    span = IntRowSpan(dim)
    seen: set[tuple[int, ...]] = set()
    deferred = []
    for terms in products:
        # (c, merged rows, the factors if the merged rows are not standard)
        merged = []
        for c, a, b in terms:
            rows = tuple(sorted(a + b))
            merged.append((c, rows, None if rows_are_standard(rows, bound) else (a, b)))
        if any(factors for _, _, factors in merged):
            deferred.append(merged)
            continue
        vec = vector(merged)
        key = tuple(vec)
        if key not in seen:
            seen.add(key)
            span.add(vec)
    for merged in deferred:
        if span.rank == dim:
            break
        span.add(vector(merged))
    return span


def _product_span(
    w: IndexTuple, d: int, target: GradedPieceBasis, seed
) -> IntRowSpan:
    """Span of all products R_a . R_b with a + b = d, a, b >= 1."""
    products = []
    for a in range(1, d // 2 + 1):
        b = d - a
        basis_a = invariant_basis(w, a)
        basis_b = basis_a if b == a else invariant_basis(w, b)
        for i, ma in enumerate(basis_a.monomials):
            start = i if a == b else 0
            products.extend([(1, ma, mb)] for mb in basis_b.monomials[start:])
    return _span_of_products(products, target, seed)


def normality_probe(w: IndexTuple, d: int, seed=0) -> NormalityReport:
    """Is R_d spanned by products of lower graded pieces?

    For d = 2 this is exactly the degree-one generation obstruction of
    the polarised quotient.  Witnesses are the basis elements outside
    the product span.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    target = invariant_basis(w, d)
    span = _product_span(w, d, target, seed)
    spanned = span.rank == len(target)
    witnesses = []
    if not spanned:
        for pos, rows in enumerate(target.monomials):
            unit = [0] * len(target)
            unit[pos] = 1
            if not span.contains(unit):
                witnesses.append(_tableau(rows, w.n))
    return NormalityReport(
        w=w,
        degree=d,
        dim_lower_products=span.rank,
        dim_graded_piece=len(target),
        spanned=spanned,
        cokernel_witnesses=tuple(witnesses),
    )


# A generated piece T_d as a list of elements, each a list of
# (coefficient, basis monomial) terms.
Piece = list[list[tuple[int, Monomial]]]


def _whole_piece(basis: GradedPieceBasis) -> Piece:
    return [[(1, m)] for m in basis.monomials]


def _generated_span(
    generated: dict[int, Piece], bases: dict[int, GradedPieceBasis], d: int, seed
) -> IntRowSpan:
    """Span of T_d = T_{d-1}.R_1 + T_{d-2}.R_2 (the second for d >= 4) in R_d."""
    pieces = [(d - 1, 1)] + ([(d - 2, 2)] if d >= 4 else [])
    products = [
        [(c, ma, mb) for c, ma in element]
        for a, b in pieces
        for element in generated[a]
        for mb in bases[b].monomials
    ]
    return _span_of_products(products, bases[d], seed)


def generation_degree_probe(w: IndexTuple, k_max: int, seed=0) -> list[GenerationReport]:
    """Check degree by degree that degree <= 2 elements generate.

    T_1, T_2 are the full graded pieces; for d >= 3 the generated piece
    is T_d = T_{d-1}.R_1 + T_{d-2}.R_2, and the report records whether
    it equals R_d.  A piece equal to R_d is carried to the next degree
    as the basis monomials, any other as integer rows of its span.
    """
    if k_max < 3:
        raise ValueError("k_max must be >= 3")
    bases = {d: invariant_basis(w, d) for d in range(1, k_max + 1)}
    generated = {d: _whole_piece(bases[d]) for d in (1, 2)}
    reports = []
    for d in range(3, k_max + 1):
        target = bases[d]
        span = _generated_span(generated, bases, d, seed)
        spanned = span.rank == len(target)
        generated[d] = (
            _whole_piece(target)
            if spanned
            else [[(c, m) for c, m in zip(row, target.monomials) if c] for row in span.rows()]
        )
        reports.append(
            GenerationReport(
                degree=d,
                dim_graded_piece=len(target),
                dim_generated=span.rank,
                spanned=spanned,
            )
        )
    return reports


def hilbert_series(w: IndexTuple, k_max: int) -> list[int]:
    """[dim R_1, ..., dim R_{k_max}], each counted without listing its basis."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if w.n != 2 * w.r:
        raise ValueError(f"invariants of the doubled weight need n = 2r, got ({w.r}, {w.n})")
    return [
        count_standard(2 * k, w.r, w.n, bound=w, content=(k,) * w.n)
        for k in range(1, k_max + 1)
    ]


def semistable_nonempty(w: IndexTuple, cap: int = 2) -> SemistableReport:
    """Constructive semistability certificate: a nonzero invariant section
    of degree <= cap, when one exists.  A negative answer is only
    'empty up to the cap', not a proof of emptiness."""
    for k in range(1, cap + 1):
        basis = invariant_basis(w, k)
        if len(basis):
            return SemistableReport(
                w=w, found=True, witness=next(iter(basis)), degree=k, cap=cap
            )
    return SemistableReport(w=w, found=False, witness=None, degree=None, cap=cap)
