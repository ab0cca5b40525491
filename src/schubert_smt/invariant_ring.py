"""Graded pieces of torus-invariant section rings on Schubert varieties.

The degree-k piece R_k on X(w), w in I(r, 2r), is spanned by the
standard monomials with 2k rows of length r, bounded by w, in which
every value 1..2r occurs exactly k times.  All probes below reduce to
exact linear algebra in these coordinates.  A standard monomial is its
tuple of sorted rows throughout: bases, products, witnesses and reports
hold the tuples that enumeration returns.
"""

from bisect import bisect_left

from ._record import Record
from .lattice import IndexTuple
from .linalg import IntRowSpan
from .plucker import PluckerPolynomial, _standard_basis, straighten
from .tableaux import Monomial, count_standard, monomial_content, rows_are_standard


class BasisMismatchError(RuntimeError):
    """A straightened product left the expected invariant basis; since
    weight and standardness are preserved, this signals a bug."""


class GradedPieceBasis(Record):
    """Basis of R_k on X(w): its standard monomials in canonical order.

    `monomials` is the tuple that the standard-basis cache holds.  The
    canonical order is the sorted order, so `position` bisects it.
    Iteration yields the monomials in that order.
    """

    __slots__ = ("w", "k", "monomials")
    w: IndexTuple
    k: int
    monomials: tuple[Monomial, ...]

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

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
    cokernel_witnesses: tuple[Monomial, ...]

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
                [list(row) for row in rows] for rows in self.cokernel_witnesses
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


def invariant_basis(w: IndexTuple, k: int) -> GradedPieceBasis:
    """Basis of the degree-k invariants on X(w): constant content k, 2k rows.

    The basis holds the very tuple of monomials that the standard-basis
    cache of straightening holds, so each basis is enumerated once per
    process.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    if w.n != 2 * w.r:
        raise ValueError(f"invariants of the doubled weight need n = 2r, got ({w.r}, {w.n})")
    return GradedPieceBasis(w, k, _standard_basis(w, (k,) * w.n))


def _invariant_factor(rows: Monomial, w: IndexTuple) -> PluckerPolynomial:
    """The monomial `rows` as a polynomial, once it is checked to be a
    standard, torus-invariant monomial on X(w); ValueError otherwise.

    The polynomial's constructor rejects a row of the wrong length, a
    value outside 1..n and a row that does not strictly increase.
    """
    factor = PluckerPolynomial(w.r, w.n, [(rows, 1)])
    (canonical,) = factor.terms
    if not rows_are_standard(canonical, w.values):
        raise ValueError(f"{rows} is not standard on X({w})")
    counts = monomial_content(canonical, w.n)
    if not counts[0] or counts.count(counts[0]) != w.n:
        raise ValueError(f"{rows} is not torus invariant")
    return factor


def multiply_to_coordinates(
    a: Monomial, b: Monomial, target: GradedPieceBasis, seed=0
) -> list[int]:
    """Coordinates of the product a.b in the target invariant basis."""
    fa, fb = (_invariant_factor(rows, target.w) for rows in (a, b))
    if len(a) + len(b) != 2 * target.k:
        raise ValueError("degrees do not sum to the target degree")
    product = fa * fb
    expanded = straighten(product, target.w, seed=seed)
    coords = [0] * len(target)
    for rows, c in expanded.terms.items():
        coords[target.position(rows)] = c
    return coords


# A product given as its terms (c, a, b): the sum of c.a.b over basis monomials.
Product = list[tuple[int, Monomial, Monomial]]


def _span_of_products(
    products: list[Product], target: GradedPieceBasis, seed
) -> tuple[IntRowSpan, list[list[int]]]:
    """Span of the given products in the coordinates of the target R_d,
    and the vectors that raised its rank, in the order read: a basis.

    A product of two basis monomials whose merged rows are a standard
    chain below w is itself a basis element (standard monomial theory),
    so every product made only of such terms goes in first, with no
    straightening.  The other products follow, and only while the rank
    is below dim R_d, which it cannot exceed; their non-standard terms
    are straightened on demand, each distinct monomial once per call.
    """
    dim = len(target)
    bound = target.w.values
    straightened: dict[Monomial, list[int]] = {}

    def vector(merged) -> list[int]:
        vec = [0] * dim
        for c, rows, factors in merged:
            if factors is None:
                vec[target.position(rows)] += c
                continue
            if rows not in straightened:
                straightened[rows] = multiply_to_coordinates(*factors, target, seed=seed)
            vec = [x + c * y for x, y in zip(vec, straightened[rows])]
        return vec

    span = IntRowSpan(dim)
    basis = []
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
            if span.add(vec):
                basis.append(vec)
    for merged in deferred:
        if span.rank == dim:
            break
        vec = vector(merged)
        if span.add(vec):
            basis.append(vec)
    return span, basis


def normality_probe(w: IndexTuple, d: int, seed=0) -> NormalityReport:
    """Is R_d spanned by products of lower graded pieces?

    For d = 2 this is exactly the degree-one generation obstruction of
    the polarised quotient.  Witnesses are the basis elements outside
    the product span.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    target = invariant_basis(w, d)
    products = []  # R_a . R_b for a + b = d, a <= b
    for a in range(1, d // 2 + 1):
        b = d - a
        basis_a = invariant_basis(w, a)
        basis_b = basis_a if b == a else invariant_basis(w, b)
        for i, ma in enumerate(basis_a.monomials):
            start = i if a == b else 0
            products.extend([(1, ma, mb)] for mb in basis_b.monomials[start:])
    span, _ = _span_of_products(products, target, seed)
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


# A generated piece T_d as a list of elements, each a list of
# (coefficient, basis monomial) terms.
Piece = list[list[tuple[int, Monomial]]]


def _whole_piece(basis: GradedPieceBasis) -> Piece:
    return [[(1, m)] for m in basis.monomials]


def _generated_span(
    generated: dict[int, Piece], bases: dict[int, GradedPieceBasis], d: int, seed
) -> tuple[IntRowSpan, list[list[int]]]:
    """Span of T_d = T_{d-1}.R_1 + T_{d-2}.R_2 (the second for d >= 4) in R_d,
    and a basis of it, as `_span_of_products` returns them."""
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
    as the basis monomials; any other as the products, in coordinates of
    R_d, that raised the rank of its span, a basis of T_d.
    """
    if k_max < 3:
        raise ValueError("k_max must be >= 3")
    bases = {d: invariant_basis(w, d) for d in range(1, k_max + 1)}
    generated = {d: _whole_piece(bases[d]) for d in (1, 2)}
    reports = []
    for d in range(3, k_max + 1):
        target = bases[d]
        span, basis = _generated_span(generated, bases, d, seed)
        spanned = span.rank == len(target)
        generated[d] = (
            _whole_piece(target)
            if spanned
            else [[(c, m) for c, m in zip(row, target.monomials) if c] for row in basis]
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


def semistable_nonempty(w: IndexTuple) -> Monomial | None:
    """The first degree-one invariant on X(w), w in I(n, 2n): a witness
    that X(w) has semistable points, or None when it has none.
    Degree one decides: restriction maps R_1(X(w)) onto R_1(X(u)) for
    u <= w (the basis of R_1(X(u)) is part of that of R_1(X(w)), the rest
    vanishes), R_1(X(2, 4, ..., 2n)) holds p(1, 3, ..., 2n-1)
    p(2, 4, ..., 2n), and X(w) has semistable points exactly when
    w >= (2, 4, ..., 2n), the weight criterion that
    `minimal_semistable_w` scans.  So R_1(X(w)) != 0 for such w, and for
    any other w no invariant of positive degree is nonzero on X(w)."""
    return next(iter(invariant_basis(w, 1)), None)
