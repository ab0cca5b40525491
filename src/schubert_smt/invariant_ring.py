"""Graded pieces of torus-invariant section rings on Schubert varieties.

The degree-k piece R_k on X(w), w in I(r, 2r), is spanned by the
standard tableaux with 2k rows of length r, bounded by w, in which
every value 1..2r occurs exactly k times.  All probes below reduce to
exact linear algebra in these coordinates.
"""

from dataclasses import dataclass, field

from .lattice import IndexTuple
from .linalg import IntRowSpan
from .plucker import Monomial, PluckerPolynomial, straighten
from .tableaux import Tableau, enumerate_standard, is_standard, is_torus_invariant


class BasisMismatchError(RuntimeError):
    """A straightened product left the expected invariant basis; since
    weight and standardness are preserved, this signals a bug."""


@dataclass(frozen=True)
class GradedPieceBasis:
    """Canonical-ordered basis of R_k on X(w), with coordinate lookup."""

    w: IndexTuple
    k: int
    tableaux: tuple[Tableau, ...]
    index: dict[Monomial, int] = field(compare=False)

    def __len__(self):
        return len(self.tableaux)

    def __iter__(self):
        return iter(self.tableaux)

    def position(self, rows: Monomial) -> int:
        if rows not in self.index:
            raise BasisMismatchError(f"monomial {rows} is not in the invariant basis")
        return self.index[rows]


@dataclass(frozen=True)
class NormalityReport:
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


@dataclass(frozen=True)
class GenerationReport:
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


@dataclass(frozen=True)
class SemistableReport:
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
    """Basis of the degree-k invariants on X(w): constant content k, 2k rows."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    if w.n != 2 * w.r:
        raise ValueError(f"invariants of the doubled weight need n = 2r, got ({w.r}, {w.n})")
    tableaux = tuple(
        enumerate_standard(2 * k, w.r, w.n, bound=w, content=(k,) * w.n)
    )
    index = {t.row_values(): i for i, t in enumerate(tableaux)}
    return GradedPieceBasis(w=w, k=k, tableaux=tableaux, index=index)


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


def _product_span(
    w: IndexTuple, d: int, target: GradedPieceBasis, seed
) -> IntRowSpan:
    """Span of all products R_a . R_b with a + b = d, a, b >= 1."""
    span = IntRowSpan(len(target))
    for a in range(1, d // 2 + 1):
        b = d - a
        basis_a = invariant_basis(w, a)
        basis_b = basis_a if b == a else invariant_basis(w, b)
        for i, ta in enumerate(basis_a):
            start = i if a == b else 0
            for tb in list(basis_b)[start:]:
                span.add(multiply_to_coordinates(ta, tb, target, seed=seed))
    return span


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
        for pos, t in enumerate(target):
            unit = [0] * len(target)
            unit[pos] = 1
            if not span.contains(unit):
                witnesses.append(t)
    return NormalityReport(
        w=w,
        degree=d,
        dim_lower_products=span.rank,
        dim_graded_piece=len(target),
        spanned=spanned,
        cokernel_witnesses=tuple(witnesses),
    )


def generation_degree_probe(w: IndexTuple, k_max: int, seed=0) -> list[GenerationReport]:
    """Check degree by degree that degree <= 2 elements generate.

    T_1, T_2 are the full graded pieces; for d >= 3 the generated piece
    is T_d = T_{d-1}.R_1 + T_{d-2}.R_2, and the report records whether
    it equals R_d.
    """
    if k_max < 3:
        raise ValueError("k_max must be >= 3")
    bases = {d: invariant_basis(w, d) for d in range(1, k_max + 1)}
    tables: dict[tuple[int, int], dict[tuple[int, int], list[int]]] = {}

    def table(a: int, b: int) -> dict[tuple[int, int], list[int]]:
        if (a, b) not in tables:
            entries = {}
            for i, ta in enumerate(bases[a]):
                for j, tb in enumerate(bases[b]):
                    if a == b and (j, i) in entries:
                        entries[(i, j)] = entries[(j, i)]
                        continue
                    entries[(i, j)] = multiply_to_coordinates(
                        ta, tb, bases[a + b], seed=seed
                    )
            tables[(a, b)] = entries
        return tables[(a, b)]

    # spanning integer rows of the generated subspace, per degree
    generated: dict[int, list[list[int]]] = {}
    for d in (1, 2):
        if d <= k_max:
            dim = len(bases[d])
            generated[d] = [
                [1 if i == j else 0 for j in range(dim)] for i in range(dim)
            ]

    reports = []
    for d in range(3, k_max + 1):
        dim = len(bases[d])
        span = IntRowSpan(dim)
        pieces = [(d - 1, 1)]
        if d - 2 >= 2:
            pieces.append((d - 2, 2))
        for a, b in pieces:
            mult = table(a, b)
            for vec in generated[a]:
                for j in range(len(bases[b])):
                    out = [0] * dim
                    for i, vi in enumerate(vec):
                        if vi:
                            entry = mult[(i, j)]
                            for pos in range(dim):
                                if entry[pos]:
                                    out[pos] += vi * entry[pos]
                    span.add(out)
        generated[d] = span.rows()
        reports.append(
            GenerationReport(
                degree=d,
                dim_graded_piece=dim,
                dim_generated=span.rank,
                spanned=span.rank == dim,
            )
        )
    return reports


def hilbert_series(w: IndexTuple, k_max: int) -> list[int]:
    """[dim R_1, ..., dim R_{k_max}] by basis enumeration."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return [len(invariant_basis(w, k)) for k in range(1, k_max + 1)]


def semistable_nonempty(w: IndexTuple, cap: int = 2) -> SemistableReport:
    """Constructive semistability certificate: a nonzero invariant section
    of degree <= cap, when one exists.  A negative answer is only
    'empty up to the cap', not a proof of emptiness."""
    for k in range(1, cap + 1):
        basis = invariant_basis(w, k)
        if len(basis):
            return SemistableReport(
                w=w, found=True, witness=basis.tableaux[0], degree=k, cap=cap
            )
    return SemistableReport(w=w, found=False, witness=None, degree=None, cap=cap)
