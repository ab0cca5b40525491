"""Correctness checks computed apart from the program.

Each check takes one operation's exit code and standard output and
returns a list of error strings, empty when the output is correct.  The
expected values come from closed forms, from the paper's formulas (via
inputs.py) and from this module's own sampler and determinant; nothing
here imports the program.
"""

import itertools
import json
import random
from math import comb

import inputs

CHECK_POINTS = 3        # points of X(w) each straighten output is evaluated at
CHECK_ENTRY_BOUND = 50  # entries of the check points lie in [-50, 50]


def _load(code: int, stdout: str) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def _as_rows(tableau) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in tableau)


# -- verify --case all --n 5 -------------------------------------------------


def expected_series(slot: int, k_max: int) -> list[int]:
    """Hilbert functions of the four small quotients: a point, two lines
    and a 3-space, each under its degree-one embedding."""
    if slot == 1:
        return [1] * k_max
    if slot in (2, 3):
        return [k + 1 for k in range(1, k_max + 1)]
    return [comb(k + 3, 3) for k in range(1, k_max + 1)]


def check_verify(code: int, stdout: str, n: int = 5, k_max: int = 3) -> list[str]:
    doc, errors = _load(code, stdout)
    if doc is None:
        return errors
    if doc.get("all_pass") is not True:
        errors.append("all_pass is not true")
    cases = {c.get("name"): c for c in doc.get("cases", [])}
    expected_names = {
        "product-relation", "exchange-identities", "non-normality",
        "quotient-dimensions", "minimal-cases",
    }
    if set(cases) != expected_names:
        return errors + [f"cases {sorted(cases)} are not the five expected"]
    for name, case in cases.items():
        if case.get("status") != "pass":
            errors.append(f"case {name} did not pass")

    lemma = cases["product-relation"]["details"]
    if lemma.get("residual_terms") != 0:
        errors.append(f"lemma residual has {lemma.get('residual_terms')} terms")

    # R_2 on X(w5) is the span of the 15 = C(6, 2) degree-two monomials in
    # the five generators, which satisfy no quadratic relation, plus one
    # class not reached by products; so 15 against 16.
    probe = cases["non-normality"]["details"].get("probe", {})
    products = comb(5 + 1, 2)
    if probe.get("dim_lower_products") != products:
        errors.append(f"theorem product span {probe.get('dim_lower_products')} != {products}")
    if probe.get("dim_graded_piece") != products + 1:
        errors.append(f"theorem graded piece {probe.get('dim_graded_piece')} != {products + 1}")
    if probe.get("spanned") is not False:
        errors.append("theorem reports the degree-two piece spanned")
    if list(probe.get("w", [])) != list(inputs.distinguished_w(5, n)):
        errors.append(f"theorem ran on w={probe.get('w')}")
    witnesses = {_as_rows(t) for t in probe.get("cokernel_witnesses", [])}
    if witnesses != set(inputs.degree_two_generators(n)):
        errors.append("theorem witnesses are not the two degree-two generators")

    slots = cases["quotient-dimensions"]["details"].get("slots", {})
    for slot in (1, 2, 3, 4):
        entry = slots.get(str(slot), {})
        if entry.get("w") != list(inputs.distinguished_w(slot, n)):
            errors.append(f"proposition slot {slot} ran on w={entry.get('w')}")
        if entry.get("series") != expected_series(slot, k_max):
            errors.append(f"proposition slot {slot} series {entry.get('series')}")

    remarks = cases["minimal-cases"]["details"]
    if remarks.get("G(1,2)", {}).get("series") != [1, 1, 1, 1]:
        errors.append("remarks G(1,2) series wrong")
    if remarks.get("G(2,4)", {}).get("series") != [2, 3, 4, 5]:
        errors.append("remarks G(2,4) series wrong")
    return errors


# -- probe --mode generation on X(4,5,6) -------------------------------------


def generated_dimension(d: int) -> int:
    """dim R_d of G(3,6)//T, a double cover of P^4: the coefficient of t^d
    in (1 + t^2) / (1 - t)^5."""
    return comb(d + 4, 4) + comb(d + 2, 4)


def check_probe(code: int, stdout: str, k_max: int = inputs.PROBE_K_MAX) -> list[str]:
    doc, errors = _load(code, stdout)
    if doc is None:
        return errors
    if doc.get("w") != [4, 5, 6]:
        errors.append(f"probe ran on w={doc.get('w')}")
    degrees = {d.get("degree"): d for d in doc.get("degrees", [])}
    if set(degrees) != set(range(3, k_max + 1)):
        return errors + [f"probe reports degrees {sorted(degrees)}"]
    for d, report in degrees.items():
        dim = generated_dimension(d)
        if report.get("spanned") is not True:
            errors.append(f"degree {d} not spanned")
        if report.get("dim_graded_piece") != dim or report.get("dim_generated") != dim:
            errors.append(
                f"degree {d}: {report.get('dim_generated')}/{report.get('dim_graded_piece')} != {dim}"
            )
    return errors


# -- straighten --------------------------------------------------------------


def _permutation_signs(r: int) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for perm in itertools.permutations(range(r)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        out.append((perm, -1 if inversions % 2 else 1))
    return out


class SchubertPoints:
    """CHECK_POINTS integer points of the cone over X(w), with a minor cache.

    Row i has a 1 in column w_i, random entries left of it and zeros
    right of it, so the row space meets each span(e_1..e_{w_i}) in
    dimension at least i, and every minor on columns not below w vanishes.
    """

    def __init__(self, w: tuple[int, ...], seed: int):
        rng = random.Random(f"perfbench:check:{seed}:{w}")
        self.w = w
        self.r = len(w)
        self.matrices = []
        for _ in range(CHECK_POINTS):
            rows = []
            for wi in w:
                row = [rng.randint(-CHECK_ENTRY_BOUND, CHECK_ENTRY_BOUND) for _ in range(wi - 1)]
                rows.append(row + [1] + [0] * (2 * self.r - wi))
            self.matrices.append(rows)
        self._signs = _permutation_signs(self.r)
        self._minors: dict[tuple[int, tuple[int, ...]], int] = {}

    def minor(self, point: int, cols: tuple[int, ...]) -> int:
        """Leibniz expansion of the r x r minor on the given (1-based) columns."""
        key = (point, cols)
        if key not in self._minors:
            m = self.matrices[point]
            total = 0
            for perm, sign in self._signs:
                term = sign
                for i, j in enumerate(perm):
                    term *= m[i][cols[j] - 1]
                    if not term:
                        break
                total += term
            self._minors[key] = total
        return self._minors[key]

    def value(self, point: int, doc: dict) -> int:
        total = 0
        for term in doc["terms"]:
            value = int(term["coeff"])
            for row in term["monomial"]:
                value *= self.minor(point, tuple(row))
            total += value
        return total


def check_straighten(
    request: dict, code: int, stdout: str, points: SchubertPoints, seed: int
) -> list[str]:
    """Output standard, below w, and equal to the input on X(w)."""
    out, errors = _load(code, stdout)
    if out is None:
        return errors
    w, doc = request["bound"], request["doc"]
    if out.get("r") != doc["r"] or out.get("n") != doc["n"]:
        errors.append(f"output lives on ({out.get('r')}, {out.get('n')})")
    if out.get("seed") != seed:
        errors.append(f"output echoes seed {out.get('seed')}, sent {seed}")
    degree = len(doc["terms"][0]["monomial"])
    for term in out.get("terms", []):
        rows = _as_rows(term.get("monomial", []))
        if len(rows) != degree or any(len(row) != len(w) for row in rows):
            errors.append(f"term {rows} has the wrong shape")
            continue
        if any(list(row) != sorted(set(row)) for row in rows):
            errors.append(f"term {rows} has a row that is not strictly increasing")
        if not inputs.is_chain(rows):
            errors.append(f"term {rows} is not standard")
        if any(any(x > y for x, y in zip(row, w)) for row in rows):
            errors.append(f"term {rows} is not below w={w}")
        if int(term.get("coeff", 0)) == 0:
            errors.append(f"term {rows} has coefficient 0")
    if errors:
        return errors
    for p in range(CHECK_POINTS):
        if points.value(p, out) != points.value(p, doc):
            errors.append(f"output differs from the input at check point {p}")
    return errors
