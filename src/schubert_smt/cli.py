"""Command-line front end: straightening, basis enumeration, span probes,
and the bundled verification suite.

JSON is the single wire format; coefficients travel as decimal strings
so fixtures stay unambiguous across languages.  Exit codes: 0 success
or all checks passed, 1 verification failure, 2 usage or input error
(a DocumentError or any other ValueError), 3 internal error (any other
exception).  The subcommands raise; `main` alone maps an exception to
its exit code.

Every call is a fresh process, often without `__pycache__`, so it
compiles what it imports.  `invariant_ring` and `verifier` are therefore
imported inside the handlers that call them: `straighten` and
`basis --all` load neither, and `probe` loads no `verifier`.
"""

import argparse
import json
import sys
from functools import lru_cache

from . import CASE_NAMES
from .lattice import IndexTuple
from .plucker import PluckerPolynomial, normalize_monomial, straighten
from .tableaux import enumerate_standard

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class DocumentError(ValueError):
    pass


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coefficient(value) -> int:
    """A JSON integer, or a string of ASCII digits with an optional leading '-'."""
    if _is_json_int(value):
        return value
    digits = value[1:] if isinstance(value, str) and value.startswith("-") else value
    if not (isinstance(digits, str) and digits.isascii() and digits.isdigit()):
        raise ValueError(f"coefficient {value!r} is not an integer or a decimal string")
    return int(value)


def load_polynomial_document(doc: dict) -> PluckerPolynomial:
    """Parse {"r", "n", "terms": [{"coeff", "monomial"}]}; rows may arrive
    unsorted and are sign-normalised on load.

    r and n are JSON integers with 1 <= r <= n, a coefficient is a JSON
    integer or a string of ASCII digits with an optional leading '-', and
    a monomial is a nonempty list of rows, each a list of r JSON integers
    (no bool, no float).  The written terms must all have one degree,
    whatever their order and even if some cancel.  Anything else raises
    DocumentError.
    """
    try:
        r, n, terms = doc["r"], doc["n"], doc["terms"]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed polynomial document: {exc}") from exc
    if not (_is_json_int(r) and _is_json_int(n) and 1 <= r <= n):
        raise DocumentError(f"'r' and 'n' must be integers with 1 <= r <= n, got {r!r} and {n!r}")
    if not isinstance(terms, list):
        raise DocumentError("'terms' must be a list")
    collected: dict[tuple, int] = {}
    degrees = set()
    for term in terms:
        try:
            coeff = _coefficient(term["coeff"])
            rows = term["monomial"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"malformed term {term!r}: {exc}") from exc
        if coeff == 0:
            raise DocumentError("zero coefficients are not allowed in documents")
        if not (
            isinstance(rows, list)
            and rows
            and all(
                isinstance(row, list) and len(row) == r and all(map(_is_json_int, row))
                for row in rows
            )
        ):
            raise DocumentError(
                f"monomial {rows!r} must be a nonempty list of rows of {r} integers"
            )
        degrees.add(len(rows))
        if len(degrees) > 1:
            raise DocumentError("document is not degree-homogeneous")
        try:
            sign, key = normalize_monomial(rows, n)
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
        if sign:  # a repeated index in a row makes the term zero
            collected[key] = collected.get(key, 0) + sign * coeff
    return PluckerPolynomial._of(r, n, {key: c for key, c in collected.items() if c})


def save_polynomial_document(poly: PluckerPolynomial) -> dict:
    return {
        "r": poly.r,
        "n": poly.n,
        "terms": [
            {
                "coeff": str(poly.terms[rows]),
                "monomial": [list(row) for row in rows],
            }
            for rows in sorted(poly.terms)
        ],
    }


def _parse_w(text: str, n2n: int | None) -> IndexTuple:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise DocumentError(f"cannot parse index tuple {text!r}") from exc
    return IndexTuple(values, n2n if n2n is not None else 2 * len(values))


def _emit(payload: dict, text_lines: list[str], args) -> None:
    out = json.dumps(payload, indent=2) if args.json else "\n".join(text_lines)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise DocumentError(f"cannot write {args.out}: {exc}") from exc
    else:
        print(out)


def _read_document(path: str):
    """The parsed JSON of an input document, from a file or from stdin for '-'."""
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        source = "stdin" if path == "-" else path
        raise DocumentError(f"cannot read {source}: {exc}") from exc
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:  # the second: nested too deeply
        raise DocumentError(f"invalid JSON: {exc}") from exc


def _cmd_straighten(args) -> int:
    if args.n2n is not None and not args.bound:
        raise ValueError("--n2n is the ambient rank of --bound, and no --bound is given")
    poly = load_polynomial_document(_read_document(args.input))
    bound = _parse_w(args.bound, args.n2n) if args.bound else None
    result = straighten(poly, bound, seed=args.seed)
    payload = save_polynomial_document(result)
    payload["seed"] = args.seed
    _emit(payload, [] if args.json else [str(result)], args)
    return EXIT_OK


def _format_monomial(rows) -> str:
    """A monomial's rows as text, such as [1,3,5 | 2,4,6]."""
    return "[" + " | ".join(",".join(map(str, row)) for row in rows) + "]"


def _cmd_basis(args) -> int:
    w = _parse_w(args.w, args.n2n)
    if args.invariant:
        from .invariant_ring import invariant_basis

        monomials = invariant_basis(w, args.k).monomials
    else:
        monomials = enumerate_standard(2 * args.k, w.r, w.n, bound=w)
    payload = {
        "w": list(w.values),
        "n": w.n,
        "k": args.k,
        "invariant_only": bool(args.invariant),
        "count": len(monomials),
        "tableaux": [[list(row) for row in rows] for rows in monomials],
    }
    lines = [f"count: {len(monomials)}"] + [_format_monomial(rows) for rows in monomials]
    _emit(payload, lines, args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verifier import run_cases

    reports = run_cases(args.case, args.n, seed=args.seed, k_max=args.k_max)
    all_pass = all(r.passed for r in reports)
    payload = {
        "n": args.n,
        "seed": args.seed,
        "all_pass": all_pass,
        "cases": [r.to_dict() for r in reports],
    }
    lines = [
        f"{r.name} (n={r.n if r.n is not None else '-'}): {r.status}" for r in reports
    ]
    lines.append("all cases passed" if all_pass else "FAILURES present")
    _emit(payload, lines, args)
    return EXIT_OK if all_pass else EXIT_VERIFICATION_FAILED


def _cmd_probe(args) -> int:
    from .invariant_ring import generation_degree_probe, normality_probe

    w = _parse_w(args.w, args.n2n)
    if args.mode == "normality":
        report = normality_probe(w, args.degree, seed=args.seed)
        payload = report.to_dict()
        lines = [
            f"w={w} degree={args.degree}: "
            f"spanned={report.spanned} rank={report.dim_lower_products} "
            f"dim={report.dim_graded_piece} witnesses={len(report.cokernel_witnesses)}"
        ]
    else:
        reports = generation_degree_probe(w, args.k_max, seed=args.seed)
        payload = {"w": list(w.values), "degrees": [r.to_dict() for r in reports]}
        lines = [
            f"degree {r.degree}: spanned={r.spanned} "
            f"({r.dim_generated}/{r.dim_graded_piece})"
            for r in reports
        ]
    payload["seed"] = args.seed
    _emit(payload, lines, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert-smt",
        description="Exact standard-monomial computations on Grassmannian "
        "Schubert varieties and their torus quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("straighten", help="expand a polynomial document in the standard basis")
    p.add_argument("--input", default="-", help="JSON document path, or - for stdin")
    p.add_argument("--bound", help="Schubert representative, comma separated")
    p.add_argument("--n2n", type=int, help="ambient rank of --bound, which it needs (default: 2*len)")
    common(p)

    p = sub.add_parser("basis", help="enumerate a graded-piece basis")
    p.add_argument("--w", required=True, help="Schubert representative, comma separated")
    p.add_argument("--n2n", type=int, help="ambient rank (default: 2*len(w))")
    p.add_argument("--k", type=int, default=1, help="degree of the graded piece")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--invariant", action="store_true", default=True)
    group.add_argument("--all", dest="invariant", action="store_false",
                       help="all standard tableaux of the shape, not only invariants")
    common(p)

    p = sub.add_parser("verify", help="run the bundled verification suite")
    p.add_argument("--case", default="all", choices=CASE_NAMES + ("all",))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k-max", type=int, default=3, dest="k_max")
    p.add_argument("--gate-n5", action="store_true",
                   help="no effect; every rank runs without it")
    common(p)

    p = sub.add_parser("probe", help="span probes on a Schubert quotient")
    p.add_argument("--w", required=True)
    p.add_argument("--n2n", type=int)
    p.add_argument("--mode", choices=("normality", "generation"), default="normality")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--k-max", type=int, default=3, dest="k_max")
    common(p)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was, so one instance serves every call
    return build_parser()


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)  # lift the 4300-digit int<->str limit for this call only
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        handlers = {
            "straighten": _cmd_straighten,
            "basis": _cmd_basis,
            "verify": _cmd_verify,
            "probe": _cmd_probe,
        }
        try:
            return handlers[args.command](args)
        except ValueError as exc:  # a DocumentError, or an argument the engine rejects
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except Exception as exc:  # keep the exit-code contract for unexpected failures
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
