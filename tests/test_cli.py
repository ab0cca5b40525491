import io
import json
import sys
from pathlib import Path

import pytest

from schubert_smt.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILED,
    DocumentError,
    load_polynomial_document,
    main,
    save_polynomial_document,
)
from schubert_smt.plucker import PluckerPolynomial

from helpers import grew, recording_cells


GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


VIOLATING_DOC = {
    "r": 2,
    "n": 4,
    "terms": [{"coeff": "1", "monomial": [[1, 4], [2, 3]]}],
}


class TestDocuments:
    def test_load_normalizes_rows_with_sign(self):
        doc = {"r": 2, "n": 4, "terms": [{"coeff": "3", "monomial": [[4, 1], [2, 3]]}]}
        poly = load_polynomial_document(doc)
        assert poly == PluckerPolynomial.monomial(((1, 4), (2, 3)), 4, -3)

    def test_round_trip_after_normalization(self):
        doc = {"r": 2, "n": 4, "terms": [{"coeff": "2", "monomial": [[1, 3], [2, 4]]}]}
        poly = load_polynomial_document(doc)
        saved = save_polynomial_document(poly)
        assert load_polynomial_document(saved) == poly
        # normalization is idempotent
        assert save_polynomial_document(load_polynomial_document(saved)) == saved

    def test_coefficients_travel_as_strings(self):
        poly = PluckerPolynomial.monomial(((1, 2), (3, 4)), 4, 10**25)
        saved = save_polynomial_document(poly)
        assert saved["terms"][0]["coeff"] == str(10**25)
        assert load_polynomial_document(saved) == poly

    def test_rejects_malformed(self):
        with pytest.raises(DocumentError):
            load_polynomial_document({"r": 2, "terms": []})
        with pytest.raises(DocumentError):
            load_polynomial_document({"r": 2, "n": 4, "terms": [{"coeff": "x"}]})
        with pytest.raises(DocumentError):
            load_polynomial_document(
                {"r": 2, "n": 4, "terms": [{"coeff": "0", "monomial": [[1, 2], [3, 4]]}]}
            )
        with pytest.raises(DocumentError):
            load_polynomial_document(
                {"r": 2, "n": 4, "terms": [{"coeff": "1", "monomial": [[1, 2, 3]]}]}
            )


def _doc(monomial, r=3, n=6):
    return {"r": r, "n": n, "terms": [{"coeff": "1", "monomial": monomial}]}


def _coeff_doc(coeff):
    return {"r": 2, "n": 4, "terms": [{"coeff": coeff, "monomial": [[1, 4], [2, 3]]}]}


MALFORMED_DOCS = {
    "monomial_is_int": _doc(5),
    "row_is_int": _doc([5]),
    "row_is_null": _doc([[1, 2, 3], None]),
    "float_entry": _doc([[1, 2, 3.5]]),
    "bool_entry": _doc([[True, 2, 3]]),
    "no_rows": _doc([]),
    "r_zero": _doc([[]], r=0),
    "n_negative": _doc([[1, 2, 3]], n=-6),
    "r_above_n": _doc([[1, 2, 3]], n=2),
    "r_is_bool": _doc([[1]], r=True),
    "n_is_float": _doc([[1, 2, 3]], n=6.0),
    # a coefficient is a JSON integer or ASCII digits after an optional '-'
    "coeff_with_underscore": _coeff_doc("1_000"),
    "coeff_with_spaces": _coeff_doc(" 7 "),
    "coeff_in_arabic_indic_digits": _coeff_doc("\u0663"),
    "coeff_with_plus": _coeff_doc("+7"),
    "coeff_bare_minus": _coeff_doc("-"),
    "coeff_empty": _coeff_doc(""),
    "coeff_is_float": _coeff_doc(1.0),
    "coeff_is_bool": _coeff_doc(True),
}


class TestMalformedDocuments:
    """A malformed document is a DocumentError and exit 2, never exit 3
    and never a silent coercion."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
    def test_load_raises_document_error(self, name):
        with pytest.raises(DocumentError):
            load_polynomial_document(MALFORMED_DOCS[name])

    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
    def test_straighten_exits_2(self, tmp_path, capsys, name):
        path = write_doc(tmp_path, MALFORMED_DOCS[name])
        code, out, err = run_cli(capsys, ["straighten", "--input", path, "--json"])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("order", ["+A-A+B", "+A+B-A", "+B+A-A"])
    def test_mixed_degrees_exit_2_in_any_order(self, tmp_path, capsys, order):
        # the written terms decide, not what is left after A cancels
        terms = {
            "+A": {"coeff": "1", "monomial": [[1, 2], [3, 4]]},
            "-A": {"coeff": "-1", "monomial": [[1, 2], [3, 4]]},
            "+B": {"coeff": "1", "monomial": [[1, 2], [1, 3], [2, 4]]},
        }
        doc = {"r": 2, "n": 4, "terms": [terms[order[i:i + 2]] for i in (0, 2, 4)]}
        path = write_doc(tmp_path, doc)
        code, out, err = run_cli(capsys, ["straighten", "--input", path, "--json"])
        assert code == EXIT_USAGE and out == ""
        assert err == "error: document is not degree-homogeneous\n"

    @pytest.mark.parametrize("monomial", [[[1, 1], [7, 8]], [[7, 8], [1, 1]]])
    def test_out_of_range_row_exits_2_in_any_order(self, tmp_path, capsys, monomial):
        # the repeated value in [1, 1] makes the term zero, but only after
        # every row is checked against 1..n
        path = write_doc(tmp_path, _doc(monomial, r=2, n=4))
        code, out, err = run_cli(capsys, ["straighten", "--input", path, "--json"])
        assert code == EXIT_USAGE and out == ""
        assert err == "error: values [7, 8] out of range 1..4\n"

    @pytest.mark.parametrize("coeff", [-3, "-3", "-003"])
    def test_integer_and_decimal_string_coefficients_load_alike(self, coeff):
        poly = load_polynomial_document(_coeff_doc(coeff))
        assert poly == PluckerPolynomial.monomial(((1, 4), (2, 3)), 4, -3)

    def test_well_formed_neighbour_loads(self):
        poly = load_polynomial_document(_doc([[3, 2, 1], [4, 5, 6]]))
        assert poly == PluckerPolynomial.monomial(((1, 2, 3), (4, 5, 6)), 6, -1)


class TestBigCoefficients:
    """Coefficients past the interpreter's default 4300-digit limit on
    int <-> str conversion load, straighten and save exactly.  The
    documents are written as text, so no conversion happens in the test."""

    @staticmethod
    def straighten_json(tmp_path, capsys, terms):
        path = tmp_path / "big.json"
        path.write_text('{"r": 2, "n": 4, "terms": [' + ", ".join(
            f'{{"coeff": {coeff}, "monomial": {monomial}}}' for coeff, monomial in terms
        ) + "]}")
        code, out, err = run_cli(capsys, ["straighten", "--input", str(path), "--json"])
        assert code == EXIT_OK, err
        return json.loads(out)["terms"]

    @pytest.mark.parametrize("quoted", [True, False], ids=["string", "json-integer"])
    def test_5000_digits_load_and_save(self, tmp_path, capsys, quoted):
        digits = "7" * 5000
        coeff = f'"{digits}"' if quoted else digits
        terms = self.straighten_json(tmp_path, capsys, [(coeff, "[[1, 2], [3, 4]]")])
        assert terms == [{"coeff": digits, "monomial": [[1, 2], [3, 4]]}]

    def test_straightening_carries_to_4301_digits(self, tmp_path, capsys):
        # p14 p23 = p13 p24 - p12 p34, so c.p14 p23 + c.p13 p24 has a
        # coefficient 2c, one digit longer than c
        c = "9" * 4300
        terms = self.straighten_json(
            tmp_path, capsys, [(f'"{c}"', "[[1, 4], [2, 3]]"), (f'"{c}"', "[[1, 3], [2, 4]]")]
        )
        assert terms == [
            {"coeff": "-" + c, "monomial": [[1, 2], [3, 4]]},
            {"coeff": "1" + "9" * 4299 + "8", "monomial": [[1, 3], [2, 4]]},
        ]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_the_caller_keeps_its_digit_limit(self, tmp_path, capsys):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            self.test_straightening_carries_to_4301_digits(tmp_path, capsys)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(before)


class TestStraightenCommand:
    def test_three_term_rewrite(self, tmp_path, capsys):
        path = write_doc(tmp_path, VIOLATING_DOC)
        code, out, _ = run_cli(capsys, ["straighten", "--input", path, "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["terms"] == [
            {"coeff": "-1", "monomial": [[1, 2], [3, 4]]},
            {"coeff": "1", "monomial": [[1, 3], [2, 4]]},
        ]
        assert payload["seed"] == 0

    def test_standard_document_is_unchanged(self, tmp_path, capsys):
        doc = {
            "r": 2,
            "n": 4,
            "terms": [{"coeff": "5", "monomial": [[1, 2], [3, 4]]}],
        }
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["straighten", "--input", path, "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["terms"] == doc["terms"]

    def test_bounded_expansion_of_the_product_relation(self, tmp_path, capsys):
        doc = {
            "r": 3,
            "n": 6,
            "terms": [
                {
                    "coeff": "1",
                    "monomial": [[1, 2, 5], [1, 3, 4], [2, 5, 6], [3, 4, 6]],
                }
            ],
        }
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(
            capsys,
            ["straighten", "--input", path, "--bound", "4,5,6", "--n2n", "6", "--json"],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["terms"]) == 8
        assert all(t["coeff"] in ("1", "-1") for t in payload["terms"])

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["straighten", "--input", str(path)])
        assert code == EXIT_USAGE and "error" in err

    def test_bad_document_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"r": 2, "n": 4, "terms": "nope"})
        code, _, err = run_cli(capsys, ["straighten", "--input", str(path)])
        assert code == EXIT_USAGE and "error" in err

    def test_n2n_without_bound_exits_2(self, tmp_path, capsys):
        # --n2n only sets the ambient rank of --bound, so alone it is a usage error
        path = write_doc(tmp_path, VIOLATING_DOC)
        code, out, err = run_cli(capsys, ["straighten", "--input", path, "--n2n", "4"])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "--bound" in err

    def test_bound_shape_mismatch_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, VIOLATING_DOC)
        code, _, err = run_cli(
            capsys, ["straighten", "--input", path, "--bound", "4,5,6", "--n2n", "6"]
        )
        assert code == EXIT_USAGE and "error" in err

    def test_out_file(self, tmp_path, capsys):
        path = write_doc(tmp_path, VIOLATING_DOC)
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys,
            ["straighten", "--input", path, "--json", "--out", str(out_path)],
        )
        assert code == EXIT_OK and out == ""
        assert json.loads(out_path.read_text())["terms"]

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, VIOLATING_DOC)
        _, out1, _ = run_cli(capsys, ["straighten", "--input", path, "--json"])
        _, out2, _ = run_cli(capsys, ["straighten", "--input", path, "--json"])
        assert out1 == out2

    def test_json_output_renders_no_text(self, tmp_path, capsys, monkeypatch):
        rendered = []
        text = PluckerPolynomial.__str__
        monkeypatch.setattr(
            PluckerPolynomial, "__str__", lambda f: rendered.append(f) or text(f)
        )
        path = write_doc(tmp_path, VIOLATING_DOC)
        code, out, _ = run_cli(capsys, ["straighten", "--input", path, "--json"])
        assert code == EXIT_OK and json.loads(out)["terms"] and not rendered
        code, out, _ = run_cli(capsys, ["straighten", "--input", path])
        assert code == EXIT_OK and out == "- p[1,2]p[3,4] + p[1,3]p[2,4]\n" and len(rendered) == 1


class TestUnreadableInputAndUnwritableOutput:
    """An input that cannot be read, decoded or parsed for its depth, or an
    output that cannot be written, is an input error: exit 2 with
    "error: ..."."""

    @pytest.mark.parametrize(
        "case",
        ["missing_input", "input_is_a_directory", "out_is_a_directory", "undecodable_input"],
    )
    def test_exits_2(self, tmp_path, capsys, case):
        undecodable = tmp_path / "undecodable.json"
        undecodable.write_bytes(b"\xff\xfe")
        argv = {
            "missing_input": ["straighten", "--input", str(tmp_path / "absent.json")],
            "input_is_a_directory": ["straighten", "--input", str(tmp_path)],
            "out_is_a_directory": ["verify", "--case", "remarks", "--out", str(tmp_path)],
            "undecodable_input": ["straighten", "--input", str(undecodable)],
        }[case]
        code, _, err = run_cli(capsys, argv)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "internal error" not in err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_deeply_nested_document_exits_2(self, tmp_path, capsys, monkeypatch, source):
        # json.loads gives up on it with a RecursionError, not a JSONDecodeError
        deep = "[" * 100_000 + "]" * 100_000
        if source == "file":
            path = tmp_path / "deep.json"
            path.write_text(deep)
            argv = ["straighten", "--input", str(path)]
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(deep))
            argv = ["straighten", "--input", "-"]
        code, _, err = run_cli(capsys, argv)
        assert code == EXIT_USAGE
        assert err.startswith("error: invalid JSON") and "internal error" not in err

    def test_undecodable_stdin_exits_2(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, _, err = run_cli(capsys, ["straighten", "--input", "-"])
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot read stdin")


class TestBasisCommand:
    def test_degree_one_invariants_on_the_big_variety(self, capsys):
        code, out, _ = run_cli(
            capsys, ["basis", "--w", "4,5,6", "--n2n", "6", "--k", "1", "--invariant"]
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "count: 5"

    def test_default_ambient_rank_doubles(self, capsys):
        code, out, _ = run_cli(capsys, ["basis", "--w", "2,4,6", "--k", "2", "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["n"] == 6 and payload["count"] == 1

    def test_content_obstructed_cell_is_empty(self, capsys):
        code, out, _ = run_cli(capsys, ["basis", "--w", "1,2,3", "--k", "1", "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["count"] == 0

    def test_all_flag_lifts_the_invariance_constraint(self, capsys):
        code, out, _ = run_cli(
            capsys, ["basis", "--w", "3,4", "--n2n", "4", "--k", "1", "--all", "--json"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["count"] == 20

    @pytest.mark.parametrize("which", ["--invariant", "--all"])
    def test_text_lists_the_json_rows(self, capsys, which):
        argv = ["basis", "--w", "3,4", "--n2n", "4", "--k", "1", which]
        _, text, _ = run_cli(capsys, argv)
        _, out, _ = run_cli(capsys, argv + ["--json"])
        rows = json.loads(out)["tableaux"]
        assert text.splitlines() == [f"count: {len(rows)}"] + [
            "[" + " | ".join(",".join(map(str, row)) for row in monomial) + "]"
            for monomial in rows
        ]

    def test_bad_tuple_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["basis", "--w", "3,1", "--k", "1"])
        assert code == EXIT_USAGE and "error" in err


class TestVerifyCommand:
    def test_all_cases_pass_at_rank_three(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--case", "all", "--n", "3", "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["all_pass"]
        assert len(payload["cases"]) == 5
        assert payload["seed"] == 0

    def test_single_case_at_rank_four(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--case", "theorem", "--n", "4", "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        witnesses = payload["cases"][0]["details"]["probe"]["cokernel_witnesses"]
        assert len(witnesses) == 2

    def test_rank_two_theorem_is_consistent(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--case", "theorem", "--n", "2", "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["cases"][0]["details"]["probe"]["spanned"]

    def test_gate_flag_changes_nothing_at_rank_five(self, capsys):
        # --gate-n5 is still accepted, and has no effect
        argv = ["verify", "--case", "all", "--n", "5", "--json"]
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["all_pass"]
        assert run_cli(capsys, argv + ["--gate-n5"]) == (code, out, err)

    def test_gated_rank_five_lemma(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--case", "lemma", "--n", "5", "--gate-n5", "--json"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["all_pass"]

    @pytest.mark.parametrize("n, seed", [(5, 2), (6, 9)])
    def test_seeds_whose_first_sample_is_short_pass(self, capsys, monkeypatch, n, seed):
        # a cell of each call is rank-deficient at B + 8 points and grows;
        # the answers do not depend on the seed
        cells = recording_cells(monkeypatch)
        argv = ["verify", "--case", "all", "--n", str(n), "--seed", str(seed), "--json"]
        code, out, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        assert any(grew(cell) for cell in cells)
        golden = (GOLDEN / f"verify_n{n}_seed0.txt").read_text()
        assert out == golden.replace('"seed": 0', f'"seed": {seed}')

    def test_failure_exits_1(self, capsys, monkeypatch):
        import schubert_smt.verifier as verifier_mod
        from schubert_smt.verifier import VerificationReport

        def failing(seed=0):
            return VerificationReport(
                name="minimal-cases", n=None, status="fail", details={}, seed=seed
            )

        monkeypatch.setattr(verifier_mod, "verify_minimal_cases", failing)
        code, out, _ = run_cli(capsys, ["verify", "--case", "remarks", "--n", "3"])
        assert code == EXIT_VERIFICATION_FAILED
        assert "FAILURES" in out

    @pytest.mark.parametrize("case", ["lemma", "appendix", "theorem", "proposition", "remarks", "all"])
    @pytest.mark.parametrize("n", [-5, 1])
    def test_rank_below_two_exits_2(self, capsys, case, n):
        # `remarks` ignores n, and echoed a negative rank with a pass
        code, out, err = run_cli(capsys, ["verify", "--case", case, "--n", str(n), "--json"])
        assert (code, out) == (EXIT_USAGE, "")
        assert "need n >= 2" in err

    def test_bad_case_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "--case", "bogus", "--n", "3"])
        assert code == EXIT_USAGE


class TestProbeCommand:
    def test_normality_probe_reports_the_obstruction(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["probe", "--w", "4,5,6", "--n2n", "6", "--degree", "2", "--mode", "normality", "--json"],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["spanned"] is False
        assert len(payload["cokernel_witnesses"]) == 2

    def test_normality_probe_spanned_slot(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["probe", "--w", "3,5,6", "--n2n", "6", "--degree", "2", "--json"],
        )
        assert code == EXIT_OK
        assert json.loads(out)["spanned"] is True

    def test_generation_probe(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["probe", "--w", "4,5,6", "--n2n", "6", "--mode", "generation", "--k-max", "4", "--json"],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(d["spanned"] for d in payload["degrees"])

    def test_generation_probe_at_rank_five(self, capsys):
        # exited 3 while the probe straightened every product
        code, out, _ = run_cli(
            capsys,
            ["probe", "--w", "2,4,8,9,10", "--mode", "generation", "--k-max", "3", "--seed", "0"],
        )
        assert code == EXIT_OK
        assert out == "degree 3: spanned=True (40/40)\n"

    def test_bad_arguments_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, ["probe", "--w", "4,5,6", "--degree", "1"])
        assert code == EXIT_USAGE
        code, _, _ = run_cli(capsys, ["probe", "--w", "6,5,4"])
        assert code == EXIT_USAGE

    def test_usage_error_on_unknown_flag(self, capsys):
        assert main(["probe", "--nonsense"]) == EXIT_USAGE


class TestCallsInOneProcess:
    """main() reuses one parser; no option of one call carries into the next."""

    def test_json_call_then_text_call(self, tmp_path, capsys):
        path = write_doc(tmp_path, VIOLATING_DOC)
        code, out, _ = run_cli(capsys, ["straighten", "--input", path, "--json", "--seed", "3"])
        assert code == EXIT_OK and json.loads(out)["seed"] == 3
        code, out, _ = run_cli(capsys, ["straighten", "--input", path])
        assert code == EXIT_OK
        assert out == "- p[1,2]p[3,4] + p[1,3]p[2,4]\n"
        code, out, _ = run_cli(capsys, ["straighten", "--input", path, "--json"])
        assert code == EXIT_OK and json.loads(out)["seed"] == 0

    def test_usage_error_then_valid_call(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--case", "bogus", "--n", "3"])
        assert code == EXIT_USAGE and "invalid choice" in err
        code, _, _ = run_cli(capsys, ["probe", "--nonsense"])
        assert code == EXIT_USAGE
        code, out, err = run_cli(capsys, ["verify", "--case", "remarks", "--n", "3"])
        assert code == EXIT_OK and err == ""
        assert out == "minimal-cases (n=-): pass\nall cases passed\n"

    def test_out_file_is_not_reused(self, tmp_path, capsys):
        path = write_doc(tmp_path, VIOLATING_DOC)
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, ["straighten", "--input", path, "--json", "--out", str(out_path)]
        )
        assert code == EXIT_OK and out == ""
        written = out_path.read_text()
        code, out, _ = run_cli(capsys, ["basis", "--w", "4,5,6", "--n2n", "6", "--json"])
        assert code == EXIT_OK and json.loads(out)["count"] == 5
        assert out_path.read_text() == written
