"""Value semantics of the package's immutable classes, and an import that
loads no `dataclasses`."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import schubert_smt
from schubert_smt.invariant_ring import (
    GenerationReport,
    GradedPieceBasis,
    NormalityReport,
    invariant_basis,
)
from schubert_smt.lattice import IndexTuple, distinguished_w
from schubert_smt.plucker import _Cell
from schubert_smt.verifier import QuotientGenerators, VerificationReport, build_generators

W5 = distinguished_w(5, 3)
M1 = ((1, 3, 5), (2, 4, 6))
M2 = ((1, 2, 3), (4, 5, 6))
BASIS = invariant_basis(W5, 1)
GENS = build_generators(3)

# class: (field names, field values, the same with one field changed)
CASES = {
    IndexTuple: (("values", "n"), ((2, 4, 6), 6), ((2, 4, 5), 6)),
    _Cell: (("basis", "points", "solver"), ((M1,), (), None), ((M2,), (), None)),
    GradedPieceBasis: (
        ("w", "k", "monomials"),
        (W5, 1, BASIS.monomials),
        (W5, 2, BASIS.monomials),
    ),
    NormalityReport: (
        ("w", "degree", "dim_lower_products", "dim_graded_piece", "spanned", "cokernel_witnesses"),
        (W5, 2, 15, 16, False, (M1, M2)),
        (W5, 2, 15, 16, False, (M1,)),
    ),
    GenerationReport: (
        ("degree", "dim_graded_piece", "dim_generated", "spanned"),
        (3, 40, 40, True),
        (3, 40, 39, False),
    ),
    VerificationReport: (
        ("name", "n", "status", "details", "seed"),
        ("minimal-cases", None, "pass", {"G(1,2)": {"series": [1, 1]}}, 0),
        ("minimal-cases", None, "fail", {"G(1,2)": {"series": [1, 1]}}, 0),
    ),
    QuotientGenerators: (("deg1", "deg2"), (GENS.deg1, GENS.deg2), (GENS.deg1, ())),
}
UNHASHABLE = {VerificationReport}  # its details are a dict

classes = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def build(cls, which=1):
    return cls(*CASES[cls][which])


@classes
class TestValueSemantics:
    def test_positional_and_keyword_construction_agree(self, cls):
        names, values, _ = CASES[cls]
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        assert by_position == by_keyword
        for name, value in zip(names, values):
            assert getattr(by_keyword, name) == value

    def test_equality_is_by_value_within_a_class(self, cls):
        a, b, other = build(cls), build(cls), build(cls, 2)
        assert a is not b and a == b and not a != b
        assert a != other
        assert a != tuple(CASES[cls][1])
        for different in CASES:
            if different is not cls:
                assert a != build(different)

    def test_equal_objects_hash_equal(self, cls):
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(build(cls))
        else:
            assert hash(build(cls)) == hash(build(cls))
            assert len({build(cls), build(cls), build(cls, 2)}) == 2

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        obj = build(cls)
        for name in CASES[cls][0]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert obj == build(cls)

    def test_repr_names_every_field(self, cls):
        names, values, _ = CASES[cls]
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(build(cls)) == f"{cls.__qualname__}({fields})"

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_trips_return_an_equal_object(self, cls, round_trip):
        obj = build(cls)
        copied = round_trip(obj)
        assert type(copied) is cls and copied == obj

    def test_missing_or_unknown_arguments_raise(self, cls):
        names, values, _ = CASES[cls]
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values[:-1], bogus=None)


def test_reprs_read_like_the_constructor_call():
    assert repr(IndexTuple((2, 4, 6), 6)) == "IndexTuple(values=(2, 4, 6), n=6)"
    assert repr(GenerationReport(3, 40, 40, True)) == (
        "GenerationReport(degree=3, dim_graded_piece=40, dim_generated=40, spanned=True)"
    )


def test_validation_still_runs_on_construction():
    with pytest.raises(ValueError):
        IndexTuple((3, 2), 6)


def test_copied_basis_still_finds_positions():
    copied = copy.deepcopy(BASIS)
    assert [copied.position(rows) for rows in copied] == list(range(len(BASIS)))


def test_importing_the_cli_loads_no_dataclasses():
    # every CLI call is a fresh process, so the import is on every call's path
    src = str(Path(schubert_smt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, schubert_smt.cli; "
        "print(','.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == ""


# The package imports nothing, and each CLI handler imports what it
# calls, so no call compiles a module it does not run.

PROBE_ARGV = ["probe", "--w", "4,5,6", "--n2n", "6", "--mode", "generation", "--k-max", "3"]
STRAIGHTEN_DOC = '{"r": 2, "n": 4, "terms": [{"coeff": "1", "monomial": [[1, 4], [2, 3]]}]}'
LAZY_MODULES = ("schubert_smt.invariant_ring", "schubert_smt.verifier")


def _python(*args, stdin=None):
    src = str(Path(schubert_smt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *args], env=env, input=stdin, capture_output=True, text=True
    )


def _cli_imports(argv, stdin=None) -> set[str]:
    """The modules that `python -m schubert_smt.cli ARGV` imports."""
    done = _python("-X", "importtime", "-m", "schubert_smt.cli", *argv, stdin=stdin)
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


def test_probe_loads_no_verifier():
    imported = _cli_imports(PROBE_ARGV)
    assert "schubert_smt.invariant_ring" in imported
    assert "schubert_smt.verifier" not in imported


def test_straighten_loads_neither_invariant_ring_nor_verifier():
    imported = _cli_imports(["straighten", "--json"], stdin=STRAIGHTEN_DOC)
    assert "schubert_smt.plucker" in imported
    assert not imported & set(LAZY_MODULES)


def test_importing_the_package_loads_no_module_of_it():
    code = "import sys, schubert_smt; print([m for m in sys.modules if m.startswith('schubert_smt.')])"
    done = _python("-c", code)
    assert (done.returncode, done.stdout.strip()) == (0, "[]"), done.stderr


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        schubert_smt.no_such_name
    assert not hasattr(schubert_smt, "verify_everything")


def test_verify_case_choices_need_no_verifier():
    done = _python("-m", "schubert_smt.cli", "verify", "--case", "bogus")
    assert done.returncode == 2 and "invalid choice" in done.stderr
    done = _python("-m", "schubert_smt.cli", "verify", "--help")
    assert done.returncode == 0
    assert "{lemma,appendix,theorem,proposition,remarks,all}" in done.stdout
