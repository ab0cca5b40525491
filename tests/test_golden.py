"""Byte-for-byte outputs of fixed-seed CLI calls.

Each `tests/golden/<name>.txt` holds the standard output of one call of
`schubert-smt`, and the straighten calls read their documents from
`tests/golden/<name>.doc.json`.  Only calls that exit 0 are pinned.  A
change meant to alter output regenerates the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from schubert_smt.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _verify(n, seed):
    return ["verify", "--case", "all", "--n", str(n), "--seed", str(seed), "--json"]


def _straighten(name, *extra):
    return ["straighten", "--input", str(GOLDEN / f"{name}.doc.json"), *extra]


CALLS = {
    "verify_n3_seed0": _verify(3, 0),
    "verify_n3_seed7": _verify(3, 7),
    "verify_n4_seed0": _verify(4, 0),
    "verify_n4_seed7": _verify(4, 7),
    "verify_n5_seed0": _verify(5, 0),
    "verify_n5_seed7": _verify(5, 7),
    "verify_n6_seed0": _verify(6, 0),
    "probe_generation_456_k3": [
        "probe", "--w", "4,5,6", "--n2n", "6", "--mode", "generation", "--k-max", "3", "--json",
    ],
    "probe_generation_456_k4": [
        "probe", "--w", "4,5,6", "--n2n", "6", "--mode", "generation", "--k-max", "4", "--json",
    ],
    # the B = 112 cell reads 117 points and keeps 120
    "probe_generation_3578_k3": [
        "probe", "--w", "3,5,7,8", "--mode", "generation", "--k-max", "3", "--json",
    ],
    "probe_normality_24678": ["probe", "--w", "2,4,6,7,8", "--mode", "normality", "--json"],
    "probe_normality_2678": ["probe", "--w", "2,6,7,8", "--mode", "normality", "--json"],
    # 55 of 58 with 6 witnesses: a span far from the unit vectors
    "probe_normality_3678": ["probe", "--w", "3,6,7,8", "--mode", "normality", "--json"],
    "basis_invariant_456_k2": ["basis", "--w", "4,5,6", "--n2n", "6", "--k", "2", "--json"],
    "basis_invariant_456_k2_text": ["basis", "--w", "4,5,6", "--n2n", "6", "--k", "2"],
    "basis_all_246_k1": ["basis", "--w", "2,4,6", "--k", "1", "--all", "--json"],
    "straighten_exchange": _straighten("straighten_exchange", "--json"),
    "straighten_product_relation": _straighten(
        "straighten_product_relation", "--bound", "4,5,6", "--n2n", "6", "--json"
    ),
    "straighten_two_weights": _straighten("straighten_two_weights", "--seed", "3"),
}


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == EXIT_OK, f"{argv} exited {code}"
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_output_is_pinned(name):
    assert run(CALLS[name]) == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in CALLS.items():
        (GOLDEN / f"{name}.txt").write_text(run(argv), encoding="utf-8")
        print(f"wrote {name}.txt", file=sys.stderr)
