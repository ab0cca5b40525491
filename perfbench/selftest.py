"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py      (from the repository root, about 15 s)

Runs one real operation of each workload, checks that its output is
accepted, then corrupts the output in several ways and checks that each
corrupted copy is rejected.  Exits 0 when every check behaves, 1 otherwise.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from run import child_env  # noqa: E402


def cli(argv: list[str], stdin: str | None = None) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "schubert_smt.cli", *argv], input=stdin,
        capture_output=True, text=True, env=child_env(Path.cwd()), timeout=120,
    )
    return proc.returncode, proc.stdout


def edited(doc: dict, edit) -> str:
    doc = copy.deepcopy(doc)
    edit(doc)
    return json.dumps(doc)


def case(doc: dict, name: str) -> dict:
    return next(c for c in doc["cases"] if c["name"] == name)["details"]


def verify_corruptions(doc):
    def witness(d):
        w = case(d, "non-normality")["probe"]["cokernel_witnesses"]
        w[0] = list(reversed(w[0]))

    return {
        "all_pass false": lambda d: d.update(all_pass=False),
        "a case failed": lambda d: d["cases"][1].update(status="fail"),
        "lemma residual": lambda d: case(d, "product-relation").update(residual_terms=1),
        "product span 16": lambda d: case(d, "non-normality")["probe"].update(dim_lower_products=16),
        "graded piece 17": lambda d: case(d, "non-normality")["probe"].update(dim_graded_piece=17),
        "wrong witness": witness,
        "one witness": lambda d: case(d, "non-normality")["probe"]["cokernel_witnesses"].pop(),
        "series slot 4": lambda d: case(d, "quotient-dimensions")["slots"]["4"].update(series=[4, 10, 21]),
        "series slot 2": lambda d: case(d, "quotient-dimensions")["slots"]["2"].update(series=[2, 3, 5]),
        "remarks G(2,4)": lambda d: case(d, "minimal-cases")["G(2,4)"].update(series=[2, 3, 4, 6]),
        "case missing": lambda d: d["cases"].pop(),
    }


def probe_corruptions(doc):
    return {
        "dim_generated one short": lambda d: d["degrees"][-1].update(
            dim_generated=d["degrees"][-1]["dim_generated"] - 1),
        "graded piece 41": lambda d: d["degrees"][0].update(dim_graded_piece=41),
        "not spanned": lambda d: d["degrees"][0].update(spanned=False),
        "degree missing": lambda d: d["degrees"].pop(),
        "other w": lambda d: d.update(w=[3, 5, 6]),
    }


def straighten_corruptions(request):
    w = request["bound"]
    n = len(w)
    top = list(range(n + 1, 2 * n + 1))
    degree = len(request["doc"]["terms"][0]["monomial"])

    def bump(d):
        d["terms"][0]["coeff"] = str(int(d["terms"][0]["coeff"]) + 1)

    def non_standard(d):
        rows = [list(range(1, n)) + [2 * n], list(range(2, n + 2))][: min(degree, 2)]
        rows += [list(range(1, n + 1))] * (degree - len(rows))
        d["terms"].append({"coeff": "1", "monomial": sorted(rows)})

    corruptions = {
        "coefficient + 1": bump,
        "term dropped": lambda d: d["terms"].pop(),
        "non-standard term": non_standard,
        "other seed": lambda d: d.update(seed=d["seed"] + 1),
    }
    if any(x > y for x, y in zip(top, w)):
        corruptions["term above w"] = lambda d: d["terms"].append(
            {"coeff": "1", "monomial": [top] * degree}
        )
    return corruptions


def main() -> int:
    bad = []

    def expect(label, errors, should_fail):
        ok = bool(errors) == should_fail
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {'rejected' if errors else 'accepted'}")
        if not ok:
            bad.append(label)

    code, out = cli(inputs.VERIFY_ARGV + ["--seed", "0"])
    expect("verify_n5 real output", oracle.check_verify(code, out), False)
    expect("verify_n5 exit code 1", oracle.check_verify(1, out), True)
    doc = json.loads(out)
    for label, edit in verify_corruptions(doc).items():
        expect(f"verify_n5 {label}", oracle.check_verify(0, edited(doc, edit)), True)

    code, out = cli(inputs.PROBE_ARGV + ["--seed", "0"])
    expect("generation_probe real output", oracle.check_probe(code, out), False)
    doc = json.loads(out)
    for label, edit in probe_corruptions(doc).items():
        expect(f"generation_probe {label}", oracle.check_probe(0, edited(doc, edit)), True)

    requests = inputs.stream_round(0, 0)
    for k in (0, 1, 2):
        request = requests[k]
        argv = ["straighten", "--bound", ",".join(map(str, request["bound"])), "--json", "--seed", str(k)]
        code, out = cli(argv, json.dumps(request["doc"]))
        points = oracle.SchubertPoints(request["bound"], 0)
        expect(f"straighten #{k} real output", oracle.check_straighten(request, code, out, points, k), False)
        doc = json.loads(out)
        for label, edit in straighten_corruptions(request).items():
            errors = oracle.check_straighten(request, 0, edited(doc, edit), points, k)
            expect(f"straighten #{k} {label}", errors, True)
    print("self-test passed" if not bad else f"self-test FAILED: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
