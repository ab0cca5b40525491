"""Benchmark of schubert-smt: three workloads through the program's own CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is loaded from src/.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1.  Diagnostic lines
(a reference loop's time, absent trace targets) come before it.  See
perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_REPEATS = 7
REFERENCE_ITERATIONS = 1_000_000
# workload: (argv, check, whether each call gets its own --seed)
CLI_WORKLOADS = {
    "verify_n5": (inputs.VERIFY_ARGV, oracle.check_verify, False),
    "generation_probe": (inputs.PROBE_ARGV, oracle.check_probe, True),
}
WORKLOADS = (*CLI_WORKLOADS, "straighten_stream")


def reference_loop_ms() -> float:
    """A fixed pure-Python loop; its time shows the machine's current speed."""
    t = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i
    return (time.perf_counter() - t) * 1000


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCHUBERT_SMT_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(argv: list[str], env: dict, stderr_path: Path) -> dict:
    """Run one child to completion; its wall time, CPU time, peak RSS and output."""
    with open(stderr_path, "ab") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        try:
            stdout = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "stdout": stdout.decode(),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024,
    }


def judge(results, check) -> tuple[int, list]:
    """The count of operations that failed (nonzero exit), and the errors of
    those that returned a wrong result.  `results` holds (exit code,
    output) pairs, the output in whatever form `check` takes."""
    failed, wrong = 0, []
    for code, output in results:
        if code != 0:
            failed += 1
            continue
        errors = check(code, output)
        if errors:
            wrong.append(errors)
    return failed, wrong


def measure_setup(workload: str, seed: int, env: dict, stderr_path: Path) -> float:
    argv = [sys.executable, str(HERE / "worker.py"), "setup", workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        res = spawn(argv, env, stderr_path)
        if res["code"] != 0:
            raise RuntimeError(f"set-up failed with exit code {res['code']}")
        times.append(res["wall_s"])
    return statistics.median(times)


def run_cli(workload, seed, seconds, trace, env, stderr_path):
    """Fresh-process CLI calls until `seconds` pass.  With trace on, calls
    alternate untraced and traced, on the same program seed per pair, and
    the run ends on a whole pair."""
    base, check, seeded = CLI_WORKLOADS[workload]
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or (trace and i % 2) or time.perf_counter() - start < seconds:
        op = inputs.op_seed(seed, i // 2 if trace else i)
        argv = base + ["--seed", str(op)] if seeded else base
        if trace and i % 2 == 1:
            res = spawn([sys.executable, str(HERE / "worker.py"), "call", *argv], env, stderr_path)
            if res["code"] == 0:
                res["trace"] = json.loads(res["stdout"])
                res["code"], res["stdout"] = res["trace"]["code"], res["trace"]["stdout"]
            traced.append(res)
        else:
            plain.append(spawn([sys.executable, "-m", "schubert_smt.cli", *argv], env, stderr_path))
        i += 1
    failed, wrong = judge(((r["code"], r["stdout"]) for r in plain + traced), check)
    return plain, traced, failed, wrong


def cli_metrics(plain: list[dict]) -> dict:
    walls = [r["wall_s"] for r in plain]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in plain), "s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "peak_rss_mib": (statistics.median(r["rss_mib"] for r in plain), "MiB"),
    }


def cli_layers(plain: list[dict], traced: list[dict]) -> tuple[dict, list, list]:
    runs = [r["trace"] for r in traced if "trace" in r]
    self_s, counts = {}, {}
    for t in runs:
        for k, v in t["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in t["counts"].items():
            counts[k] = counts.get(k, 0) + v
    metrics = tracing.layer_metrics(self_s, counts, len(runs), sum(t["op_cpu_s"] for t in runs))
    if runs:
        metrics["process.import_s"] = (statistics.median(t["import_s"] for t in runs), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain),
            "s",
        )
    else:  # every traced call failed; the failures are counted
        metrics["process.import_s"] = metrics["trace.overhead_s"] = (0.0, "s")
    spans = [[i, *s] for i, t in enumerate(runs) for s in t["spans"]]
    absent = sorted({a for t in runs for a in t["absent"]})
    return metrics, spans, absent


def run_stream(seed, seconds, trace, env, out_dir, stderr_path):
    outfile = out_dir / f"stream-{seed}-{int(trace)}.jsonl"
    argv = [sys.executable, str(HERE / "worker.py"), "stream", str(seed), str(seconds), str(int(trace)), str(outfile)]
    res = spawn(argv, env, stderr_path)
    if res["code"] != 0:
        raise RuntimeError(f"stream worker failed with exit code {res['code']}")
    summary = json.loads(res["stdout"])
    with open(outfile, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    outfile.unlink()
    rounds, points = {}, {}

    def check(code, rec):
        if rec["round"] not in rounds:
            rounds[rec["round"]] = inputs.stream_round(seed, rec["round"])
        req = rounds[rec["round"]][rec["index"]]
        if req["bound"] not in points:
            points[req["bound"]] = oracle.SchubertPoints(req["bound"], seed)
        return oracle.check_straighten(req, code, rec["stdout"], points[req["bound"]], rec["seed"])

    failed, wrong = judge(((rec["code"], rec) for rec in records), check)
    return res, summary, len(records), failed, wrong


def stream_metrics(res: dict, summary: dict) -> dict:
    plain = summary["rounds"]["plain"]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in plain), "s"),
        "op_s_p50": (statistics.median(summary["op_s"]), "s"),
        "peak_rss_mib": (res["rss_mib"], "MiB"),
    }


def stream_layers(summary: dict) -> tuple[dict, list, list]:
    size = summary["round_size"]
    traced = summary["rounds"]["traced"]
    ops = len(traced) * size
    metrics = tracing.layer_metrics(summary["self_s"], summary["counts"], ops, summary["op_cpu_s"])
    metrics["process.import_s"] = (summary["import_s"], "s")
    plain_wall = statistics.median(r["wall_s"] for r in summary["rounds"]["plain"])
    metrics["trace.overhead_s"] = ((statistics.median(r["wall_s"] for r in traced) - plain_wall) / size, "s")
    return metrics, [[0, *s] for s in summary["spans"]], summary["absent"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "schubert_smt" / "cli.py").is_file():
        print(f"error: no program source under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stderr_path = out_dir / f"stderr-{args.workload}-{args.seed}.log"
    stderr_path.unlink(missing_ok=True)
    env = child_env(root)
    trace = bool(args.trace)

    ref_before = reference_loop_ms()
    setup_s = measure_setup(args.workload, args.seed, env, stderr_path)
    if args.workload == "straighten_stream":
        res, summary, attempted, failed, wrong = run_stream(args.seed, args.seconds, trace, env, out_dir, stderr_path)
        if trace:
            metrics, spans, absent = stream_layers(summary)
        else:
            metrics = stream_metrics(res, summary)
            p90 = statistics.quantiles(summary["op_s"], n=10, method="inclusive")[8]
            print(f"request time p90: {p90:.6f} s over "
                  f"{len(summary['op_s'])} requests (diagnostic only)")
    else:
        plain, traced, failed, wrong = run_cli(args.workload, args.seed, args.seconds, trace, env, stderr_path)
        attempted = len(plain) + len(traced)
        if trace:
            metrics, spans, absent = cli_layers(plain, traced)
        else:
            metrics = cli_metrics(plain)
    ref_after = reference_loop_ms()

    if trace:
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "fields": ["operation", "id", "parent", "name", "thread", "start", "end"],
            "spans": spans,
        }))
        print(f"trace: {len(spans)} spans written to {trace_path.relative_to(root)}")
        if absent:
            print(f"trace: absent targets reported as 0: {', '.join(absent)}")
    else:
        metrics["setup_s"] = (setup_s, "s")
    if stderr_path.stat().st_size == 0:
        stderr_path.unlink()
    else:
        print(f"stderr of the children: {stderr_path.relative_to(root)}")
    print(f"reference loop: {ref_before:.1f} ms before, {ref_after:.1f} ms after "
          f"({REFERENCE_ITERATIONS} iterations; diagnostic only)")
    for errors in wrong[:5]:
        print(f"wrong: {'; '.join(errors[:3])}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
