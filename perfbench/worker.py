"""Child process of the benchmark: one fresh interpreter per use.

    worker.py setup WORKLOAD SEED        import the package, build inputs, exit
    worker.py call ARGV...               one traced CLI call, in-process
    worker.py stream SEED SECONDS TRACE OUTFILE
                                         the straighten_stream request loop

`call` and `stream` print one JSON object on standard output.  The
package is found through PYTHONPATH, which run.py points at src/.
"""

import contextlib
import io
import json
import sys
import time

import inputs

STREAM_MIN_ROUNDS = 4  # at least 4 x 30 = 120 requests, so p90 has 12 samples beyond it


def _setup(workload: str, seed: int) -> None:
    import schubert_smt  # noqa: F401  (the import is what is being timed)

    if workload == "straighten_stream":  # the CLI workloads' inputs are fixed argv lists
        _stream_argvs(inputs.stream_round(seed, 0), seed, 0)


def _stream_argvs(requests, seed: int, first: int) -> list[list[str]]:
    return [
        [
            "straighten", "--bound", ",".join(map(str, req["bound"])), "--json",
            "--seed", str(inputs.op_seed(seed, first + k)),
        ]
        for k, req in enumerate(requests)
    ]


def _call(argv: list[str]) -> None:
    t0 = time.perf_counter()
    import schubert_smt.cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(buf):
        code = schubert_smt.cli.main(argv)
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    tracer.uninstall()
    print(json.dumps({
        "code": code, "stdout": buf.getvalue(), "import_s": import_s,
        "op_cpu_s": cpu, "op_wall_s": wall, "absent": tracer.absent,
        "spans": tracer.spans, **tracer.totals(),
    }))


def _stream(seed: int, seconds: float, trace: bool, outfile: str) -> None:
    """Rounds of straighten requests until `seconds` have passed.

    Each round's inputs are built before its timer starts.  With trace
    on, rounds alternate untraced and traced, so the difference of their
    median round times is the tracing overhead.
    """
    t0 = time.perf_counter()
    import schubert_smt.cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer() if trace else None
    rounds = {"plain": [], "traced": []}
    op_s, traced_cpu = [], 0.0
    real_stdin = sys.stdin
    start = time.perf_counter()
    with open(outfile, "w", encoding="utf-8") as out:
        r = 0
        while r < STREAM_MIN_ROUNDS or time.perf_counter() - start < seconds:
            requests = inputs.stream_round(seed, r)
            docs = [json.dumps(req["doc"]) for req in requests]
            argvs = _stream_argvs(requests, seed, r * len(requests))
            traced = trace and r % 2 == 1
            if traced:
                tracer.install()
            results = []
            main = schubert_smt.cli.main
            wall0, cpu0 = time.perf_counter(), time.process_time()
            for doc, argv in zip(docs, argvs):
                buf = io.StringIO()
                sys.stdin = io.StringIO(doc)
                t = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = main(argv)
                op_s.append(time.perf_counter() - t)
                results.append((code, buf.getvalue()))
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
            sys.stdin = real_stdin
            if traced:
                tracer.uninstall()
                traced_cpu += cpu
            rounds["traced" if traced else "plain"].append({"wall_s": wall, "cpu_s": cpu})
            for k, (code, text) in enumerate(results):
                out.write(json.dumps({"round": r, "index": k, "seed": int(argvs[k][-1]), "code": code, "stdout": text}) + "\n")
            r += 1
    summary = {"import_s": import_s, "rounds": rounds, "op_s": op_s, "round_size": len(requests)}
    if tracer is not None:
        summary.update(tracer.totals(), absent=tracer.absent, spans=tracer.spans, op_cpu_s=traced_cpu)
    print(json.dumps(summary))


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        _setup(rest[0], int(rest[1]))
    elif mode == "call":
        _call(rest)
    elif mode == "stream":
        _stream(int(rest[0]), float(rest[1]), rest[2] == "1", rest[3])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
