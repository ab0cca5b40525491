"""Timing wrappers around the program's public functions.

The wrappers are installed from outside the package by rebinding each
target in every ``schubert_smt`` module that holds it, so the program's
source is untouched.  Each call pushes a frame on a per-thread span
stack (``verify`` runs its cases on a thread pool).  Self time is the
call's thread CPU time minus that of its traced children, so self times
summed over all threads plus the untraced rest equal the operation's
process CPU time, also while pool threads wait on the interpreter lock.
Hot leaf calls are aggregated; the others are also kept as span records
(id, parent, name, thread, wall start, wall end) and written out when
the run ends.
"""

import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter

PACKAGE = "schubert_smt"


def _note_enumeration(tracer, args, kwargs, result, fn):
    tracer.count("tableaux.tableaux_emitted", len(result))
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    key = tuple(bound.arguments.items())
    with tracer.lock:
        repeat = key in tracer.enumerated
        tracer.enumerated.add(key)
    if repeat:
        tracer.count("tableaux.repeat_enumerations")


def _note_lookups(tracer, args, kwargs, result, fn):
    tracer.count("plucker.minor_lookups", len(args[0]))


def _note_build(tracer, args, kwargs, result, fn):
    if not getattr(args[0], "ok", True):
        tracer.count("linalg.solver_rank_deficient")


def _note_gain(tracer, args, kwargs, result, fn):
    if result:
        tracer.count("linalg.rowspan_rank_gains")


# (time metric, call-count metric, module, qualified name, hook, keep span records)
TARGETS = [
    ("cli.main_s", "cli.calls", "cli", "main", None, True),
    ("cli.doc_load_s", None, "cli", "load_polynomial_document", None, True),
    ("cli.doc_save_s", None, "cli", "save_polynomial_document", None, True),
    ("verifier.lemma_s", None, "verifier", "verify_product_relation", None, True),
    ("verifier.appendix_s", None, "verifier", "verify_exchange_identities", None, True),
    ("verifier.theorem_s", None, "verifier", "verify_non_normality", None, True),
    ("verifier.proposition_s", None, "verifier", "verify_quotient_dimensions", None, True),
    ("verifier.remarks_s", None, "verifier", "verify_minimal_cases", None, True),
    ("invariant_ring.basis_s", "invariant_ring.basis_calls", "invariant_ring", "invariant_basis", None, True),
    ("invariant_ring.multiply_s", "invariant_ring.products", "invariant_ring", "multiply_to_coordinates", None, True),
    ("invariant_ring.probe_s", None, "invariant_ring", "normality_probe", None, True),
    ("invariant_ring.probe_s", None, "invariant_ring", "generation_degree_probe", None, True),
    ("invariant_ring.hilbert_s", None, "invariant_ring", "hilbert_series", None, True),
    ("plucker.straighten_s", "plucker.straighten_calls", "plucker", "straighten", None, True),
    ("plucker.evaluate_s", "plucker.evaluate_calls", "plucker", "evaluate", None, False),
    ("plucker.sample_s", "plucker.points_sampled", "plucker", "random_schubert_point", None, False),
    ("plucker.sample_s", "plucker.points_sampled", "plucker", "random_point", None, False),
    ("plucker.monomial_s", "plucker.monomial_values", "plucker", "monomial_value", _note_lookups, False),
    ("tableaux.enumerate_s", "tableaux.enumerate_calls", "tableaux", "enumerate_standard", _note_enumeration, True),
    ("linalg.det_s", "linalg.minors_computed", "linalg", "det_int", None, False),
    ("linalg.solver_build_s", "linalg.solver_builds", "linalg", "GaussSolver.__init__", _note_build, True),
    ("linalg.solve_s", "linalg.solves", "linalg", "GaussSolver.solve", None, True),
    ("linalg.rowspan_s", "linalg.rowspan_adds", "linalg", "IntRowSpan.add", _note_gain, False),
    ("linalg.rowspan_s", None, "linalg", "IntRowSpan.contains", None, False),
    ("linalg.rank_s", "linalg.rank_calls", "linalg", "rank_int", None, False),
]

TIME_METRICS = sorted({t[0] for t in TARGETS})
COUNT_METRICS = sorted(
    {t[1] for t in TARGETS if t[1]}
    | {
        "tableaux.tableaux_emitted", "tableaux.repeat_enumerations",
        "plucker.minor_lookups", "linalg.solver_rank_deficient", "linalg.rowspan_rank_gains",
    }
)


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child cpu seconds, span id]
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()


class Tracer:
    """Installs wrappers, keeps spans and totals in memory, restores on uninstall."""

    def __init__(self):
        self.lock = threading.Lock()
        self.enumerated: set = set()
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self.lock:
                self._states.append(state)
        return state

    def count(self, name: str, amount: int = 1) -> None:
        self._state().counts[name] += amount

    def _wrap(self, fn, time_metric, count_metric, hook, record):
        tracer, ids, spans = self, self._ids, self.spans
        thread_time, perf_counter, get_ident = time.thread_time, time.perf_counter, threading.get_ident

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = perf_counter()
            cpu0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu0
                stack.pop()
                if stack:
                    stack[-1][0] += cpu
                state.self_s[time_metric] += cpu - frame[0]
                if count_metric:
                    state.counts[count_metric] += 1
                if record:
                    spans.append((frame[1], parent, time_metric[:-2], get_ident(), start, perf_counter()))
            if hook is not None:
                hook(tracer, args, kwargs, result, fn)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for time_metric, count_metric, module_name, qualname, hook, record in TARGETS:
            full = f"{PACKAGE}.{module_name}.{qualname}"
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(full)
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(full)
                continue
            wrapper = self._wrap(original, time_metric, count_metric, hook, record)
            if path:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != PACKAGE:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict:
        """Self seconds and counts summed over every thread seen so far."""
        self_s: Counter = Counter()
        counts: Counter = Counter()
        with self.lock:
            states = list(self._states)
        for state in states:
            self_s.update(state.self_s)
            counts.update(state.counts)
        return {"self_s": dict(self_s), "counts": dict(counts)}


def layer_metrics(self_s: dict, counts: dict, ops: int, op_cpu_s: float) -> dict:
    """Per-operation layer metrics from totals over `ops` traced operations."""
    ops = max(ops, 1)
    out = {name: (self_s.get(name, 0.0) / ops, "s") for name in TIME_METRICS}
    out.update({name: (counts.get(name, 0) / ops, "count") for name in COUNT_METRICS})
    lookups = counts.get("plucker.minor_lookups", 0)
    computed = counts.get("linalg.minors_computed", 0)
    builds = counts.get("linalg.solver_builds", 0)
    out["plucker.minor_hit_ratio"] = (1 - computed / lookups if lookups else 0.0, "ratio")
    out["linalg.solves_per_build"] = (counts.get("linalg.solves", 0) / builds if builds else 0.0, "ratio")
    out["trace.op_cpu_s"] = (op_cpu_s / ops, "s")
    out["trace.untraced_s"] = ((op_cpu_s - sum(self_s.values())) / ops, "s")
    return out
