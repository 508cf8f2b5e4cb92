"""Span and counter recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps the module attributes of inarq that callers look up at
call time (``inarq.cli.simulate_inar_inf``, ``inarq.processes.poisson_draw``,
...), so the program itself is not edited. Spans time the calls between
layers; the draws of the sampling layer are only counted, because they run
once or more per simulated step. It is installed only in the traced run.

A span is a dict with ``name, start, end, cpu, id, parent, op, thread``;
``cpu`` is the CPU time of its thread while it was open. Spans
opened on a pool thread with no span of their own take the innermost open
span of the main thread as parent, so the simulations ``check`` runs on its
thread pool hang under the ``equivalence_mc_test`` span that waits for them.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

# (module, attribute, span name). A function reached through several modules
# is wrapped in each, because each caller looks it up in its own namespace.
TIMED = (
    ("inarq.cli", "main", "cli.main"),
    ("inarq.cli", "load_model_file", "cli.load_model_file"),
    ("inarq.cli", "simulate_inar1", "processes.simulate_inar1"),
    ("inarq.cli", "simulate_inar_inf", "processes.simulate_inar_inf"),
    ("inarq.diagnostics", "simulate_inar_inf", "processes.simulate_inar_inf"),
    ("inarq.processes", "simulate_inar_p", "processes.simulate_inar_p"),
    ("inarq.cli", "simulate_individual_level", "processes.simulate_individual_level"),
    ("inarq.cli", "apply_reporting", "processes.apply_reporting"),
    ("inarq.diagnostics", "apply_reporting", "processes.apply_reporting"),
    ("inarq.processes", "apply_reporting", "processes.apply_reporting"),
    ("inarq.cli", "write_series_csv", "processes.write_csv"),
    ("inarq.processes", "write_series_csv", "processes.write_csv"),
    ("inarq.cli", "write_trace_csv", "processes.write_csv"),
    ("inarq.cli", "equivalence_mc_test", "diagnostics.equivalence_mc_test"),
    ("inarq.diagnostics", "_observed_series", "diagnostics.mc_sim"),
    ("inarq.diagnostics", "joint_pmf_oracle", "diagnostics.joint_pmf_oracle"),
    ("inarq.cli", "individual_level_checks", "diagnostics.individual_level_checks"),
    ("inarq.cli", "canonicalize", "equivalence.canonicalize"),
    ("inarq.cli", "shift_reporting", "equivalence.shift_reporting"),
    ("inarq.cli", "expand_lags", "equivalence.expand_lags"),
    ("inarq.cli", "equivalence_curve", "equivalence.equivalence_curve"),
    ("inarq.diagnostics", "canonicalize", "equivalence.canonicalize"),
)

# (module, attribute, counter); every sampling draw the simulators make.
COUNTED = (
    ("inarq.processes", "poisson_draw", "sampling.scalar_calls"),
    ("inarq.processes", "binomial_thin", "sampling.scalar_calls"),
    ("inarq.processes", "multinomial_allocate", "sampling.scalar_calls"),
    ("inarq.processes", "geometric_draws", "sampling.vector_calls"),
)


def _series_counts(tracer, args, kwargs, result):
    tracer.add("processes.retained_steps", len(result))
    tracer.add("processes.simulated_steps", len(result) + result.burn_in)


def _trace_counts(tracer, args, kwargs, result):
    tracer.add("processes.retained_steps", len(result))
    tracer.add("processes.simulated_steps", len(result))
    tracer.add("processes.individuals", len(result.individuals))
    tracer.add("processes.individuals_censored",
               sum(1 for _, death, _ in result.individuals if death is None))


def _written_bytes(tracer, args, kwargs, result):
    # write_series_csv(series, path) and write_trace_csv(trace, path, long_path)
    tracer.add("processes.write_csv.bytes", sum(os.path.getsize(p) for p in args[1:]))


def _vector_values(tracer, args, kwargs, result):
    tracer.add("sampling.vector_values", len(result))


AFTER = {
    "processes.simulate_inar1": _series_counts,
    "processes.simulate_inar_inf": _series_counts,
    "processes.simulate_inar_p": _series_counts,
    "processes.simulate_individual_level": _trace_counts,
    "processes.write_csv": _written_bytes,
    "sampling.vector_calls": _vector_values,
}


class Tracer:
    """In-memory spans and per-thread counters; written out once at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._counts: list[dict] = []
        self._counts_lock = threading.Lock()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            main = threading.current_thread() is threading.main_thread()
            self._local.stack = self._main_stack if main else []
            return self._local.stack

    def add(self, key: str, n: int = 1) -> None:
        # Counters are per thread, so pool threads never race on a shared dict.
        try:
            counts = self._local.counts
        except AttributeError:
            counts = self._local.counts = defaultdict(int)
            with self._counts_lock:
                self._counts.append(counts)
        counts[key] += n

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        with self._counts_lock:
            for counts in self._counts:
                for key, n in list(counts.items()):
                    total[key] += n
        return dict(total)

    def start(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "cpu": time.thread_time(), "id": next(self._ids), "parent": parent,
                "op": self.op, "thread": threading.get_ident()}
        stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["cpu"] = time.thread_time() - span["cpu"]
        self._stack().pop()
        self.spans.append(span)

    def timed(self, fn, name: str):
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            span = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, key: str):
        # Runs once or more per simulated step, so it does the least it can.
        after = AFTER.get(key)
        local, add = self._local, self.add

        def wrapper(*args, **kwargs):
            try:
                local.counts[key] += 1
            except AttributeError:
                add(key)
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace the wrapped module attributes; call after ``import inarq.cli``."""
        for module, attr, name in TIMED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.timed(getattr(mod, attr), name))
        for module, attr, key in COUNTED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.counted(getattr(mod, attr), key))


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def layer_metrics(spans: list[dict], counts: dict[str, int], ops: int) -> dict:
    """Per-op layer metrics, ``{name: (value, unit)}``, from ``ops`` traced ops.

    Span ids are unique per (op, id): the in-process worker numbers spans
    across ops, and each fresh interpreter of the cli workload is one op.
    Busy time is the summed duration of a layer's spans; self time is busy
    time minus the part of each span its child spans cover.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["op"], s["parent"])].append(s)

    def busy(match) -> float:
        return sum(s["end"] - s["start"] for s in spans if match(s["name"]))

    def self_time(name: str) -> float:
        total = 0.0
        for s in spans:
            if s["name"] == name:
                kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                        for c in children[(s["op"], s["id"])]]
                total += s["end"] - s["start"] - _union(k for k in kids if k[1] > k[0])
        return total

    # CPU seconds, not wall: pool threads that only wait for the GIL do not count.
    sim_busy = sum(s["cpu"] for s in spans if s["name"] == "diagnostics.mc_sim")
    sim_wall, sim_threads = 0.0, 0
    for s in spans:
        if s["name"] == "diagnostics.equivalence_mc_test":
            sims = [c for c in children[(s["op"], s["id"])] if c["name"] == "diagnostics.mc_sim"]
            sim_wall += _union((c["start"], c["end"]) for c in sims)
            sim_threads = max(sim_threads, len({c["thread"] for c in sims}))

    steps = counts.get("processes.simulated_steps", 0)
    draws = counts.get("sampling.scalar_calls", 0) + counts.get("sampling.vector_calls", 0)

    def per_op(key: str) -> float:
        return counts.get(key, 0) / ops

    out = {
        "sampling.scalar_calls": (per_op("sampling.scalar_calls"), "count/op"),
        "sampling.vector_calls": (per_op("sampling.vector_calls"), "count/op"),
        "sampling.vector_values": (per_op("sampling.vector_values"), "count/op"),
        "sampling.calls_per_step": (draws / steps if steps else 0.0, "ratio"),
        "processes.simulated_steps": (steps / ops, "count/op"),
        "processes.retained_ratio":
            (counts.get("processes.retained_steps", 0) / steps if steps else 0.0, "ratio"),
        "processes.individuals": (per_op("processes.individuals"), "count/op"),
        "processes.individuals_censored": (per_op("processes.individuals_censored"), "count/op"),
        "processes.write_csv.bytes": (per_op("processes.write_csv.bytes"), "bytes/op"),
        "diagnostics.mc_sim.busy_sum_s": (sim_busy / ops, "s/op"),
        "diagnostics.mc_sim.wall_s": (sim_wall / ops, "s/op"),
        "diagnostics.mc_sim.overlap_ratio": (sim_busy / sim_wall if sim_wall else 0.0, "ratio"),
        "diagnostics.mc_sim.threads": (sim_threads, "count"),
        "diagnostics.equivalence_mc_test.self_s":
            (self_time("diagnostics.equivalence_mc_test") / ops, "s/op"),
        "cli.main.self_s": (self_time("cli.main") / ops, "s/op"),
        "equivalence.calls":
            (sum(s["name"].startswith("equivalence.") for s in spans) / ops, "count/op"),
        "equivalence.busy_s": (busy(lambda n: n.startswith("equivalence.")) / ops, "s/op"),
    }
    for name in ("processes.simulate_inar1", "processes.simulate_inar_inf",
                 "processes.simulate_inar_p", "processes.simulate_individual_level",
                 "processes.apply_reporting", "processes.write_csv",
                 "diagnostics.equivalence_mc_test", "diagnostics.joint_pmf_oracle",
                 "diagnostics.individual_level_checks", "cli.load_model_file"):
        out[f"{name}.busy_s"] = (busy(name.__eq__) / ops, "s/op")
    return out
