#!/usr/bin/env python3
"""inarq benchmark runner.

    python3 perfbench/run.py --workload {simulate,check,appendix,cli,all} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout, with the package taken from
``src/`` (nothing is installed). Workloads run one at a time, each in its
own child process, from this single runner process:

* ``simulate``, ``check``, ``appendix``: one warm worker interpreter
  (worker.py) imports inarq once and runs ops in a closed loop, one op
  after the other, until the next op would overrun ``--seconds``.
* ``cli``: every op is a fresh ``python -m inarq`` interpreter; ops run in
  whole cycles of the command mix, so every run weighs the commands alike.

Every call's output is validated (validate.py) before the next op starts;
validation time is not part of any op time.

``--trace 0`` prints the end-to-end metrics: setup_s (median of several
fresh interpreters importing inarq.cli and loading the workload's specs,
spread over the run), op_ref_s and steps_per_ref_s (see summarize),
peak_rss_mb of the workload's child processes, and, in the table only,
fail_ratio and the raw op times. ``--trace 1`` spends half of ``--seconds``
untraced and half with the tracer installed, and prints the per-layer
metrics (per op) and the tracing overhead. Result
files with provenance go to perfbench/out/. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads
from reference import REFERENCE_S, reference
from validate import validate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 7  # fresh interpreters timed per run for setup_s, spread over the run
PROBES = 3  # bare-interpreter and -X importtime samples in the traced run
CALL_TIMEOUT_S = 150.0
MAX_PROBLEMS = 5
# Reported, not gated.
RAW_FIGURES = {"op_min_s": "s", "op_p50_s": "s", "op_mean_s": "s", "op_max_s": "s",
               "steps_per_s": "1/s", "ref_p50_s": "s"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@contextlib.contextmanager
def deadline(proc: subprocess.Popen, seconds: float = CALL_TIMEOUT_S):
    """Kill ``proc`` if the block has not finished after ``seconds``."""
    timer = threading.Timer(seconds, proc.kill)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for ``proc`` (killed if it hangs); return (exit code, peak RSS in MB)."""
    with deadline(proc):
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def summarize(cycles: list[list[float]], refs: list[float], steps: int, ops: int) -> dict:
    """Op times of one run phase.

    ``cycles`` holds the call durations of each op cycle: the calls of one
    op for the in-process workloads, the ``ops`` invocations of the command
    mix for cli; a cycle retains ``steps`` simulated steps. ``refs`` holds
    the time of the reference loop around each op. The gated figures are
    op_ref_s, the median op time scaled to the loop's nominal speed
    (reference.py says why), and steps_per_ref_s, the retained steps of an
    op over op_ref_s. The raw minimum, median, mean and maximum op times,
    steps_per_s (retained steps of an op over the raw median) and the
    median reference time are reported alongside.
    """
    op_times = [t for cycle in cycles for t in (cycle if ops > 1 else [sum(cycle)])]
    scaled = statistics.median(t / r for t, r in zip(op_times, refs, strict=True)) * REFERENCE_S
    median = statistics.median(op_times)
    return {"op_ref_s": scaled, "steps_per_ref_s": steps / ops / scaled,
            "op_min_s": min(op_times), "op_p50_s": median,
            "op_mean_s": statistics.fmean(op_times), "op_max_s": max(op_times),
            "steps_per_s": steps / ops / median, "ref_p50_s": statistics.median(refs),
            "ops": len(op_times)}


def closed_loop(seconds: float, step, between, times: int) -> None:
    """Call ``step`` until the next call would likely end after ``seconds``.

    It runs at least twice, so every call of a cycle has a repetition.
    ``between`` is called ``times`` times between steps, evenly spread over
    the ``seconds`` (the first before the first step), so that its samples
    meet the machine's slow and fast phases alike.
    """
    start = time.perf_counter()
    walls: list[float] = []
    done = 0
    while len(walls) < 2 or time.perf_counter() - start + statistics.median(walls) <= seconds:
        if done < times and time.perf_counter() - start >= seconds * done / times:
            between()
            done += 1
            continue
        t0 = time.perf_counter()
        step()
        walls.append(time.perf_counter() - t0)
    for _ in range(done, times):
        between()


class WorkloadRun:
    """One workload's child processes, op timings and validation tallies."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.workdir = workdir
        self.seeds = workloads.op_seeds(seed)
        self.env = child_env()
        self.attempted = self.failed = 0
        self.verdicts = self.rejects = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0

    def record(self, calls: list[workloads.Call], results: list[dict]) -> None:
        """Validate the calls of one op and count it."""
        failed = False
        for call, result in zip(calls, results):
            problem, rejected = validate(call, result, self.workdir)
            if problem is not None:
                failed = True
                if len(self.problems) < MAX_PROBLEMS:
                    self.problems.append(problem)
            if rejected is not None:
                self.verdicts += 1
                self.rejects += rejected
        self.attempted += 1
        self.failed += failed

    def _spawn(self, *args: str, stdin=None) -> subprocess.Popen:
        return subprocess.Popen([sys.executable, *args], cwd=self.workdir, env=self.env,
                                stdin=stdin, stdout=subprocess.PIPE, text=True)

    def _await_ready(self, proc: subprocess.Popen, start: float) -> float:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        words = line.split()
        if not words or words[0] != "ready":
            raise BenchError(f"{self.name} worker did not start (see its stderr)")
        if not Path(words[1]).resolve().is_relative_to(SRC):
            raise BenchError(f"inarq was imported from {words[1]}, not from {SRC}")
        return setup

    def probe(self) -> float:
        """Seconds for a fresh interpreter to import inarq.cli and load the specs."""
        start = time.perf_counter()
        proc = self._spawn(str(WORKER), "probe", self.name, str(self.workdir))
        try:
            return self._await_ready(proc, start)
        finally:
            proc.stdout.close()
            reap(proc)

    def serve(self, seconds: float, spans_path: Path | None = None, probes: int = 0) -> dict:
        """Run ops in one warm worker for ``seconds``, with ``probes`` set-up probes
        between them; return the timings."""
        mode = ["serve"] if spans_path is None else ["trace"]
        start = time.perf_counter()
        proc = self._spawn(str(WORKER), *mode, self.name, str(self.workdir),
                           *([str(spans_path)] if spans_path else []), stdin=subprocess.PIPE)
        cycles, setups, refs = [], [], []
        try:
            setups.append(self._await_ready(proc, start))

            def step():
                seed = next(self.seeds)
                calls = workloads.op_calls(self.name, seed)
                proc.stdin.write(f"op {seed}\n")
                proc.stdin.flush()
                with deadline(proc):
                    line = proc.stdout.readline()
                if not line:
                    raise BenchError(f"{self.name} worker exited during an op")
                answer = json.loads(line)
                results = answer["calls"]
                refs.append(answer["reference"])
                cycles.append([result["elapsed"] for result in results])
                self.record(calls, results)

            closed_loop(seconds, step, lambda: setups.append(self.probe()), probes)
            proc.stdin.write("quit\n")
            proc.stdin.close()
        finally:
            if proc.stdin and not proc.stdin.closed:
                proc.kill()
            proc.stdout.close()
            rc, rss = reap(proc)
        if rc != 0:
            raise BenchError(f"{self.name} worker exited with code {rc}")
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return {"setups": setups, "cycles": cycles, "refs": refs}

    def invoke(self, seconds: float, spans_dir: Path | None = None, probes: int = 0) -> dict:
        """cli workload: run whole command-mix cycles, one fresh interpreter per call,
        with ``probes`` set-up probes between them. This process runs the
        reference loop before and after every call."""
        cycles, setups, refs = [], [], []
        op = 0

        def cycle():
            nonlocal op
            calls = workloads.op_calls(self.name, next(self.seeds))
            cycles.append([])
            for call in calls:
                if spans_dir is None:
                    cmd = ["-m", "inarq", *call.argv]
                else:
                    cmd = [str(WORKER), "cli-trace", str(self.workdir),
                           str(spans_dir / f"{op}.json"), str(op), "--", *call.argv]
                out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
                ref = reference()
                with open(out_path, "w") as out, open(err_path, "w") as err:
                    start = time.perf_counter()
                    proc = subprocess.Popen([sys.executable, *cmd], cwd=self.workdir,
                                            env=self.env, stdout=out, stderr=err)
                    rc, rss = reap(proc)
                    took = time.perf_counter() - start
                cycles[-1].append(took)
                refs.append(ref + reference())
                op += 1
                self.peak_rss_mb = max(self.peak_rss_mb, rss)
                self.record([call], [{"argv": list(call.argv), "rc": rc, "exc": None,
                                      "stdout": out_path.read_text("utf-8"),
                                      "stderr": err_path.read_text("utf-8")}])

        closed_loop(seconds, cycle, lambda: setups.append(self.probe()), probes)
        return {"setups": setups, "cycles": cycles, "refs": refs}

    def run_ops(self, seconds: float, spans: Path | None = None, probes: int = 0) -> dict:
        """Ops for ``seconds`` with ``probes`` set-up probes between them; the
        timings plus their summary."""
        timing = (self.invoke if self.name == "cli" else self.serve)(seconds, spans, probes)
        calls = workloads.op_calls(self.name, 0)
        ops = len(calls) if self.name == "cli" else 1
        return {**timing,
                **summarize(timing["cycles"], timing["refs"], sum(c.steps for c in calls), ops)}

    def tallies(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_ratio": self.failed / self.attempted,
            "false_rejects": self.rejects,
            "false_rejects_base": self.verdicts,
            "problems": self.problems,
        }


def end_to_end(run: WorkloadRun, seconds: float) -> dict:
    """Untraced run: ops for ``seconds``, set-up samples spread among them.

    The in-process workloads' own worker start is one of the samples.
    """
    timing = run.run_ops(seconds, probes=SETUP_SAMPLES - (run.name != "cli"))
    setups = timing["setups"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ref_s": (timing["op_ref_s"], "s"),
        "steps_per_ref_s": (timing["steps_per_ref_s"], "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    samples = {"setup_s": len(setups), "op_ref_s": timing["ops"],
               "steps_per_ref_s": timing["ops"]}
    return {"metrics": metrics, "samples": samples, "setups": setups,
            **{k: timing[k] for k in (*RAW_FIGURES, "cycles", "refs")}}


def _import_seconds(env: dict) -> dict:
    """Self time of each package's modules during ``import inarq.cli``, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import inarq.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CALL_TIMEOUT_S, check=True)
    totals = {"numpy": 0, "scipy": 0, "inarq": 0}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            package = fields[2].strip().split(".")[0]
            if package in totals:
                totals[package] += int(fields[0])
    return {k: v / 1e6 for k, v in totals.items()}


def interpreter_layer(env: dict) -> dict:
    """cli-layer figures measured outside any op: interpreter floor and import split."""
    floors = []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        floors.append(time.perf_counter() - start)
    imports = [_import_seconds(env) for _ in range(PROBES)]
    out = {"cli.interpreter_s": (statistics.median(floors), "s")}
    for package in ("numpy", "scipy", "inarq"):
        out[f"cli.import.{package}_s"] = (statistics.median(i[package] for i in imports), "s")
    return out


def per_layer(run: WorkloadRun, seconds: float, spans_out: Path) -> dict:
    """Traced run: half untraced, half traced; per-op layer metrics and overhead."""
    metrics = interpreter_layer(run.env)
    plain = run.run_ops(seconds / 2)
    if run.name == "cli":
        spans_dir = run.workdir / "spans"
        spans_dir.mkdir()
        traced = run.run_ops(seconds / 2, spans_dir)
        spans, counts = [], {}
        for path in sorted(spans_dir.iterdir()):
            dumped = json.loads(path.read_text("utf-8"))
            spans.extend(dumped["spans"])
            for key, n in dumped["counts"].items():
                counts[key] = counts.get(key, 0) + n
    else:
        spans_path = run.workdir / "spans.json"
        traced = run.run_ops(seconds / 2, spans_path)
        dumped = json.loads(spans_path.read_text("utf-8"))
        spans, counts = dumped["spans"], dumped["counts"]
    with open(spans_out, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")

    metrics.update(tracer.layer_metrics(spans, counts, traced["ops"]))
    tallies = run.tallies()
    metrics.update({
        "diagnostics.false_rejects": (tallies["false_rejects"], "count"),
        "diagnostics.false_rejects_base": (tallies["false_rejects_base"], "count"),
        "trace.untraced_op_ref_s": (plain["op_ref_s"], "s"),
        "trace.op_ref_s": (traced["op_ref_s"], "s"),
        "trace.overhead_ratio": (traced["op_ref_s"] / plain["op_ref_s"] - 1.0, "ratio"),
        "trace.ops": (traced["ops"], "count"),
    })
    return {"metrics": metrics, "samples": {"untraced_ops": plain["ops"],
                                            "traced_ops": traced["ops"], "spans": len(spans)}}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout (never searches upward)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    return {
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": loadavg(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "sizes": {"T_long": workloads.T_LONG, "T_short": workloads.T_SHORT,
                  "check_t": workloads.CHECK_T, "check_reps": workloads.CHECK_REPS,
                  "appendix_t": workloads.APPENDIX_T, "cli_simulate_t": workloads.CLI_SIM_T},
    }


def run_workload(name: str, args) -> dict:
    workdir = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workloads.write_specs(name, workdir)
    run = WorkloadRun(name, args.seed, workdir)
    if args.trace:
        result = per_layer(run, args.seconds, OUT / f"{name}-seed{args.seed}-spans.jsonl")
    else:
        result = end_to_end(run, args.seconds)
    return {**result, **run.tallies()}


def print_table(name: str, result: dict) -> None:
    samples = result["samples"]
    for key, (value, unit) in result["metrics"].items():
        n = f"  (n={samples[key]})" if key in samples else ""
        print(f"{name:9s} {key:44s} {value:>16.6g} {unit}{n}")
    for key, unit in RAW_FIGURES.items():
        if key in result:
            print(f"{name:9s} {key:44s} {result[key]:>16.6g} {unit}  (n={samples['op_ref_s']})")
    print(f"{name:9s} {'fail_ratio':44s} {result['fail_ratio']:>16.6g} ratio"
          f"  ({result['failed']}/{result['attempted']} ops)")
    print(f"{name:9s} {'false_rejects':44s} {result['false_rejects']:>16d} count"
          f"  (of {result['false_rejects_base']} verdicts on equivalent inputs)")
    for problem in result["problems"]:
        print(f"{name:9s} FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "inarq" / "__init__.py").is_file():
        print(f"error: no inarq sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    record = {"provenance": provenance(args), "workloads": {}}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            record["workloads"][name] = result = run_workload(name, args)
            print_table(name, result)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["provenance"]["loadavg_end"] = loadavg()
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    results = record["workloads"].values()
    metrics = {}
    for name, result in record["workloads"].items():
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
