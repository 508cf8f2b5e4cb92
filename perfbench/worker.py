"""Workload child process: imports inarq once and runs ops on request.

    worker.py probe WORKLOAD WORKDIR
        import inarq.cli, load the workload's specs, print "ready", exit
    worker.py serve WORKLOAD WORKDIR
        same set-up, then run one op per "op SEED" line on stdin and answer
        with one JSON line: the results of its calls with their durations,
        and the time of the reference loop run right before and after the
        op (reference.py); "quit" ends it
    worker.py trace WORKLOAD WORKDIR SPANS
        like serve with the tracer installed; writes spans and counters to
        SPANS on "quit"
    worker.py cli-trace WORKDIR SPANS OP -- ARGV...
        one traced `inarq ARGV...` invocation in a fresh interpreter (the
        cli workload's traced op); exits with the command's exit code

The runner (run.py) sets PYTHONPATH to the checkout's src directory and
times the set-up from spawn to the "ready" line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

import inarq.cli
from inarq import processes
from inarq.sampling import RngStream

import workloads
from reference import reference
from tracer import Tracer


def run_call(call: workloads.Call) -> dict:
    """Run one call with stdout/stderr captured; exceptions are results, not crashes."""
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if call.argv[0] == "library":
                _, _, t, seed, path = call.argv
                stream = RngStream(int(seed))
                spec = processes.InarPSpec(workloads.ORDER3["lambda"], workloads.ORDER3["alphas"])
                latent = processes.simulate_inar_p(spec, int(t), stream.substream(0))
                observed = processes.apply_reporting(
                    latent, processes.ReportingSpec(q=workloads.ORDER3["q"]), stream.substream(1))
                processes.write_series_csv(observed, path)
                rc = 0
            else:
                rc = inarq.cli.main(list(call.argv))
        except SystemExit as stop:  # argparse usage errors
            rc = stop.code
        except Exception:  # reported to the runner as a failed call
            exc = traceback.format_exc()
    return {"argv": list(call.argv), "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "exc": exc}


def set_up(workload: str) -> str:
    for path in workloads.SPECS_USED[workload]:
        inarq.cli.load_model_file(f"{path}.json")
    return inarq.cli.__file__


def serve(workload: str, tracer=None) -> None:
    for op, line in enumerate(sys.stdin):
        words = line.split()
        if words[0] == "quit":
            break
        seed = int(words[1])
        ref = reference()
        if tracer is not None:
            tracer.op = op
            root = tracer.start("op")
        results = []
        for call in workloads.op_calls(workload, seed):
            start = time.perf_counter()
            result = run_call(call)
            result["elapsed"] = time.perf_counter() - start
            results.append(result)
        if tracer is not None:
            tracer.end(root)
        ref += reference()
        print(json.dumps({"reference": ref, "calls": results}), flush=True)


def dump(tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts()}, fh)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli-trace":
        workdir, spans_path, op = argv[1], argv[2], int(argv[3])
        os.chdir(workdir)
        tracer = Tracer()
        tracer.install()
        tracer.op = op
        try:
            return inarq.cli.main(argv[5:])
        finally:
            dump(tracer, spans_path)

    workload, workdir = argv[1], argv[2]
    os.chdir(workdir)
    origin = set_up(workload)
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    print(f"ready {origin}", flush=True)
    if mode in ("serve", "trace"):
        serve(workload, tracer)
    if tracer is not None:
        dump(tracer, argv[3])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
