#!/usr/bin/env python3
"""Self-test of the output validators.

    python3 perfbench/selftest.py

Runs one op of every workload in this process (inarq from ``src/``),
checks that the validators accept every real output, then corrupts each
output in turn (malformed JSON, NaN, a short CSV, a wrong exit code, a
traceback, a value off at 12 digits, a passing perturbed pair) and checks
that the validators reject every corruption. Exits 1 on any miss.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from validate import validate  # noqa: E402
from worker import run_call  # noqa: E402


def corruptions(call: workloads.Call, result: dict, workdir: Path):
    """Yield (label, corrupted result, file restorer or None) for one call."""
    for stream in ("stdout", "stderr"):
        if result[stream].lstrip().startswith("{"):
            text = result[stream]
            yield f"malformed JSON on {stream}", {**result, stream: text.rstrip()[:-1]}, None
            doc = json.loads(text)
            doc[next(k for k, v in doc.items() if not isinstance(v, str))] = float("nan")
            yield f"NaN in JSON on {stream}", {**result, stream: json.dumps(doc)}, None
    wrong = 1 if result["rc"] == 0 else 0
    yield "wrong exit code", {**result, "rc": wrong}, None
    yield "traceback", {**result, "stderr": "Traceback (most recent call last):\n"}, None
    yield "exception", {**result, "exc": "Traceback (most recent call last):\nValueError\n"}, None
    if call.kind == "transform":
        yield "value off at 12 digits", {
            **result, "stdout": result["stdout"].replace("1.62", "1.62000000001", 1)
            .replace("0.82044198895", "0.82044198896", 1)
            .replace("1.29883381924", "1.29883381925", 1)}, None
    if call.kind == "check" and not call.params["equivalent"]:
        doc = json.loads(result["stdout"])
        doc["verdict"] = "pass"
        yield "perturbed pair passing", {**result, "stdout": json.dumps(doc), "rc": 0}, None
    for key in ("csv", "long_csv"):
        if key in call.params:
            path = workdir / call.params[key]
            text = path.read_text("utf-8")
            path.write_text(text[: text.rstrip("\n").rfind("\n") + 1], "utf-8")
            yield f"short CSV {path.name}", result, lambda p=path, t=text: p.write_text(t, "utf-8")


def main() -> int:
    workdir = HERE / "out" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    misses = 0
    for name in workloads.WORKLOADS:
        workloads.write_specs(name, workdir)
        for call in workloads.op_calls(name, 12345):
            result = run_call(call)
            label = " ".join(call.argv)
            problem, _ = validate(call, result, workdir)
            print(f"{'ok  ' if problem is None else 'MISS'} accepts {label}")
            misses += problem is not None
            for what, bad, restore in corruptions(call, result, workdir):
                problem, _ = validate(call, bad, workdir)
                if restore is not None:
                    restore()
                print(f"{'ok  ' if problem else 'MISS'} rejects {what}: {label}")
                misses += problem is None
    print(f"{misses} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
