#!/usr/bin/env python3
"""Benchmark of the ``kisinweights`` command line.

    python3 perfbench/run.py --workload transport --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (it imports the package from ``src/``).
Load is closed-loop with one client: each request starts when the previous
one returns, and every pass runs in its own fresh interpreter, so at most
one child process exists at a time.

``--trace 0`` runs untraced passes until ``--seconds`` have gone by and
reports the end-to-end metrics. ``--trace 1`` runs one untraced pass (plus
the field kernel probes) and two traced passes, and reports the per-layer
metrics. Every answer is checked against ``reference.json``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it print the same metrics for
people, with units and sample counts, and list any failed request.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK_DIR = ROOT / ".perfbench-work"
TRACE_DIR = ROOT / ".perfbench-out"

# Fresh set-up-only interpreters: before every pass and after the last one
# (spread over the run like the passes, so a slow second weighs little), and
# at the start of a traced run. setup_s is the median of all of them.
SETUP_PER_PASS = 4
SETUP_TRACED = 9
RUN_BUDGET_S = 170.0  # a run stops starting work and kills its child past this

# Set-up is scaled to a reference speed by a "null start" timed right after
# each set-up child: a fresh interpreter that imports only the standard
# modules the package imports. It does the same kind of work as set-up
# (process start, reading bytecode caches, running module bodies) and never
# touches the package. setup_s is the set-up time at the speed at which the
# null start takes SETUP_REFERENCE_S (a round figure near its time on the
# 2-vCPU Xeon sandbox the benchmark was written on, 0.07-0.11 s).
NULL_START = (
    "import time, argparse, dataclasses, fractions, functools, hashlib, itertools, "
    "json, math, platform, tempfile, typing; print(time.monotonic())"
)
SETUP_REFERENCE_S = 0.1


def pin_to_one_cpu() -> None:
    """Keep a child on one CPU: every child of a run on the same one, so that
    the calibration times the CPU that did the work."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


PIN = pin_to_one_cpu if hasattr(os, "sched_setaffinity") else None


class Run:
    """Children of one benchmark run, all under one time budget."""

    def __init__(self, workload: str) -> None:
        self.fields = workloads.FIELDS[workload]
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONHASHSEED"] = "0"
        WORK_DIR.mkdir(exist_ok=True)
        self.tmp_root = tempfile.mkdtemp(dir=WORK_DIR)

    def close(self) -> None:
        shutil.rmtree(self.tmp_root, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    def left(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def child(self, requests: list, trace: bool = False, kernel: bool = False) -> tuple[dict | None, float, str]:
        """Run one pass in a fresh interpreter; returns (report, start, error)."""
        job = {
            "root": str(ROOT),
            "fields": self.fields,
            "requests": requests,
            "tmp": tempfile.mkdtemp(dir=self.tmp_root),
            "trace": trace,
            "kernel": kernel,
        }
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-s", str(HERE / "child.py")],
                input=json.dumps(job),
                capture_output=True,
                text=True,
                cwd=ROOT,
                env=self.env,
                timeout=max(1.0, self.left()),
                preexec_fn=PIN,
            )
        except subprocess.TimeoutExpired:
            return None, start, "child timed out"
        finally:
            shutil.rmtree(job["tmp"], ignore_errors=True)
        if proc.returncode != 0:
            return None, start, proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else f"exit {proc.returncode}"
        return json.loads(proc.stdout), start, ""

    def warm_up(self) -> None:
        """One discarded child: writes the bytecode caches users would have."""
        self.child([])

    def null_start(self) -> float:
        """Seconds until a fresh interpreter has run NULL_START."""
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-s", "-c", NULL_START],
                capture_output=True,
                text=True,
                cwd=ROOT,
                env=self.env,
                timeout=max(1.0, self.left()),
                preexec_fn=PIN,
                check=True,
            )
        except (subprocess.SubprocessError, OSError) as err:
            raise RuntimeError(f"null start failed: {err}") from err
        return float(proc.stdout) - start

    def setup_times(self, n: int) -> list[dict]:
        """``n`` set-up children, each followed by a null start."""
        samples = []
        for _ in range(n):
            report, start, error = self.child([])
            if report is None:
                raise RuntimeError(f"set-up failed: {error}")
            seconds = report["setup_done"] - start
            scaled = seconds * SETUP_REFERENCE_S / self.null_start()
            samples.append(dict(report, setup_s=scaled, setup_raw_s=seconds))
        return samples


def check(requests: list, results: list, reference: dict) -> list[str]:
    """Failed requests of one pass, each as one line of text."""
    failures = []
    for req, res in zip(requests, results):
        if res["error"]:
            why = res["error"].strip().splitlines()[-1]
        elif req["expect"] == "refused":
            why = None if res["refused"] else f"not refused (exit {res['exit']})"
        elif reference.get(res["key"]) != [res["exit"], res.get("digest")]:
            why = f"answer differs from reference (exit {res['exit']})"
        elif res.get("cache") == "recomputed-mismatch":
            why = "cache record differs from recomputation"
        else:
            why = None
        if why:
            failures.append(f"{res['key']}: {why}")
    return failures


def quantile_ms(samples: list[float], decile: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[decile - 1]


# Time of the calibration snippet (see execute.py) at the reference speed:
# its median on the 2-vCPU Xeon sandbox the benchmark was written on. A
# latency in ref_ms is the measured one times this over the snippet time
# measured during it: what it would take at the reference speed.
CALIBRATION_REFERENCE_MS = 1.0


def at_reference(value: float, calibration_ms: float) -> float:
    """A latency measured while the snippet took ``calibration_ms``, scaled
    to the reference speed."""
    return value * CALIBRATION_REFERENCE_MS / calibration_ms


def ref_s(report: dict) -> float:
    """A pass's time with each latency scaled to the reference speed."""
    return sum(at_reference(r["ms"], r["calibration_ms"]) for r in report["results"]) / 1000.0


def measure(run: Run, plan: list, seconds: int, reference: dict, out: dict) -> None:
    """Untraced passes, with set-up children between them, for ``seconds``
    (at least two passes; none is started that would end past ``seconds``).

    Each request's latency is its median across the passes, which a burst
    during one pass barely moves; a pass's time is the sum of those. The
    end-to-end metrics scale each latency to the reference speed; the
    unscaled figures are printed for people beside them.
    """
    run.warm_up()
    setups, raw, scaled, rss = [], [], [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        setups += run.setup_times(SETUP_PER_PASS)
        report, _, error = run.child(plan)
        out["attempted"] += len(plan)
        if report is None:
            out["failed"] += len(plan)
            out["failures"].append(f"pass failed: {error}")
            break
        failures = check(plan, report["results"], reference)
        out["failed"] += len(failures)
        out["failures"] += failures
        results = report["results"]
        raw.append([r["ms"] for r in results])
        scaled.append([at_reference(r["ms"], r["calibration_ms"]) for r in results])
        rss.append(report["peak_rss_mb"])
        now = time.monotonic()
        if (len(raw) >= 2 and now - start + (now - began) > seconds) or run.left() < 2 * (now - began):
            break
    setups += run.setup_times(SETUP_PER_PASS)
    if not raw:
        return
    n = len(raw)
    per_request = [list(map(statistics.median, zip(*passes))) for passes in (scaled, raw)]
    count = f"{len(plan)} requests x {n} passes, median per request"
    setup_count = f"median of {len(setups)} set-ups"
    out["metrics"] = {
        "wall_ref_s": (sum(per_request[0]) / 1000.0, "ref_s", count + ", summed"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s", setup_count + ", scaled"),
        "peak_rss_mb": (statistics.median(rss), "MB", f"median of {n} passes"),
        "call_ref_ms.p50": (quantile_ms(per_request[0], 5), "ref_ms", count),
        "call_ref_ms.p90": (quantile_ms(per_request[0], 9), "ref_ms", count),
    }
    out["info"] = {
        "wall_s": (sum(per_request[1]) / 1000.0, "s", count + ", summed, unscaled"),
        "setup_raw_s": (statistics.median(s["setup_raw_s"] for s in setups), "s", setup_count + ", unscaled"),
        "call_ms.p50": (quantile_ms(per_request[1], 5), "ms", count + ", unscaled"),
        "call_ms.p90": (quantile_ms(per_request[1], 9), "ms", count + ", unscaled"),
    }


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.startswith("field.kernel."):
        return "ns"
    if last.endswith("ratio"):
        return "ratio"
    if last.endswith("ref_s"):
        return "ref_s"
    if last.endswith("_s"):
        return "s"
    return "count"  # calls, points, spans, hits, misses


def trace(run: Run, plan: list, workload: str, seed: int, reference: dict, out: dict) -> None:
    """One untraced pass with the kernel probes, then two traced passes."""
    run.warm_up()
    setups = run.setup_times(SETUP_TRACED)
    passes = []
    for kind in ({"kernel": True}, {"trace": True}, {"trace": True}):
        report, _, error = run.child(plan, **kind)
        if report is None:
            break
        passes.append(report)
    out["attempted"] += len(plan) * 3
    out["failed"] += len(plan) * (3 - len(passes))
    for report in passes:
        failures = check(plan, report["results"], reference)
        out["failed"] += len(failures)
        out["failures"] += failures
    if len(passes) < 3:
        out["failures"].append(f"pass failed: {error}")
        return
    base, first, second = passes
    digests = [[r.get("digest") for r in p["results"]] for p in passes]
    if not digests[0] == digests[1] == digests[2]:
        out["self_check"].append("traced answers differ from untraced answers")
    repeatable = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    if repeatable != {k: v for k, v in second["layers"].items() if not k.endswith("_s")}:
        out["self_check"].append("two traced passes disagree on counts or ratios")

    layers = dict(first["layers"])
    layers.update(base["kernel"])
    layers["trace.pass_s"] = sum(r["ms"] for r in first["results"]) / 1000.0
    layers["trace.overhead_ref_s"] = ref_s(first) - ref_s(base)
    layers["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    layers["field.make_field.self_s"] = statistics.median(s["make_field_s"] for s in setups)
    caches = [r.get("cache") for r in first["results"]]
    layers["cli.cache.hits"] = caches.count("hit")
    layers["cli.cache.misses"] = sum(c in ("miss", "recomputed-match", "recomputed-mismatch") for c in caches)
    out["metrics"] = {k: (v, layer_unit(k), "traced pass") for k, v in sorted(layers.items())}

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"fields": ["name", "parent", "request", "start_s", "end_s"], "spans": first["spans"]}))
    out["notes"].append(f"spans written to {path.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + workloads.EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "kisinweights" / "cli.py").is_file():
        print(f"no kisinweights sources under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    plan = workloads.plan(args.workload, args.seed)
    out = {"attempted": 0, "failed": 0, "failures": [], "self_check": [], "notes": [], "metrics": {}, "info": {}}
    run = Run(args.workload)
    try:
        if args.trace:
            trace(run, plan, args.workload, args.seed, reference, out)
        else:
            measure(run, plan, args.seconds, reference, out)
    except RuntimeError as err:
        print(err, file=sys.stderr)
        return 1
    finally:
        run.close()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit, base) in {**out["metrics"], **out["info"]}.items():
        print(f"  {name:44s} {value:16.6f} {unit:6s} ({base})")
    ratio = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"  {'failed_ratio':44s} {ratio:16.6f} ratio  ({out['failed']} of {out['attempted']} requests)")
    for line, times in Counter(out["failures"] + out["self_check"]).items():
        print(f"  FAILED {line}" + (f" ({times} times)" if times > 1 else ""))
    for line in out["notes"]:
        print(f"  {line}")
    correct = out["failed"] == 0 and not out["self_check"] and bool(out["metrics"])
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
