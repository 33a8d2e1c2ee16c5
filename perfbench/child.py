"""One benchmark pass in a fresh interpreter.

Reads a JSON job on stdin: the checkout root, the (p, d) fields to build at
set-up, the requests, a scratch directory, whether to trace and whether to
run the field kernel probes. Writes one JSON report on stdout.

Set-up is timed first, before anything else of the harness is imported:
``import kisinweights.cli`` and ``make_field(p, d)`` for every field of
the workload. ``setup_done`` is a CLOCK_MONOTONIC reading, which the parent
compares with the time it started this process.
"""

import json
import os
import sys
import time


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    start = time.perf_counter()
    import kisinweights.cli as cli
    from kisinweights.field import make_field

    imported = time.perf_counter()
    for p, d in job["fields"]:
        make_field(p, d)
    built = time.perf_counter()
    report = {
        "setup_done": time.monotonic(),
        "import_s": imported - start,
        "make_field_s": built - imported,
    }
    if job["requests"]:
        import resource

        import execute
        import probes

        tracer = probes.Tracer() if job["trace"] else None
        if tracer is not None:
            tracer.install()
        results = execute.run_pass(lambda argv: cli.main(argv), job["requests"], job["tmp"])
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.metrics()
            report["spans"] = tracer.spans
        report["results"] = results
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if job["kernel"]:
            report["kernel"] = probes.kernel_probes()
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
