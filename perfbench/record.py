#!/usr/bin/env python3
"""Record the reference answers the benchmark checks against.

    python3 perfbench/record.py

Runs every answer-checked request any seed can draw (and the backward
``match`` requests built from the forward answers) through the package in
``src/`` and writes ``perfbench/reference.json``: for each request key, the
exit code and the answer digest. The reference was recorded at the seed
commit. Record again only when an answer is meant to change, and say so.
The malformed requests have no reference (they must be refused); the
``malformed`` workload reports those the package does not refuse.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import execute
import workloads
from run import WORK_DIR

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from kisinweights.cli import main as cli_main

    reference = {}
    errors = []
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        for argv in workloads.reference_pool():
            result, doc = execute.run_request(cli_main, argv, tmp)
            if result["error"]:
                errors.append(f"{result['key']}: {result['error'].strip().splitlines()[-1]}")
                continue
            reference[result["key"]] = [result["exit"], result["digest"]]
            if "--j" in argv:
                back = execute.backward_argv(argv, doc)
                back_result, _ = execute.run_request(cli_main, back, tmp)
                reference[back_result["key"]] = [back_result["exit"], back_result["digest"]]
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(reference.items())]
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    exits = {}
    for code, _ in reference.values():
        exits[code] = exits.get(code, 0) + 1
    print(f"recorded {len(reference)} answers, exit codes {exits}")
    for line in errors:
        print(f"raised, not recorded: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
