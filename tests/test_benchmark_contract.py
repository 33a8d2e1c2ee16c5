"""What the benchmark in perfbench/ relies on, checked without editing it: every
probe it installs finds a target in the package, every package name it imports
exists, and every answer it recorded in perfbench/reference.json replays."""

import ast
import importlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import execute  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

from kisinweights import cli  # noqa: E402


def test_every_probe_layer_finds_a_target():
    """A probe whose target is gone is skipped, and its layer's metrics go missing
    from the report: every layer of probes.PROBES must bind at least one target."""
    tracer = probes.Tracer()
    tracer.install()
    try:
        bound = set(tracer.stats)
    finally:
        tracer.uninstall()
    layers = {layer for layer, *_ in probes.PROBES}
    assert sorted(layers - bound) == []


def test_every_name_the_probes_import_exists():
    """useful_ratios and kernel_probes import package names inside a try or not at
    all guarded: each name must still be where probes.py imports it from."""
    tree = ast.parse((PERFBENCH / "probes.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("kisinweights") for alias in node.names]
    assert len(imported) >= 10
    assert [f"{module}.{name}" for module, name in imported if not hasattr(importlib.import_module(module), name)] == []


def test_every_reference_answer_replays(tmp_path):
    """Each request of workloads.reference_pool(), and the backward match built from
    each forward answer, gives the exit code and answer digest recorded for it."""
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    replayed, wrong = {}, []
    for argv in workloads.reference_pool():
        result, doc = execute.run_request(cli.main, argv, str(tmp_path))
        results = [result]
        if "--j" in argv:  # as perfbench/record.py recorded them
            results.append(execute.run_request(cli.main, execute.backward_argv(argv, doc), str(tmp_path))[0])
        for result in results:
            key, answer = result["key"], [result["exit"], result.get("digest")]
            replayed[key] = answer
            if answer != reference.get(key) or result["error"]:
                wrong.append(f"{key}: recorded {reference.get(key)}, got {answer} {result['error'] or ''}".rstrip())
    assert wrong == []
    assert sorted(replayed) == sorted(reference)
