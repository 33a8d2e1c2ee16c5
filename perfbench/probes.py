"""Tracing from outside the program: probes rebind public names of the
``kisinweights`` modules to timing wrappers for one traced pass.

Coarse entry points record one span per call (name, parent, request, start,
end). Hot leaf calls only add to per-layer counters, so the trace stays
small. Both kinds share one stack, so every layer gets a self time: its
time minus the time of the probed calls it made.

Modules import by name (``from .ranktwo import transport_forward``), so a
probe rebinds the name in every ``kisinweights.*`` module that holds the
same object. A probe whose target no longer exists is skipped and its
metrics are absent from the report.
"""

from __future__ import annotations

import importlib
import random
import statistics
import sys
import time

SPAN, COUNT = "span", "count"

# (layer, owner, attribute, kind). The owner is a module of the package (or
# "json"), optionally followed by a class name. Layers are named after
# modules; several targets may feed one layer.
PROBES = (
    ("cli.main", "cli", "main", SPAN),
    ("cli.parse", "cli", "build_parser", SPAN),
    ("cli.command", "cli", "cmd_shift", SPAN),
    ("cli.command", "cli", "cmd_match", SPAN),
    ("cli.command", "cli", "cmd_verify", SPAN),
    ("cli.command", "cli", "cmd_enumerate", SPAN),
    ("cli.run_suite", "cli", "run_suite", SPAN),
    ("cli.serialize", "cli", "jsonable", COUNT),
    ("cli.serialize", "cli", "dumps", COUNT),
    ("cli.serialize", "cli", "_write_out", COUNT),
    ("cli.cache.io", "cli", "_atomic_write", COUNT),
    ("cli.cache.io", "json", "load", COUNT),
    ("matching.semisimple_equivalence_audit", "matching", "semisimple_equivalence_audit", SPAN),
    ("matching.forward_sets", "matching", "forward_sets", SPAN),
    ("matching.backward", "matching", "backward_from_theta", SPAN),
    ("matching.backward", "matching", "backward_from_mus", SPAN),
    ("matching.appendix_alpha_audit", "matching", "appendix_alpha_audit", SPAN),
    ("matching.exceptional_audit", "matching", "exceptional_audit", SPAN),
    ("matching.subspace_transport_audit", "matching", "subspace_transport_audit", SPAN),
    ("matching.achievable_pairs", "matching", "achievable_pairs", COUNT),
    ("quadratic.irr_equivalence_audit", "quadratic", "irr_equivalence_audit", SPAN),
    ("quadratic.char_exponent", "quadratic", "char_exponent", COUNT),
    ("ranktwo.transport_forward", "ranktwo", "transport_forward", COUNT),
    ("ranktwo.check_phi_morphism", "ranktwo", "check_phi_morphism", COUNT),
    ("rankone.alpha_seq", "rankone", "alpha_seq", COUNT),
    ("rankone.hom_exists", "rankone", "hom_exists", COUNT),
    ("rankone.decompose_cyclic", "rankone", "decompose_cyclic", COUNT),
    ("weights.st_sequences", "weights", "st_sequences", COUNT),
    ("weights.tables", "weights", "ht_table", COUNT),
    ("weights.tables", "weights", "bprime_table", COUNT),
    ("weights.tables", "weights", "bmu_table", COUNT),
    ("weights.tables", "weights", "btheta_table", COUNT),
    ("weights.marked_sets", "weights", "set_J0", COUNT),
    ("weights.marked_sets", "weights", "set_M", COUNT),
    ("weights.marked_sets", "weights", "set_Mtilde", COUNT),
    ("weights.marked_sets", "weights", "set_Mtilde2", COUNT),
    ("weights.marked_sets", "weights", "blocks", COUNT),
    ("weights.marked_sets", "weights", "validate_irregular", COUNT),
    ("chars.char_of_exponents", "chars", "char_of_exponents", COUNT),
    ("field.mul", "field.FieldElem", "__mul__", COUNT),
    ("field.inverse", "field.FieldElem", "inverse", COUNT),
    ("field.frobenius", "field", "frobenius", COUNT),
    ("field.units", "field.FiniteField", "units", COUNT),
    ("field.upoly_mul", "field.UPoly", "__mul__", COUNT),
    ("field.poly_phi", "field", "poly_phi", COUNT),
)

# Layers whose calls recurse through the probed name (``jsonable``): only
# the outermost call is timed and counted.
OUTER_ONLY = frozenset({"cli.serialize"})

# Layers at which the probe keeps what the useful-work ratios need.
RECORD_ARGS = frozenset({"matching.semisimple_equivalence_audit", "quadratic.irr_equivalence_audit"})


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(".")
    module = importlib.import_module(mod_name if mod_name == "json" else f"kisinweights.{mod_name}")
    return getattr(module, cls_name) if cls_name else module


class Tracer:
    """Spans and per-layer counters of one traced pass."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # layer -> [calls, self_s, true_results]
        self.spans: list = []  # [name, parent, request, start, end]
        self.records: dict[str, list] = {name: [] for name in RECORD_ARGS}
        self._frames = [[0.0]]  # child time accumulated under each open call
        self._open_spans = [None]
        self._bound: list = []  # (holder, attribute, original) to restore
        self.t0 = time.perf_counter()

    # -- wrappers -------------------------------------------------------

    def _wrap(self, layer: str, kind: str, fn):
        stat = self.stats.setdefault(layer, [0, 0.0, 0])
        frames, open_spans, spans = self._frames, self._open_spans, self.spans
        clock = time.perf_counter
        outer_only = layer in OUTER_ONLY
        record = self.records.get(layer)
        active = [0]

        def probe(*args, **kwargs):
            if outer_only and active[0]:
                return fn(*args, **kwargs)
            active[0] += 1
            frame = [0.0]
            frames.append(frame)
            if kind == SPAN:
                sid = len(spans)
                parent = open_spans[-1]
                request = sid if parent is None else spans[parent][2]
                spans.append([layer, parent, request, 0.0, 0.0])
                open_spans.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                frames.pop()
                frames[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                active[0] -= 1
                if kind == SPAN:
                    open_spans.pop()
                    spans[sid][3] = start - self.t0
                    spans[sid][4] = end - self.t0
            if result is True:
                stat[2] += 1
            if record is not None:
                record.append((args, result))
            if layer == "cli.parse" and hasattr(result, "parse_args"):
                result.parse_args = self._wrap("cli.parse", SPAN, result.parse_args)
            return result

        return probe

    def install(self) -> None:
        """Rebind every probe target that exists."""
        package = [m for name, m in list(sys.modules.items()) if name.startswith("kisinweights")]
        for layer, owner, attr, kind in PROBES:
            try:
                holder = _resolve(owner)
                original = holder.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                continue
            probe = self._wrap(layer, kind, original)
            self._rebind(holder, attr, original, probe)
            for module in package:
                for name, value in list(vars(module).items()):
                    if value is original and module is not holder:
                        self._rebind(module, name, original, probe)

    def _rebind(self, holder, attr, original, probe) -> None:
        self._bound.append((holder, attr, original))
        setattr(holder, attr, probe)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._bound):
            setattr(holder, attr, original)
        self._bound.clear()

    # -- report ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        by_module: dict[str, float] = {}
        for layer, (calls, self_s, _) in sorted(self.stats.items()):
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
            module = layer.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + self_s
        if "rankone.hom_exists" in self.stats:
            calls, _, trues = self.stats["rankone.hom_exists"]
            out["rankone.hom_exists.true_ratio"] = trues / calls if calls else 0.0
        for module, self_s in by_module.items():
            out[f"{module}.self_s"] = self_s
        out["trace.spans"] = len(self.spans)
        out.update(useful_ratios(self.records))
        return out


def useful_ratios(records: dict[str, list]) -> dict[str, float]:
    """Share of scanned points that lie in any achievable set.

    Computed after the pass with the package's public functions (probes
    removed), from the arguments and reports the audits were called with.
    A scan that never ran reports 0 points and a ratio of 0. A scan whose
    public functions or report fields are gone is left out.
    """
    try:
        from kisinweights.matching import achievable_pairs
        from kisinweights.quadratic import balanced_sets, char_exponent
        from kisinweights.weights import bmu_table, bprime_table, btheta_table, ht_table, set_Mtilde
    except ImportError:
        return {}

    def tables(w):
        return [ht_table(w), bprime_table(w), btheta_table(w)] + [bmu_table(w, mu) for mu in sorted(set_Mtilde(w))]

    def semisimple(args, report):
        ctx, w = args
        union = frozenset().union(*(achievable_pairs(ctx, t) for t in tables(w)))
        return sum(1 if len(pair) == 1 else 2 for pair in union), report.total

    def irr(args, report):
        (w,) = args
        p, f = w.p, w.f
        mod = p ** (2 * f) - 1
        hit = {char_exponent(t, J) for t in tables(w) for J in balanced_sets(f)}
        hit |= {e * p**f % mod for e in hit}
        return sum(1 for e in hit if (e * p**f - e) % mod != 0), report.checked

    out = {}
    for name, layer, count in (
        ("matching.semisimple_scan", "matching.semisimple_equivalence_audit", semisimple),
        ("quadratic.irr_scan", "quadratic.irr_equivalence_audit", irr),
    ):
        try:
            counted = [count(args, report) for args, report in records[layer]]
        except (AttributeError, TypeError, ValueError):
            continue
        useful = sum(u for u, _ in counted)
        points = sum(n for _, n in counted)
        out[f"{name}.points"] = points
        out[f"{name}.useful_ratio"] = useful / points if points else 0.0
    return out


# -- field kernel probes ------------------------------------------------

KERNEL_FIELDS = (("GF5", 5, 1), ("GF9", 3, 2), ("GF25", 5, 2))
KERNEL_SEED = 2506
KERNEL_SIZE = 200
KERNEL_REPEATS = 5


def kernel_probes() -> dict[str, float]:
    """Nanoseconds per field operation on fixed seeded operands.

    Only public operations are used (``make_field(p, d).elem(n)``, ``*``,
    ``.inverse()``, ``frobenius``, ``UPoly`` and ``poly_phi``), on the
    constant and monomial shapes ``ranktwo`` builds. An operation the
    package no longer offers is left out of the report.
    """
    from kisinweights.field import UPoly, frobenius, make_field, poly_phi

    out = {}
    for label, p, d in KERNEL_FIELDS:
        F = make_field(p, d)
        rng = random.Random(KERNEL_SEED)
        xs = [F.elem(rng.randrange(1, F.order)) for _ in range(KERNEL_SIZE)]
        ys = [F.elem(rng.randrange(1, F.order)) for _ in range(KERNEL_SIZE)]
        ns = [rng.randrange(0, 4) for _ in range(KERNEL_SIZE)]
        ops = {
            "mul": (lambda: (xs, ys), lambda a, b: a * b),
            "inverse": (lambda: (xs,), lambda a: a.inverse()),
            "frobenius": (lambda: (xs,), frobenius),
            "upoly_mul": (
                lambda: ([UPoly.constant(x) for x in xs], [UPoly.monomial(y, n) for y, n in zip(ys, ns)]),
                lambda a, b: a * b,
            ),
            "poly_phi": (lambda: ([UPoly.monomial(x, n) for x, n in zip(xs, ns)],), poly_phi),
        }
        for op, (operands, apply) in ops.items():
            try:
                cols = operands()
                times = []
                for _ in range(KERNEL_REPEATS):
                    start = time.perf_counter()
                    for args in zip(*cols):
                        apply(*args)
                    times.append(time.perf_counter() - start)
            except (AttributeError, TypeError):
                continue
            out[f"field.kernel.{op}_ns.{label}"] = statistics.median(times) / KERNEL_SIZE * 1e9
    return out
