"""Run one request through ``kisinweights.cli.main`` in this process and
reduce its answer to a digest that can be compared with the reference.

The digest leaves out what legitimately changes between correct versions:
for ``verify`` only ``suite``, ``params``, ``outcome`` and ``detail`` count
(not ``wall_time_ms``, ``fingerprint`` or ``cache``); ``shift`` and ``match``
count as the whole document; ``enumerate`` counts as its stream of lines.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import statistics
import threading
import time
import traceback

VERIFY_ANSWER_FIELDS = ("suite", "params", "outcome", "detail")


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def request_key(argv: list[str]) -> str:
    """Reference key of an argv: cache flags do not change the answer."""
    out = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--cache":
            skip = True
        elif arg != "--force":
            out.append(arg)
    return " ".join(out)


def backward_argv(forward_argv: list[str], doc) -> list[str] | None:
    """The backward `match` request rebuilt from a forward answer."""
    try:
        jprime = ",".join(str(i) for i in doc["Jprime"])
        jtheta = ",".join(str(i) for i in doc["Jtheta"])
    except (KeyError, TypeError):
        return None
    head = forward_argv[: forward_argv.index("--j")]
    return head + ["--jprime", jprime, "--jtheta", jtheta]


def _is_refusal(doc) -> bool:
    return isinstance(doc, dict) and (
        doc.get("valid") is False or doc.get("error") == "invalid" or doc.get("outcome") == "refused"
    )


def _digest_lines(path: str) -> str:
    h = hashlib.sha256()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            h.update(canonical(json.loads(line)).encode())
            h.update(b"\n")
    return h.hexdigest()[:16]


def run_request(main, argv: list[str], tmp: str) -> tuple[dict, object]:
    """Call ``main(argv)`` with ``{tmp}`` filled in.

    Returns the result (key, exit code, digest, refusal flag, cache state,
    error, latency) and the parsed stdout document (None if there is none).
    An exception escaping ``main`` is recorded, never raised.
    """
    real = [a.replace("{tmp}", tmp) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(real)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the benchmark must survive any failure of the program
        error = traceback.format_exc(limit=-3)
    ms = (time.perf_counter() - start) * 1000.0
    result = {"key": request_key(argv), "exit": code, "ms": ms, "error": error}
    doc = None
    text = out.getvalue()
    if error is None:
        try:
            doc = json.loads(text) if text else None
            if argv[0] == "enumerate":
                result["digest"] = _digest_lines(real[real.index("--out") + 1])
            elif argv[0] == "verify":
                result["digest"] = hashlib.sha256(
                    canonical({k: doc.get(k) for k in VERIFY_ANSWER_FIELDS}).encode()
                ).hexdigest()[:16]
                result["cache"] = doc.get("cache")
            else:
                result["digest"] = hashlib.sha256(canonical(doc).encode()).hexdigest()[:16]
        except (ValueError, AttributeError, OSError) as exc:
            result["error"] = f"unreadable output: {exc!r}"
    result["refused"] = code == 2 and _is_refusal(doc)
    return result, doc


# The speed of a shared machine's vCPU drifts by tens of percent from one
# second to the next, and the two vCPUs drift independently. So the child
# runs pinned to one CPU (run.py), and while the requests run a thread of it
# times a fixed snippet of pure-Python work every SAMPLE_INTERVAL_S. The
# snippet never touches the package; it mixes the kinds of work the package
# does: calls, small tuples and frozensets, set lookups, int arithmetic.
# Each request is reported with the median snippet time during it (widened
# by SAMPLE_WINDOW_S on each side), so that its latency can be scaled to a
# reference speed. The snippet takes about 2% of the pass.
SAMPLE_INTERVAL_S = 0.05
SAMPLE_WINDOW_S = 0.1
SAMPLE_ITERATIONS = 1000


def _mix(a: int, b: int) -> int:
    return (a * a + b) % 65537


def calibration_snippet() -> float:
    """Seconds the calibration snippet takes now.

    The collector is paused so that the size of the package's heap does not
    leak into the snippet's time.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        seen = set()
        for i in range(SAMPLE_ITERATIONS):
            key = frozenset((i % 17, i % 23, (i, acc % 5)))
            if key in seen:
                acc += 1
            else:
                seen.add(key)
            acc = _mix(acc, i) + len(key)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedSampler:
    """Times ``calibration_snippet`` on a thread while the requests run."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append((time.perf_counter(), calibration_snippet()))

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def snippet_ms(self, start: float, end: float) -> float:
        """Median snippet time in [start - window, end + window], else the nearest."""
        near = [s for t, s in self.samples if start - SAMPLE_WINDOW_S <= t <= end + SAMPLE_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return statistics.median(near) * 1000.0


def run_pass(main, requests: list[dict], tmp: str) -> list[dict]:
    """Run the requests in order, closed loop, building backward requests
    from the forward answers they refer to; each result gets the snippet
    time measured around it as ``calibration_ms``."""
    results = []
    spans = []
    forward = {}
    with SpeedSampler() as sampler:
        for i, req in enumerate(requests):
            argv = req.get("argv")
            if argv is None:
                src_argv, src_doc = forward.get(req["backward_of"], (None, None))
                argv = backward_argv(src_argv, src_doc) if src_argv else None
                if argv is None:
                    results.append({"key": f"backward of request {req['backward_of']}", "exit": None,
                                    "ms": 0.0, "error": "forward answer unusable", "refused": False})
                    spans.append((time.perf_counter(),) * 2)
                    continue
            start = time.perf_counter()
            result, doc = run_request(main, argv, tmp)
            spans.append((start, time.perf_counter()))
            if argv[0] == "match" and "--j" in argv:
                forward[i] = (argv, doc)
            results.append(result)
        time.sleep(SAMPLE_INTERVAL_S * 2)  # a sample after the last request
    for result, (start, end) in zip(results, spans):
        result["calibration_ms"] = sampler.snippet_ms(start, end)
    return results
