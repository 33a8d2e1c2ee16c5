"""The benchmark's workloads: which `kisinweights` invocations each one makes.

A request is a dict. ``argv`` is the command line given to
``kisinweights.cli.main``; the placeholder ``{tmp}`` stands for a directory
that is fresh in every pass. ``backward_of`` (instead of ``argv``) names the
index of an earlier forward ``match`` request whose output the backward
request is built from. ``expect`` is ``"answer"`` (checked against the
recorded reference) or ``"refused"`` (must exit 2 with a refusal document).

Why each workload exists is written down in NOTES.md beside this file.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("transport", "char-audit", "tables", "queries")

# Not part of BENCHMARK.json: every malformed request, including the
# `--k`/`--f` length mismatches that the seed answers wrongly. It reports
# those failures instead of hiding them; see NOTES.md.
EXTRA_WORKLOADS = ("malformed",)

FIXED = {
    "transport": [
        "verify --suite transport --p 3 --f 2 --d 2 --k 3,1",
        "verify --suite transport --p 5 --f 3 --k 1,3,4",
        "verify --suite transport --p 3 --f 4 --k 1,3,1,3",
    ],
    "char-audit": [
        "verify --suite irr-equiv --p 5 --f 3",
        "verify --suite irr-equiv --p 5 --f 4 --k 1,3,1,3",
        "verify --suite semisimple-equiv --p 7 --f 4 --k 1,3,4,5",
    ],
    "tables": [
        "verify --suite alpha-tables --p 5 --f 4",
        "verify --suite exceptional --p 5 --f 4",
        "verify --suite pprime --p 5 --f 4",
        "verify --suite lemma71 --p 5 --f 4",
        "verify --suite alpha-id --p 5 --f 4",
        "enumerate --p 5 --f 4 --out {tmp}/enumerate.jsonl",
    ],
}

# (p, d) of every coefficient field a workload touches; set-up builds them.
FIELDS = {
    "transport": [(3, 2), (5, 1), (3, 1)],
    "char-audit": [(5, 1), (7, 1)],
    "tables": [(5, 1)],
    "queries": [(3, 1), (5, 1), (7, 1)],
    "malformed": [(3, 1), (5, 1)],
}

# The `queries` stream is not measured traffic: there are no usage logs to
# draw it from. It follows rules that need no guessed share instead (see
# NOTES.md): the four answered kinds come in equal shares, every malformed
# request comes once, and weights are drawn with equal shares per (p, f).
QUERY_KINDS = ("shift", "forward", "backward", "verify")
QUERY_PER_KIND = 375  # 4 x 375 answered requests, the 1,500 of the seed timing
QUERY_SIZES = ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 4))
# Weights per size, evenly spaced in lexicographic order. The cap bounds
# reference.json; NOTES.md gives the measurement showing the sample's latency
# is that of the whole size.
QUERY_WEIGHTS_PER_SIZE = 10
# Verify configs: every suite below at the sizes with p^f < 50, where a miss
# stays a small request (at most about 40 ms at the seed); the next sizes,
# (3, 4) and (5, 3), reach 110-310 ms, which is what `tables` measures.
VERIFY_SIZES = ((3, 2), (3, 3), (5, 2), (7, 2))
VERIFY_SUITES = ("lemma71", "alpha-id", "pprime", "exceptional", "alpha-tables")
VERIFY_WEIGHT_SUITES = ("irr-equiv", "semisimple-equiv")


def csv(values) -> str:
    return ",".join(str(v) for v in values)


def valid_weights(p: int, f: int) -> list[tuple[int, ...]]:
    """Valid irregular weights, restating the rule in the README's conventions."""
    out = []
    for k in itertools.product(range(1, p + 1), repeat=f):
        if all(ki == 1 for ki in k) or all(ki != 1 for ki in k):
            continue
        if any(k[i] == 2 and k[(i + 1) % f] == 1 for i in range(f)):
            continue
        out.append(k)
    return out


def query_weights() -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """Up to QUERY_WEIGHTS_PER_SIZE valid weights for each (p, f) of QUERY_SIZES."""
    out = {}
    for p, f in QUERY_SIZES:
        ws = valid_weights(p, f)
        n = min(len(ws), QUERY_WEIGHTS_PER_SIZE)
        out[p, f] = [ws[i * len(ws) // n] for i in range(n)]
    return out


def subsets(f: int) -> list[tuple[int, ...]]:
    return [tuple(i for i in range(f) if mask >> i & 1) for mask in range(1 << f)]


def verify_configs() -> list[str]:
    out = []
    for p, f in VERIFY_SIZES:
        out += [f"verify --suite {s} --p {p} --f {f}" for s in VERIFY_SUITES]
        for k in valid_weights(p, f):
            out += [f"verify --suite {s} --p {p} --f {f} --k {csv(k)}" for s in VERIFY_WEIGHT_SUITES]
    return out


def malformed_requests(include_known_wrong: bool) -> list[str]:
    """Requests a correct program refuses with exit 2.

    Kinds: a regular weight, an entry above p, a forbidden (2,1) pattern and
    a `--k` whose length is not `--f`. The seed answers the length mismatch
    wrongly for `match`, `verify irr-equiv` and `verify transport`; those
    come only with ``include_known_wrong``.
    """
    bad = [
        ("3", "2", "3,3"), ("5", "3", "2,4,5"),  # regular
        ("3", "2", "4,1"), ("5", "3", "1,6,3"),  # entry > p
        ("5", "2", "2,1"), ("7", "3", "3,2,1"),  # forbidden (2,1)
    ]
    mismatch = [("3", "2", "1,3,3"), ("5", "3", "1,3")]
    out = []
    for p, f, k in bad + mismatch:
        out.append(f"shift --p {p} --f {f} --k {k}")
        out.append(f"verify --suite semisimple-equiv --p {p} --f {f} --k {k}")
    for p, f, k in bad + (mismatch if include_known_wrong else []):
        out.append(f"match --p {p} --f {f} --k {k} --j 0")
        out.append(f"verify --suite irr-equiv --p {p} --f {f} --k {k}")
    for p, f, k in bad[:2] + (mismatch if include_known_wrong else []):
        out.append(f"verify --suite transport --p {p} --f {f} --k {k}")
    return out


def _split(cmd: str) -> list[str]:
    return cmd.split(" ")


def _query_stream(seed: int) -> list[dict]:
    """QUERY_PER_KIND requests of each kind plus every malformed request once,
    in an order drawn by ``seed``.

    A backward request is built from a forward one drawn among those before
    it. Verify requests share one cache directory, fresh in every pass: the
    first ones request every config once (misses), each later one draws a
    config; its second request is a ``--force`` (the cached record is checked
    against a recomputation), later ones are hits.
    """
    rng = random.Random(seed)
    weights = query_weights()
    configs = verify_configs()
    malformed = malformed_requests(include_known_wrong=False)
    kinds = [k for k in QUERY_KINDS for _ in range(QUERY_PER_KIND)]
    kinds += ["malformed"] * len(malformed)
    rng.shuffle(kinds)
    first_forward = kinds.index("forward")
    first_backward = kinds.index("backward")
    if first_backward < first_forward:
        kinds[first_backward], kinds[first_forward] = "forward", "backward"
    rng.shuffle(malformed)
    verify_order = rng.sample(configs, len(configs))
    uses = dict.fromkeys(configs, 0)
    stream: list[dict] = []
    forwards: list[int] = []
    for kind in kinds:
        if kind in ("shift", "forward"):
            p, f = rng.choice(QUERY_SIZES)
            k = csv(rng.choice(weights[p, f]))
        if kind == "shift":
            stream.append({"argv": _split(f"shift --p {p} --f {f} --k {k}"), "expect": "answer"})
        elif kind == "forward":
            J = csv(rng.choice(subsets(f)))
            forwards.append(len(stream))
            stream.append({"argv": ["match", "--p", str(p), "--f", str(f), "--k", k, "--j", J], "expect": "answer"})
        elif kind == "backward":
            stream.append({"backward_of": rng.choice(forwards), "expect": "answer"})
        elif kind == "verify":
            cmd = verify_order.pop() if verify_order else rng.choice(configs)
            uses[cmd] += 1
            argv = _split(cmd) + ["--cache", "{tmp}/cache"] + (["--force"] if uses[cmd] == 2 else [])
            stream.append({"argv": argv, "expect": "answer"})
        else:
            stream.append({"argv": _split(malformed.pop()), "expect": "refused"})
    return stream


def plan(workload: str, seed: int) -> list[dict]:
    """The requests of one pass of ``workload``, in the order drawn by ``seed``."""
    if workload == "queries":
        return _query_stream(seed)
    if workload == "malformed":
        cmds = malformed_requests(include_known_wrong=True)
        return [{"argv": _split(c), "expect": "refused"} for c in cmds]
    cmds = list(FIXED[workload])
    random.Random(seed).shuffle(cmds)
    return [{"argv": _split(c), "expect": "answer"} for c in cmds]


def reference_pool() -> list[list[str]]:
    """Every answer-checked argv any seed can draw, except backward requests.

    Backward requests are derived from forward answers; the recorder adds them.
    """
    cmds = [c for name in FIXED for c in FIXED[name]]
    sample = [(p, f, k) for (p, f), ks in query_weights().items() for k in ks]
    for p, f, k in sample:
        cmds.append(f"shift --p {p} --f {f} --k {csv(k)}")
    cmds += verify_configs()
    pool = [_split(c) for c in cmds]
    for p, f, k in sample:
        for J in subsets(f):
            pool.append(["match", "--p", str(p), "--f", str(f), "--k", csv(k), "--j", csv(J)])
    return pool
