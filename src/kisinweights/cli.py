"""JSON command-line frontend.

Subcommands:

- ``shift``: companion weights, marked index sets and exponent tables for a
  given weight.
- ``match``: forward construction of companion carrier sets, or backward
  reconstruction from them.
- ``verify``: named verification suites with an on-disk result cache.
- ``enumerate``: stream every (weight, carrier set) unit at a given size as
  JSON lines, with optional disjoint sharding.

All output is deterministic for a fixed configuration (the only varying
field is ``wall_time_ms``).  Integers with absolute value >= 2^53 are
serialized as decimal strings so documents survive double-precision JSON
parsers; no reader here decodes them, ``int(text)`` does.

Exit codes: 0 success / suite passed; 1 verification failure or a dichotomy
violation; 2 usage, validation or --out/--cache I/O error.

Every subcommand's options are declared once, in ``OPTIONS``, and ``main`` reads every
argv off that table: exact flags and unique prefixes, ``--opt=value`` and ``--``.  It
writes the help and the usage errors too, with the same text at any terminal width.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import sys
import tempfile
import time
from json.encoder import encode_basestring_ascii as _escape
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, NamedTuple, NoReturn, Optional, Sequence

from .field import Context
from .matching import (
    DichotomyError,
    appendix_alpha_audit,
    backward_from_mus,
    backward_from_theta,
    basis_carriers,
    exceptional_audit,
    forward_sets,
    rotate_fold,
    semisimple_equivalence_audit,
    subspace_transport_audit,
    transport_exponents,
)
from .quadratic import irr_equivalence_audit
from .rankone import (
    alpha_seq,
    decompose_cyclic,
    embedding_subsets,
    exponents_from_slopes,
    necessary_map_conditions,
)
from .weights import (
    Weight,
    blocks,
    entries_in_range,
    ht_table,
    set_J0,
    set_M,
    set_Mtilde,
    set_Mtilde2,
    validate_irregular,
    weight_classes,
    weight_count,
    weight_kmu,
    weight_kprime,
    weight_ktheta,
)

JSON_INT_LIMIT = 2**53

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# JSON encoding / decoding
# ---------------------------------------------------------------------------


def _encode(x: Any, nl: str) -> str:
    """The text of ``json.dumps(jsonable(x), sort_keys=True, indent=2)`` at the
    depth whose newline and indent is ``nl``.  It takes the exact types the
    frontend builds (int, str, bool, None, set, frozenset, list, tuple, dict)."""
    t = type(x)
    if t is int:
        try:
            return str(x) if -JSON_INT_LIMIT < x < JSON_INT_LIMIT else f'"{x}"'
        except ValueError:  # past the int-to-str digit limit, which stays in force for int() on argv
            import decimal
            return f'"{decimal.Decimal(x)}"'
    if t is not list and t is not tuple and t is not dict:
        if t is str:
            return _escape(x)
        if x is None or t is bool:
            return "null" if x is None else "true" if x else "false"
        if t is not set and t is not frozenset:
            raise TypeError(f"cannot serialize {t.__name__}")
        x = sorted(x)
    inner = nl + "  "
    if t is dict:
        # str keys first, as a later key that collides replaces the value; sorted by key only
        named = {str(k): v for k, v in x.items()}
        items = [f"{_escape(k)}: {_encode(named[k], inner)}" for k in sorted(named)]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    items = [_encode(v, inner) for v in x]
    return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"


def dumps(doc: Any) -> str:
    """``json.dumps(jsonable(doc), sort_keys=True, indent=2)`` and a newline, in one walk."""
    return _encode(doc, "\n") + "\n"


def jsonable(x: Any) -> Any:
    """The document ``dumps`` writes, read back: deterministic JSON-safe data, with big
    integers as decimal strings, tuples as lists and sets as sorted lists."""
    return json.loads(dumps(x))


def _write_out(text: str, out: Optional[str]) -> None:
    _write_lines([text], out)


def _write_lines(lines: Iterable[str], out: Optional[str]) -> None:
    """Write each chunk as it is produced, to the file ``out`` or to stdout."""
    if out is None:
        sys.stdout.writelines(lines)
        sys.stdout.flush()  # a closed pipe raises here, inside main
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


# ---------------------------------------------------------------------------
# config and argument parsing
# ---------------------------------------------------------------------------


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",")) if text.strip() else ()
    except ValueError:
        raise ValueError(f"expected comma-separated integers, e.g. 1,3, got {text.strip()!r}") from None


def _parse_shard(text: str) -> tuple[int, int]:
    idx, _, total = text.partition("/")
    try:
        i, n = int(idx), int(total)
    except ValueError:  # not i/n: refused below with the same text
        i = n = 0
    if not 0 <= i < n:
        raise ValueError("shard must be i/n with 0 <= i < n")
    return i, n


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------


def _weight_doc(w: Weight) -> dict:
    return {"k": w.k, "l": w.l, "table": ht_table(w).rows}


def cmd_shift(args: SimpleNamespace) -> int:
    Context(args.p, args.f)  # refuses a bad p or f
    w = Weight(args.p, args.k, args.l or ())
    doc: dict[str, Any] = {"p": args.p, "f": args.f, "k": w.k, "l": w.l}
    try:
        validate_irregular(w)
    except ValueError as err:
        doc["valid"] = False
        doc["reason"] = str(err)
        if args.allow_alt and entries_in_range(w.p, w.k):  # no companion for an out-of-range entry
            doc["ktheta_alt"] = _weight_doc(weight_ktheta(w, alternative=True))
        _write_out(dumps(doc), args.out)
        return EXIT_OK if "ktheta_alt" in doc else EXIT_USAGE
    doc["valid"] = True
    doc["table"] = ht_table(w).rows
    doc["J0"] = set_J0(w)
    doc["M"] = set_M(w)
    doc["Mtilde"] = set_Mtilde(w)
    doc["Mtilde2"] = set_Mtilde2(w)
    doc["blocks"] = [
        {"indices": blk.indices, "head": blk.head, "tail": blk.tail, "marked": blk.nu}
        for blk in blocks(w)
    ]
    doc["kprime"] = _weight_doc(weight_kprime(w))
    doc["kmu"] = {mu: _weight_doc(weight_kmu(w, mu)) for mu in sorted(set_Mtilde(w))}
    doc["ktheta"] = _weight_doc(weight_ktheta(w))
    doc["ktheta_alt"] = _weight_doc(weight_ktheta(w, alternative=True))
    _write_out(dumps(doc), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------


def cmd_match(args: SimpleNamespace) -> int:
    ctx = Context(args.p, args.f)
    w = Weight(args.p, args.k)
    doc: dict[str, Any] = {"p": args.p, "f": args.f, "k": w.k}
    mus = {}
    for item in args.jmu:
        try:
            mu_text, idxs_text = item.split(":")
            mu, idxs = int(mu_text), _ints(idxs_text)
        except ValueError:
            raise ValueError(f"--jmu must be MU:IDXS, e.g. 0:0,1, got {item!r}") from None
        if mu in mus:
            raise ValueError(f"--jmu gives marked index {mu} twice")
        mus[mu] = idxs
    jmu = [*mus, *itertools.chain.from_iterable(mus.values())]
    for flag, idxs in (("--j", args.j), ("--jprime", args.jprime), ("--jtheta", args.jtheta), ("--jmu", jmu)):
        bad = [i for i in idxs or () if not 0 <= i < ctx.f]
        if bad:
            raise ValueError(f"{flag} indices must lie in [0, {ctx.f - 1}], got {bad[0]}")
    forward = args.j is not None
    backward = args.jprime is not None
    if forward == backward:
        raise ValueError("give exactly one of --j (forward) or --jprime (backward)")
    if forward and (mus or args.jtheta is not None):
        raise ValueError("--jtheta and --jmu belong to the backward direction, not --j")
    if forward:
        fs = forward_sets(ctx, w, args.j)
        doc["direction"] = "forward"
        doc["J"] = fs.J
        doc["Jprime"] = fs.Jprime
        doc["Jtheta"] = fs.Jtheta
        doc["Jmu"] = dict(fs.Jmu)
        # forward_sets raises unless every congruence holds
        doc["congruences"] = {side.name: {"upper": True, "lower": True} for side in fs.sides}
        _write_out(dumps(doc), args.out)
        return EXIT_OK
    doc["direction"] = "backward"
    if mus and args.jtheta is not None:
        raise ValueError("give either --jmu entries or --jtheta, not both")
    if mus:
        J = backward_from_mus(ctx, w, args.jprime, mus)
    elif args.jtheta is not None:
        J = backward_from_theta(ctx, w, args.jprime, args.jtheta)
    else:
        raise ValueError("backward direction needs --jtheta or --jmu entries")
    doc["J"] = J
    _write_out(dumps(doc), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def suite_lemma71(ctx: Context, k: Optional[tuple[int, ...]]) -> dict:
    """Decompose every r in [-p, p]^f whose weighted sum is divisible by
    m = p^f - 1, in the ascending order of a scan of the whole cube.

    Those r are solved for, not scanned.  m * alpha_{f-1} is the weighted
    sum and alpha_i + r_i = p * alpha_{i-1} gives the other slopes, so the
    sum is divisible exactly when every slope is an integer.  With
    |r_i| <= p, |alpha_i| <= p/(p-1) < 2, so the slopes lie in {-1, 0, 1}^f
    and r = exponents_from_slopes(p, alpha), kept where max |r_i| <= p.
    ``scanned`` counts the whole cube, (2p+1)^f.
    """
    p, f = ctx.p, ctx.f
    rs = (exponents_from_slopes(p, slopes) for slopes in itertools.product((-1, 0, 1), repeat=f))
    congruent = sorted(r for r in rs if max(map(abs, r)) <= p)
    for r in congruent:
        if decompose_cyclic(p, r).recompose() != r:
            return {"outcome": "fail", "counterexample": {"r": r}}
    return {"outcome": "pass", "scanned": (2 * p + 1) ** f, "congruent": len(congruent)}


def suite_pprime(ctx: Context, k: Optional[tuple[int, ...]]) -> dict:
    """Check necessary_map_conditions(p, r, J) for every r in [0, p]^f and
    carrier set J with a map from the line h (r on J, 0 off it) to the line
    rem (0 on J, r off it), in the ascending (r, mask of J) order of a scan.

    Those (r, J) are solved for, not scanned.  Both lines carry the scalar
    1, so the map exists exactly when d = h - rem (r_i on J, -r_i off J) has
    slopes in Z_{>=0}.  With |d_i| <= p every slope has absolute value
    below p/(p-1) < 2, so d = exponents_from_slopes(p, alpha) for some
    alpha in {0, 1}^f; each such d has entries p * alpha_{i-1} - alpha_i in
    {-1, 0, p-1, p}, so none is out of range.  Each d comes from exactly
    the (r, J) with r_i = |d_i|, J holding every i with d_i > 0 and no i
    with d_i < 0, and J free where d_i = 0.
    """
    p, f = ctx.p, ctx.f
    maps = []
    for slopes in itertools.product((0, 1), repeat=f):
        d = exponents_from_slopes(p, slopes)
        r = tuple(map(abs, d))
        forced = sum(1 << i for i, di in enumerate(d) if di > 0)
        free = [1 << i for i, di in enumerate(d) if di == 0]
        for picks in itertools.product((0, 1), repeat=len(free)):
            maps.append((r, forced + sum(bit for bit, pick in zip(free, picks) if pick)))
    maps.sort()
    subsets = embedding_subsets(f)
    for r, mask in maps:
        if not necessary_map_conditions(p, r, subsets[mask]):
            return {"outcome": "fail", "counterexample": {"r": r, "J": subsets[mask]}}
    return {"outcome": "pass", "maps_checked": len(maps)}


def suite_alpha_id(ctx: Context, k: Optional[tuple[int, ...]]) -> dict:
    """Check alpha_i + r_i = p * alpha_{i-1} at r = 0 and the unit vectors: both
    sides are linear in r, so this proves it on [0, p]^f.  A failure names a
    basis vector, maybe not the first failure of a scan."""
    p, f = ctx.p, ctx.f
    for r in [(0,) * f, *(tuple(int(i == b) for i in range(f)) for b in range(f))]:
        alpha = [alpha_seq(p, r, i) for i in range(f)]
        for i in range(f):
            if alpha[i] + r[i] != p * alpha[i - 1]:
                return {"outcome": "fail", "counterexample": {"r": r, "i": i}}
    return {"outcome": "pass", "identities_checked": (p + 1) ** f * f}


# tau: the letter min(k_i, 3) of k_i in its type word (weights.weight_classes)
_type_letter = functools.partial(min, 3)
_value_letter = int  # each value its own letter: every valid weight


def suite_alpha_tables(ctx: Context, k: Optional[tuple[int, ...]]) -> dict:
    """Audit each valid type word's representative (weights.weight_classes),
    one per rotation class by its rotation lemma, at its f+1 basis carriers,
    which proves all 2^f carrier sets of every weight of the class
    (matching.basis_carriers), counted in ``configurations``.  A broken table
    still fails, maybe at another weight or J than a scan would."""
    configurations = 0
    for w, n in weight_classes(ctx.p, ctx.f, _type_letter, rotations=True):
        for J in basis_carriers(ctx.f):
            appendix_alpha_audit(ctx, w, J)
        configurations += n * 2**ctx.f
    return {"outcome": "pass", "configurations": configurations}


def suite_exceptional(ctx: Context, k: Optional[tuple[int, ...]]) -> dict:
    """exceptional_audit of the representative of each valid class word, with letters k_i for
    k_i <= 3 or k_i >= p-1 and 4 for the rest.  Every gap k_i, k_i - 1 or k_i - 2 of a 4 lies
    outside {0, 1, p-1, p}, all that in_Pprime and the need and avoid sets read, so a word's
    weights share the report, counted by multiplicity.  The walk takes only the live windows
    (k_{i-1}, k_i, k_{i+1}) of exceptional_audit's lemma, one word per rotation class; as it
    skips (2, 2, 2) at every p, ``weights`` is weights.weight_count.  A failure names a
    representative: a valid weight, maybe not the first failing one of a per-weight scan."""
    p = ctx.p
    classify = lambda x: x if x <= 3 or x >= p - 1 else 4
    letters = set(map(classify, range(1, p + 1)))
    sides = lambda a, b: (p - 1 if b == 1 else p,) if a == 1 else (a - 2, a) if b == 1 else (a - 1,)  # r_i at k_i, k_{i+1}
    passes = lambda x, y: y in (0, 1, p - 1, p) and (x in (1, p - 1)) == (y in (p - 1, p))  # in_Pprime at i
    windows = {(a, b, c) for a in letters for b in letters for c in letters
               if passes(a - 1, b - 1) or any(passes(x, y) for x in sides(a, b) for y in sides(b, c))}
    unconstrained = 0
    for w, n in weight_classes(p, ctx.f, classify, windows, rotations=True):
        report = exceptional_audit(ctx, w)
        unconstrained += n * len(report.unconstrained_hits)
        if not report.ok:
            hits = {"irregular_hits": report.irregular_hits, "constrained_hits": report.constrained_hits}
            return {"outcome": "fail", "counterexample": {"k": w.k, **hits}}
    return {"outcome": "pass", "weights": weight_count(p, ctx.f), "unconstrained_hits": unconstrained}


def suite_semisimple_equiv(ctx: Context, k: Optional[tuple[int, ...]]) -> dict:
    report = semisimple_equivalence_audit(ctx, Weight(ctx.p, k))
    if report.ok:
        return {"outcome": "pass", "pairs": report.total}
    return {"outcome": "fail", "counterexample": report.counterexamples[:5]}


def suite_transport(ctx: Context, k: Optional[tuple[int, ...]]) -> dict:
    """Audit the f+1 basis carriers, which decide every J: forward_sets'
    congruences by matching.basis_carriers, and the rest as follows.  Each
    per-index quantity reads one bit of J, so the basis shows both values of each
    effectiveness test.  cN and cP are integer_slopes (linear) of the affine
    ss - s and ts - t, so affine in J: integral at every J once integral at the
    basis, and cN_{i-1} = 0, cP_i = twist_i on the face i in J once they hold at
    its basis carriers.  c >= 0 is an inequality: min over J of c_i is
    c_i(Z/f) + sum_b min(0, c_i(Z/f - {b}) - c_i(Z/f)), at Z/f less each b of a
    negative term, where the audit raises its own message.  The audit reads no
    unit pair, so families_transported is 2^f * #sides * (p^d-1)^2."""
    w = Weight(ctx.p, k)
    full, *minus = basis_carriers(ctx.f)
    reports, exponents = zip(*(transport_exponents(ctx, w, J) for J in (full, *minus)))
    for c, *cb in zip(*exponents):  # one side's cN or cP at each basis carrier
        for i, ci in enumerate(c):
            drop = {b for b, x in enumerate(cb) if x[i] < ci}
            if ci + sum(cb[b][i] - ci for b in drop) < 0:
                subspace_transport_audit(ctx, w, full - drop)
                raise AssertionError(f"twist exponents are not affine in J at {sorted(full - drop)}")
    return {"outcome": "pass", "families_transported": 2**ctx.f * len(reports[0].sides) * (ctx.p**ctx.d - 1) ** 2}


def suite_irr_equiv(ctx: Context, k: Optional[tuple[int, ...]]) -> dict:
    """irr_equivalence_audit of the weight --k, or without it of one weight per
    rotation class of the valid weights (weight_classes' rotation lemma), with
    ``weights`` and ``exponents_checked`` summed by multiplicity.  A failure
    names a valid weight, maybe a rotation of the first failing one of a scan."""
    weights = [(Weight(ctx.p, k), 1)] if k is not None else weight_classes(ctx.p, ctx.f, _value_letter, rotations=True)
    count = total = 0
    for w, n in weights:
        report = irr_equivalence_audit(w)
        count, total = count + n, total + n * report.checked
        if not report.ok:
            return {"outcome": "fail", "counterexample": {"k": w.k, "exponents": report.counterexamples[:5]}}
    return {"outcome": "pass", "weights": count, "exponents_checked": total}


SUITES = {
    "lemma71": suite_lemma71,
    "pprime": suite_pprime,
    "alpha-id": suite_alpha_id,
    "alpha-tables": suite_alpha_tables,
    "exceptional": suite_exceptional,
    "semisimple-equiv": suite_semisimple_equiv,
    "transport": suite_transport,
    "irr-equiv": suite_irr_equiv,
}

# Suites that audit the weight given by --k; the first two need one.  The rest refuse it.
NEEDS_K = frozenset({"semisimple-equiv", "transport"})
WEIGHT_SUITES = NEEDS_K | {"irr-equiv"}
# Suites that audit every valid weight of the size when given no --k.
SIZE_SUITES = frozenset({"alpha-tables", "exceptional", "irr-equiv"})


EXIT_CODES = {"pass": EXIT_OK, "fail": EXIT_FAIL, "refused": EXIT_USAGE}
RECORD_FIELDS = frozenset({"suite", "params", "outcome", "detail"})


@functools.lru_cache(maxsize=None)
def _fingerprint() -> str:
    """sha256 of the package sources and the interpreter version, computed on
    first use: the digest of the ``sha256sum *.py`` listing of the package
    directory.  Any edit to a source file or another interpreter changes it,
    and with it every cache key."""
    here = os.path.dirname(os.path.abspath(__file__))
    listing = ""
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            listing += f"{hashlib.sha256(fh.read()).hexdigest()}  {name}\n"
    return f"kisinweights sha256:{hashlib.sha256(listing.encode()).hexdigest()} / python {sys.version.split()[0]}"


def _record_key(suite: str, params: dict) -> str:
    payload = dumps({"suite": suite, "params": params, "fingerprint": _fingerprint()})
    return hashlib.sha256(payload.encode()).hexdigest()


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_record(path: str, suite: str, params: dict) -> Optional[dict]:
    """The cached record at path, or None when it is missing, unreadable or
    not a record of this suite and these parameters."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if not (isinstance(doc, dict) and RECORD_FIELDS <= doc.keys() and isinstance(doc["detail"], dict)
            and isinstance(doc["outcome"], str) and doc["outcome"] in EXIT_CODES):
        return None
    return doc if doc["suite"] == suite and doc["params"] == jsonable(params) else None


def _stable_view(record_doc: dict) -> dict:
    view = dict(record_doc)
    view.pop("wall_time_ms", None)
    return view


def run_suite(suite: str, ctx: Context, k: Optional[tuple[int, ...]], params: dict) -> dict:
    """The record of one run of the request ``params``.  Refuse input the suite
    cannot take (a missing --k, a --k it does not read, an invalid weight, a size
    with no valid weight to audit); an error the suite itself raises is a failure."""
    start = time.monotonic()
    try:
        if k is None and suite in NEEDS_K:
            raise ValueError("suite needs --k")
        if k is not None:
            if suite not in WEIGHT_SUITES:
                raise ValueError("suite takes no --k")
            validate_irregular(Weight(ctx.p, k))
        elif suite in SIZE_SUITES and weight_count(ctx.p, ctx.f) == 0:
            raise ValueError("no valid irregular weight at this size")
    except ValueError as err:
        result = {"outcome": "refused", "reason": str(err)}
    else:
        try:
            result = SUITES[suite](ctx, k)
        except (ValueError, AssertionError) as err:
            result = {"outcome": "fail", "reason": str(err)}
    elapsed = int((time.monotonic() - start) * 1000)
    return {"suite": suite, "params": params, "outcome": result.pop("outcome"), "detail": result,
            "wall_time_ms": elapsed, "fingerprint": _fingerprint()}


def cmd_verify(args: SimpleNamespace) -> int:
    ctx = Context(args.p, args.f, args.d)
    params = {"p": ctx.p, "f": ctx.f, "d": ctx.d, "k": list(args.k) if args.k else None}
    cache_path = None
    cached_doc = None
    if args.cache is not None:
        os.makedirs(args.cache, exist_ok=True)
        cache_path = os.path.join(args.cache, _record_key(args.suite, params) + ".json")
        cached_doc = _read_record(cache_path, args.suite, params)

    if cached_doc is not None and not args.force:
        doc = cached_doc
        doc["cache"] = "hit"
    else:
        text = dumps(run_suite(args.suite, ctx, args.k, params))
        doc = json.loads(text)  # jsonable(record)
        if cache_path is not None:
            _atomic_write(cache_path, text)
        if cached_doc is not None and args.force:
            doc["cache"] = (
                "recomputed-match"
                if _stable_view(cached_doc) == _stable_view(doc)
                else "recomputed-mismatch"
            )
        else:
            doc["cache"] = "miss" if cache_path else "off"

    _write_out(dumps(doc), args.out)
    return EXIT_CODES[doc["outcome"]]


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def cmd_enumerate(args: SimpleNamespace) -> int:
    """Stream every unit, weights ascending: the products of each valid type word's letters'
    values (weights.weight_classes), merged on a heap that a word joins at its least weight
    and leaves after its last.  Each rotation class is proven once, by forward_sets at the
    basis carriers of its least word, at its first weight with a unit in the shard; a word
    rotates that proof's fold (matching.rotate_fold), XOR-folds each J's carriers off it
    (basis_carriers) and at p > 3 keeps its line prefix per J.  Against a proof per type word,
    one process each (2-vCPU x86-64): p3 f10 shard 5/1024 8.2 -> 1.4 s, p3 f12 shard 5/4096 67 -> 11 s."""
    import heapq

    p, f = args.p, args.f
    ctx, size, full = Context(p, f), 1 << f, (1 << f) - 1
    shard_i, shard_n = args.shard
    texts = [str(sorted(J)) for J in embedding_subsets(f)]  # the JSON of each J, by bit mask
    pack = lambda carriers: sum(1 << s * f + i for s, C in enumerate(carriers) for i in C)  # side s: bits s*f..
    proofs: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}  # each rotation class's fold and nus, by its least word

    def prove(word: tuple[int, ...]) -> Callable[[int], str]:
        rotations = [word[r:] + word[:r] for r in range(f)]
        if (least := min(rotations)) not in proofs:
            at_full, *at_drops = [forward_sets(ctx, Weight(p, least), J) for J in basis_carriers(f)]
            fold = (pack(at_full.carriers), *(pack(map(frozenset.symmetric_difference, at_full.carriers, fs.carriers)) for fs in at_drops))
            proofs[least] = fold, tuple(min(side.theta) for side in at_full.sides[1:-1])  # tuples: one per class is kept
        (fold, nus), r = proofs[least], rotations.index(least)
        base, *terms = rotate_fold(fold, f, nus, r)
        last, marked = (len(nus) + 1) * f, sorted((str(nu), s * f) for s, nu in enumerate(sorted((nu + r) % f for nu in nus), 1))

        def prefix(mask: int) -> str:
            carriers = base
            for b, term in enumerate(terms):
                if not mask >> b & 1:
                    carriers ^= term
            # json.dumps(jsonable(record), sort_keys=True) less "k" and "unit", which sort last: str()
            # of a list of small ints is its JSON, and the Jmu keys sort as strings
            Jmu = ", ".join([f'"{mu}": {texts[carriers >> at & full]}' for mu, at in marked])
            return (f'{{"J": {texts[mask]}, "Jmu": {{{Jmu}}}, '
                    f'"Jprime": {texts[carriers & full]}, "Jtheta": {texts[carriers >> last]}, ')

        return prefix

    def weights() -> Iterator[tuple[tuple[int, ...], list[Callable[[int], str]]]]:
        values = {1: (1,), 2: (2,), 3: tuple(range(3, p + 1))}
        heap: list[tuple[tuple[int, ...], Iterator[tuple[int, ...]], list[Callable[[int], str]]]] = []
        for word in itertools.chain((w.k for w, _ in weight_classes(p, f, _type_letter)), [None]):
            while heap and (word is None or heap[0][0] < word):
                k, expansion, slot = heap[0]
                yield k, slot
                if (k := next(expansion, None)) is None:
                    heapq.heappop(heap)
                else:
                    heapq.heapreplace(heap, (k, expansion, slot))
            if word is not None:
                expansion = itertools.product(*map(values.get, word))
                heapq.heappush(heap, (next(expansion), expansion, []))

    def lines() -> Iterator[str]:
        for first, (k, slot) in zip(itertools.count(0, size), weights()):
            if not (masks := range((shard_i - first) % shard_n, size, shard_n)):
                continue
            if not slot:  # at p > 3 the word has several weights and keeps its prefix per J
                prefix = prove(tuple(map(_type_letter, k)))
                slot.append(functools.lru_cache(maxsize=None)(prefix) if p > 3 else prefix)
            tail = f'"k": {list(k)}, "unit": '
            yield "".join([f"{slot[0](mask)}{tail}{first + mask}}}\n" for mask in masks])

    _write_lines(lines(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class Option(NamedTuple):
    """One option of a subcommand.  ``convert`` raises ValueError on a bad value.  An
    action is store (the last value counts), append (every value) or store_true (a switch);
    usage and help name the value by ``metavar``, else ``choices``, else the flag in capitals."""

    flag: str
    help: str
    convert: Callable[[str], Any] = str
    required: bool = False
    default: Any = None
    action: str = "store"  # store | store_true | append, and help for -h
    metavar: Optional[str] = None
    choices: Optional[Sequence[str]] = None


_CONTEXT = (Option("--p", "odd prime", int, True), Option("--f", "number of embedding indices", int, True))
_K = Option("--k", "weight, comma-separated", _ints, True)
_OUT = Option("--out", "write the document here instead of stdout")

# The command line, declared once: each subcommand's help and its options in --help order.
OPTIONS = {
    "shift": ("companion weights and tables", (*_CONTEXT, _K, _OUT,
        Option("--l", "twist part, comma-separated", _ints),
        Option("--allow-alt", "emit the alternative fully-marked weight even when the weight is refused", default=False, action="store_true"))),
    "match": ("carrier-set matching", (*_CONTEXT, _K, _OUT,
        Option("--j", "carrier set for the forward direction", _ints),
        Option("--jprime", "base carrier set (backward direction)", _ints),
        Option("--jtheta", "fully-marked carrier set (backward)", _ints),
        Option("--jmu", "marked carrier set, e.g. 0:0,1 (repeatable)", default=[], action="append", metavar="MU:IDXS"))),
    "verify": ("run a named verification suite", (*_CONTEXT, Option("--d", "coefficient field degree", int, default=1), _OUT,
        Option("--suite", "suite name", required=True, choices=sorted(SUITES)),
        Option("--k", "weight for weight-specific suites", _ints),
        Option("--cache", "result cache directory"),
        Option("--force", "recompute and compare against any cached record", default=False, action="store_true"))),
    "enumerate": ("stream (weight, carrier set) units as JSON lines", (*_CONTEXT, _OUT,
        Option("--shard", "emit only shard I of N", _parse_shard, default=(0, 1), metavar="I/N"))),
}


_HELP = Option("-h/--help", "show this help message and exit", action="help")


def _stop(sub: Optional[str], error: Optional[str] = None) -> NoReturn:
    """A usage error on stderr with exit 2, or (no error) the help of the root (sub None) or of
    a subcommand on stdout with exit 0, as argparse lays it out on a terminal too wide to wrap."""
    def shown(o: Option) -> str:  # --p P, --suite {a,b}, --force
        return o.flag if o.action == "store_true" else f"{o.flag} {o.metavar or ('{' + ','.join(o.choices) + '}' if o.choices else o.flag[2:].upper())}"

    options = OPTIONS[sub][1] if sub else ()
    parts = [shown(o) if o.required else f"[{shown(o)}]" for o in options] if sub else ["{" + ",".join(OPTIONS) + "}", "..."]
    usage = " ".join(["usage: kisinweights", *([sub] if sub else []), "[-h]", *parts])
    if error is not None:
        sys.stderr.write(f"{usage}\n{'kisinweights ' + sub if sub else 'kisinweights'}: error: {error}\n")
        raise SystemExit(EXIT_USAGE)
    rows = [("-h, --help", _HELP.help), *((shown(o), o.help) for o in options)]
    width = min(24, 4 + max(len(left) for left, _ in rows)) if sub else 24  # each help text's column
    subs = "".join(f"    {name:<18}  {text}\n" for name, (text, _) in OPTIONS.items())
    root = f"Exact weight-shift, matching and verification queries.\n\npositional arguments:\n  {{{','.join(OPTIONS)}}}\n{subs}\n"
    sys.stdout.write(f"{usage}\n\n{'' if sub else root}options:\n" + "".join(
        f"  {left:<{width - 4}}  {text}\n" if len(left) <= width - 4 else f"  {left}\n{'':{width}}{text}\n" for left, text in rows))
    raise SystemExit(EXIT_OK)


def _lookup(token: str, flags: dict[str, Option], sub: str) -> tuple[Optional[Option], Optional[str]]:
    """The option a token names by its flag or a unique prefix, and its value after "=" or None."""
    name, eq, value = token.partition("=")
    found = [name] if name in flags else [flag for flag in flags if flag.startswith(name)] if name.startswith("--") else []
    if len(found) > 1:
        _stop(sub, f"ambiguous option: {token} could match {', '.join(found)}")
    return (flags[found[0]], value if eq else None) if found else (None, None)


def _read_args(argv: Sequence[str]) -> SimpleNamespace:
    """The namespace of argv, read off OPTIONS: a subcommand, then its options in any order."""
    if not argv or argv[0] not in OPTIONS:
        if argv and (argv[0] == "-h" or len(argv[0]) > 2 and "--help".startswith(argv[0])):
            _stop(None)
        _stop(None, f"argument subcommand: invalid choice: {argv[0]!r} (choose from {', '.join(map(repr, OPTIONS))})"
                if argv else "the following arguments are required: subcommand")
    sub, options = argv[0], OPTIONS[argv[0]][1]
    flags = {"-h": _HELP, "--help": _HELP, **{opt.flag: opt for opt in options}}
    args = {opt.flag: opt.default for opt in options}
    tokens, leftover = iter(argv[1:]), []
    for token in tokens:
        opt, text = (flags.get(token), None) if token in flags or token == "--" else _lookup(token, flags, sub)
        if opt is None:  # no token after "--" is an option
            leftover += [token, *tokens] if token == "--" else [token]
        elif opt.action == "store" or opt.action == "append":
            # the next token, unless led by "-": "-" alone, a negative number (--shard -1/2) and a spaced token naming no option are values
            if text is None and (text := next(tokens, "--")).startswith("-") and text != "-" and not (
                    text[1:3].lstrip(".")[:1].isdecimal() or " " in text and _lookup(text, flags, sub)[0] is None):
                _stop(sub, f"argument {opt.flag}: expected one argument")
            try:
                value = opt.convert(text)
            except ValueError as err:
                _stop(sub, f"argument {opt.flag}: {f'invalid int value: {text!r}' if opt.convert is int else err}")
            if opt.choices is not None and value not in opt.choices:
                _stop(sub, f"argument {opt.flag}: invalid choice: {value!r} (choose from {', '.join(map(repr, opt.choices))})")
            args[opt.flag] = [*args[opt.flag], value] if opt.action == "append" else value
        elif text is not None or opt is _HELP:  # a switch takes no value; help stops
            _stop(sub, None if text is None else f"argument {opt.flag}: ignored explicit argument {text!r}")
        else:
            args[opt.flag] = True
    missing = [opt.flag for opt in options if opt.required and args[opt.flag] is None]
    if missing or leftover:
        _stop(sub, f"the following arguments are required: {', '.join(missing)}" if missing
                else f"unrecognized arguments: {' '.join(leftover)}")
    return SimpleNamespace(subcommand=sub, **{flag[2:].replace("-", "_"): value for flag, value in args.items()})


def build_parser() -> SimpleNamespace:
    """A fresh reader per call: a ``parse_args`` a caller rebinds (a tracer's probe) stays with it."""
    return SimpleNamespace(parse_args=_read_args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Answer one request; safe to call many times in one process."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        try:
            k = getattr(args, "k", None)
            if k is not None and len(k) != args.f:
                raise ValueError(f"expected {args.f} weight entries, got {len(k)}")
            # cmd_<subcommand>, looked up per call, so that a rebound one (a tracer's probe) is run
            return globals()[f"cmd_{args.subcommand}"](args)
        except (ValueError, AssertionError) as err:  # DichotomyError is a ValueError
            error = "dichotomy" if isinstance(err, DichotomyError) else "invalid" if isinstance(err, ValueError) else "fail"
            reason = str(err)
        except MemoryError:  # answered below, once the frames that hold the request's data are freed
            error, reason = "invalid", "out of memory: the request is too large for this process"
        _write_out(dumps({"error": error, "reason": reason}), out)
        return EXIT_USAGE if error == "invalid" else EXIT_FAIL
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so the flush at exit stays quiet
        with contextlib.suppress(OSError):  # io.UnsupportedOperation: no file descriptor
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_FAIL
    except OSError as err:
        # an --out or --cache path that cannot be written: to stdout, as --out may be that path
        _write_out(dumps({"error": "invalid", "reason": str(err)}), None)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
