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

Every subcommand's options are declared once, in ``OPTIONS``.  ``main`` reads a
subcommand followed only by its exact ``--flag`` and ``--option value`` tokens
straight off that table; argparse, built from it, answers every other argv
(abbreviations, ``--opt=value``, ``-h``, bad values) and writes all help and usage.
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
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .field import Context
from .matching import (
    DichotomyError,
    appendix_alpha_audit,
    backward_from_mus,
    backward_from_theta,
    basis_carriers,
    companion_carriers,
    exceptional_audit,
    forward_sets,
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
        return str(x) if -JSON_INT_LIMIT < x < JSON_INT_LIMIT else f'"{x}"'
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


def _csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _parse_shard(text: str) -> tuple[int, int]:
    idx, _, total = text.partition("/")
    try:
        i, n = int(idx), int(total)
    except ValueError:  # not i/n: refused below with the same text
        i = n = 0
    if not 0 <= i < n:
        import argparse  # only a refusal needs it

        raise argparse.ArgumentTypeError("shard must be i/n with 0 <= i < n")
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
        mu_text, _, idxs = item.partition(":")
        if int(mu_text) in mus:
            raise ValueError(f"--jmu gives marked index {int(mu_text)} twice")
        mus[int(mu_text)] = _csv_ints(idxs)
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
    """Audit each valid type word's representative (weights.weight_classes) at
    its f+1 basis carriers, which proves all 2^f carrier sets of every weight
    of the word (matching.basis_carriers), counted in ``configurations``.  A
    broken table still fails, maybe at another weight or J than a scan would."""
    configurations = 0
    for w, n in weight_classes(ctx.p, ctx.f, _type_letter):
        for J in basis_carriers(ctx.f):
            appendix_alpha_audit(ctx, w, J)
        configurations += n * 2**ctx.f
    return {"outcome": "pass", "configurations": configurations}


def suite_exceptional(ctx: Context, k: Optional[tuple[int, ...]]) -> dict:
    """exceptional_audit of the representative of each valid class word, with
    letters k_i for k_i <= 3 or k_i >= p-1 and 4 for the rest.  Every gap
    k_i, k_i - 1 or k_i - 2 of a 4 lies outside {0, 1, p-1, p}, all that
    in_Pprime and the need and avoid sets read, so a word's weights share the
    report, counted by multiplicity.  A failure names a representative: a
    valid weight, maybe not the first failing one of a per-weight scan."""
    checked = unconstrained = 0
    for w, n in weight_classes(ctx.p, ctx.f, lambda x: x if x <= 3 or x >= ctx.p - 1 else 4):
        report = exceptional_audit(ctx, w)
        checked += n
        unconstrained += n * len(report.unconstrained_hits)
        if not report.ok:
            hits = {"irregular_hits": report.irregular_hits, "constrained_hits": report.constrained_hits}
            return {"outcome": "fail", "counterexample": {"k": w.k, **hits}}
    return {"outcome": "pass", "weights": checked, "unconstrained_hits": unconstrained}


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
    weights = [Weight(ctx.p, k)] if k is not None else [w for w, _ in weight_classes(ctx.p, ctx.f, _value_letter)]
    total = 0
    for w in weights:
        report = irr_equivalence_audit(w)
        total += report.checked
        if not report.ok:
            return {
                "outcome": "fail",
                "counterexample": {"k": w.k, "exponents": report.counterexamples[:5]},
            }
    return {"outcome": "pass", "weights": len(weights), "exponents_checked": total}


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
def _source_digest() -> str:
    """sha256 of the package sources, computed on first use: the digest of the
    ``sha256sum *.py`` listing of the package directory.  Any edit to a source
    file changes it, and with it every cache key and fingerprint."""
    here = os.path.dirname(os.path.abspath(__file__))
    listing = ""
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            listing += f"{hashlib.sha256(fh.read()).hexdigest()}  {name}\n"
    return hashlib.sha256(listing.encode()).hexdigest()


def _fingerprint() -> str:
    return f"kisinweights sha256:{_source_digest()} / python {sys.version.split()[0]}"


def _record_key(suite: str, params: dict) -> str:
    payload = dumps({"suite": suite, "params": params, "source": _source_digest()})
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
    if not isinstance(doc, dict) or not RECORD_FIELDS <= doc.keys():
        return None
    if doc["outcome"] not in EXIT_CODES or not isinstance(doc["detail"], dict):
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
        elif suite in SIZE_SUITES and next(weight_classes(ctx.p, ctx.f, _type_letter), None) is None:
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
    """Stream every unit, weights ascending.  Carriers and congruences
    depend only on the type word (weights.weight_classes): each word is
    proven once, at its first weight's basis carriers, and a word of (p-2)^#3s
    > 1 weights keeps its line prefix per J (at most #repeating words * 2^f)."""
    ctx = Context(args.p, args.f)
    shard_i, shard_n = args.shard

    def lines() -> Iterator[str]:
        subsets = embedding_subsets(ctx.f)
        prefixes: dict[tuple[int, ...], dict[int, str]] = {}  # by word, then by mask of J
        for n, (w, _) in enumerate(weight_classes(ctx.p, ctx.f, _value_letter)):
            first = n * len(subsets)
            units = range(first + (shard_i - first) % shard_n, first + len(subsets), shard_n)
            if not units:
                continue
            word = tuple(map(_type_letter, w.k))
            if word not in prefixes:
                for J in basis_carriers(ctx.f):
                    forward_sets(ctx, w, J)  # proves the congruences of every J of the word
                prefixes[word] = {}
            cache = prefixes[word] if ctx.p > 3 and 3 in word else {}
            tail = f'"k": {json.dumps(list(w.k))}, "unit": '
            for unit in units:
                if (mask := unit - first) not in cache:
                    Jprime, *Jmus, Jtheta = companion_carriers(w, subsets[mask])  # marked: mu ascending
                    # the jsonable form less "k" and "unit", which sort last; every int here is small
                    Jmu = {str(mu): sorted(Jmu) for mu, Jmu in zip(sorted(blk.nu for blk in blocks(w)), Jmus)}
                    record = {"J": sorted(subsets[mask]), "Jprime": sorted(Jprime), "Jtheta": sorted(Jtheta), "Jmu": Jmu}
                    cache[mask] = json.dumps(record, sort_keys=True)[:-1] + ", "
                yield f"{cache[mask]}{tail}{unit}}}\n"

    _write_lines(lines(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class Option(NamedTuple):
    """One option of a subcommand, in the terms of argparse's add_argument."""

    flag: str
    help: str
    convert: Callable[[str], Any] = str
    required: bool = False
    default: Any = None
    action: str = "store"  # store | store_true | append
    metavar: Optional[str] = None
    choices: Optional[Sequence[str]] = None


_CONTEXT = (Option("--p", "odd prime", int, True), Option("--f", "number of embedding indices", int, True))
_K = Option("--k", "weight, comma-separated", _csv_ints, True)
_OUT = Option("--out", "write the document here instead of stdout")

# The command line, declared once: each subcommand's help and its options in --help order.
OPTIONS = {
    "shift": ("companion weights and tables", (*_CONTEXT, _K, _OUT,
        Option("--l", "twist part, comma-separated", _csv_ints),
        Option("--allow-alt", "emit the alternative fully-marked weight even when the weight is refused", default=False, action="store_true"))),
    "match": ("carrier-set matching", (*_CONTEXT, _K, _OUT,
        Option("--j", "carrier set for the forward direction", _csv_ints),
        Option("--jprime", "base carrier set (backward direction)", _csv_ints),
        Option("--jtheta", "fully-marked carrier set (backward)", _csv_ints),
        Option("--jmu", "marked carrier set, e.g. 0:0,1 (repeatable)", default=[], action="append", metavar="MU:IDXS"))),
    "verify": ("run a named verification suite", (*_CONTEXT, Option("--d", "coefficient field degree", int, default=1), _OUT,
        Option("--suite", "suite name", required=True, choices=sorted(SUITES)),
        Option("--k", "weight for weight-specific suites", _csv_ints),
        Option("--cache", "result cache directory"),
        Option("--force", "recompute and compare against any cached record", default=False, action="store_true"))),
    "enumerate": ("stream (weight, carrier set) units as JSON lines", (*_CONTEXT, _OUT,
        Option("--shard", "emit only shard I of N", _parse_shard, default=(0, 1), metavar="I/N"))),
}


def build_parser():
    """A shallow copy of the argparse root, built once per process: an attribute a
    caller rebinds on it (a tracer wrapping ``parse_args``) stays with that call."""
    import copy

    return copy.copy(_parser_tree())


@functools.lru_cache(maxsize=None)
def _parser_tree():
    """The root argparse parser, with one subparser per entry of OPTIONS."""
    import argparse
    import re

    parser = argparse.ArgumentParser(prog="kisinweights", description="Exact weight-shift, matching and verification queries.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, options) in OPTIONS.items():
        sp = sub.add_parser(name, help=text)
        # read a token led by "-" and a digit as a value, not an option: "--shard -1/2" reaches _parse_shard
        sp._negative_number_matcher = re.compile(r"-\.?\d")
        for opt in options:
            kw = {} if opt.action == "store_true" else {"type": opt.convert, "metavar": opt.metavar, "choices": opt.choices}
            sp.add_argument(opt.flag, action=opt.action, required=opt.required, default=opt.default, help=opt.help, **kw)
    return parser


def _read_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse returns for argv, read off OPTIONS, when argv is a
    subcommand, then only its exact flags, each value one token not led by "-"
    that converts and is among the choices, and every required option; else None."""
    if not argv or argv[0] not in OPTIONS:
        return None
    options = {opt.flag: opt for opt in OPTIONS[argv[0]][1]}
    args = {flag: opt.default for flag, opt in options.items()}
    tokens = iter(argv[1:])
    for opt in map(options.get, tokens):
        switch = opt is not None and opt.action == "store_true"
        text = "" if switch else next(tokens, "-")
        if opt is None or text.startswith("-"):
            return None
        try:
            value = True if switch else opt.convert(text)
        except Exception:  # argparse refuses it, or raises it again
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        args[opt.flag] = [*args[opt.flag], value] if opt.action == "append" else value  # a repeat: the last
    if any(opt.required and args[flag] is None for flag, opt in options.items()):  # required: no default
        return None
    return SimpleNamespace(subcommand=argv[0], **{flag[2:].replace("-", "_"): v for flag, v in args.items()})


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Answer one request; safe to call many times in one process.  A well-formed
    request is read off OPTIONS; argparse answers every other."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv) or build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        try:
            k = getattr(args, "k", None)
            if k is not None and len(k) != args.f:
                raise ValueError(f"expected {args.f} weight entries, got {len(k)}")
            # cmd_<subcommand>, looked up per call, so that a rebound one (a tracer's probe) is run
            return globals()[f"cmd_{args.subcommand}"](args)
        except DichotomyError as err:
            _write_out(dumps({"error": "dichotomy", "reason": str(err)}), out)
            return EXIT_FAIL
        except ValueError as err:
            _write_out(dumps({"error": "invalid", "reason": str(err)}), out)
            return EXIT_USAGE
        except AssertionError as err:
            _write_out(dumps({"error": "fail", "reason": str(err)}), out)
            return EXIT_FAIL
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
