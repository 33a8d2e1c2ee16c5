"""weights.weight_classes and the lemma behind the audits by class: every
weight of a type word (k_i capped at 3) has its representative's carriers,
side differences and congruences, and every weight of an exceptional class
word its representative's exceptional report.  alpha-tables' dense scan is
in test_basis_carriers.py, enumerate's per-unit reference in test_cli.py.
The filter of all p^f tuples (oracles.valid_weights) is the reference for
the walk that generates the valid words."""

from collections import Counter

import pytest

from kisinweights import cli, matching
from kisinweights.cli import _type_letter, _value_letter
from kisinweights.field import Context
from kisinweights.matching import companion_carriers, exceptional_audit, forward_sets
from kisinweights.rankone import embedding_subsets, in_Pprime
from kisinweights.weights import HTWeightTable, Weight, companion_sides, irregular_refusal, weight_classes, weight_count
from oracles import valid_weights

LEMMA_SIZES = [(5, 3), (5, 4), (7, 3), (7, 4)]


def exceptional_letter(p):
    return lambda x: x if x <= 3 or x >= p - 1 else 4


def representative(w, classify):
    least = {}
    for x in range(w.p, 0, -1):
        least[classify(x)] = x
    return Weight(w.p, tuple(least[classify(ki)] for ki in w.k))


def side_differences(ctx, w, J):
    """The carriers of (w, J) and ss - s, ts - t of each side."""
    fs = forward_sets(ctx, w, J)
    s, t = fs.st
    sub = lambda x, y: tuple(a - b for a, b in zip(x, y))
    return companion_carriers(w, J), tuple((sub(ss, s), sub(ts, t)) for ss, ts in fs.splits)


def test_classes_of_a_small_size():
    # p5 f2: the valid weights are (1, x) and (x, 1) for x in 3..5
    assert list(weight_classes(5, 2, _type_letter)) == [(Weight(5, (1, 3)), 3), (Weight(5, (3, 1)), 3)]
    assert [w.k for w, n in weight_classes(5, 2, exceptional_letter(5))] == [(1, 3), (1, 4), (1, 5), (3, 1), (4, 1), (5, 1)]
    assert [n for w, n in weight_classes(7, 2, exceptional_letter(7))] == [1, 2, 1, 1, 1, 2, 1, 1]


def classes_by_filter(p, f, classify):
    """(representative, multiplicity) per class word, read off the filter of all p^f tuples."""
    counts = Counter(representative(w, classify) for w in valid_weights(p, f))
    return sorted(counts.items(), key=lambda item: item[0].k)


def test_the_walk_is_lazy():
    # 11^40 words: only a walk that yields as it goes reaches the first ones
    walk = weight_classes(11, 40, _value_letter)
    assert [w.k for w, _ in (next(walk), next(walk))] == [(1,) * 39 + (3,), (1,) * 39 + (4,)]


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (3, 3), (3, 5)] + LEMMA_SIZES + [(3, 4), (11, 3)])
def test_multiplicities_count_the_valid_weights(p, f):
    # the walk against the filter of all p^f tuples, as lists: words, order and multiplicities
    for classify in (_type_letter, exceptional_letter(p)):
        classes = list(weight_classes(p, f, classify))
        assert classes == classes_by_filter(p, f, classify), classify
        assert all(irregular_refusal(p, w.k) is None for w, _ in classes)
    assert list(weight_classes(p, f, _value_letter)) == [(w, 1) for w in valid_weights(p, f)]


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (3, 5), (5, 1), (5, 4), (5, 8), (7, 2), (7, 6), (11, 7), (5, 10)])
def test_the_weight_count_is_the_sum_of_the_type_word_multiplicities(p, f):
    # exceptional's weights is weight_count, tr(A^f) - tr(B^f) - 1, with no walk
    assert weight_count(p, f) == sum(n for _, n in weight_classes(p, f, _type_letter, rotations=True))
    assert cli.suite_exceptional(Context(p, f), None)["weights"] == weight_count(p, f)


@pytest.mark.parametrize("p,f", LEMMA_SIZES)
def test_a_type_word_fixes_carriers_and_side_differences(p, f):
    ctx = Context(p, f)
    seen = {}
    for w in valid_weights(p, f):
        rep = representative(w, _type_letter)
        for J in embedding_subsets(f):
            if (rep, J) not in seen:
                seen[rep, J] = side_differences(ctx, rep, J)
            assert side_differences(ctx, w, J) == seen[rep, J], (w.k, sorted(J))


@pytest.mark.parametrize("p,f", LEMMA_SIZES)
def test_an_exceptional_class_word_fixes_the_report(p, f):
    ctx = Context(p, f)
    reports = {}
    for w in valid_weights(p, f):
        rep = representative(w, exceptional_letter(p))
        if rep not in reports:
            reports[rep] = exceptional_audit(ctx, rep)
        assert exceptional_audit(ctx, w) == reports[rep], w.k


def scan_exceptional(ctx):
    """suite_exceptional's record from exceptional_audit of every valid weight, in order."""
    weights, hits = valid_weights(ctx.p, ctx.f), 0
    for w in weights:
        report = exceptional_audit(ctx, w)
        if not report.ok:
            found = {"irregular_hits": report.irregular_hits, "constrained_hits": report.constrained_hits}
            return {"outcome": "fail", "counterexample": {"k": w.k, **found}}
        hits += len(report.unconstrained_hits)
    return {"outcome": "pass", "weights": len(weights), "unconstrained_hits": hits}


EXCEPTIONAL_SIZES = [(5, 3), (5, 4), (5, 5), (7, 3), (7, 4), (11, 3)]


@pytest.mark.parametrize("p,f", EXCEPTIONAL_SIZES + [(3, 5), (7, 5)])
def test_exceptional_counts_every_weight_of_a_class(p, f):
    # a class holds several weights at p >= 7, and a word with a dead window is
    # not audited at any p; the per-weight scan is the reference
    ctx = Context(p, f)
    record = cli.suite_exceptional(ctx, None)
    assert record == scan_exceptional(ctx) and record["outcome"] == "pass"


def dead(p, a, b):
    """A dead index i, with k_i = a, k_{i+1} = b: no table has an admissible entry there
    (matching.exceptional_audit's lemma), so every window through i is dead."""
    return p > 3 and (4 <= a <= p - 2 or a in (3, p - 1) and b != 1)


def cyclic_pairs(k):
    return zip(k, k[1:] + k[:1])


def tables(w):
    """Every table exceptional_audit reads: the irregular exponents and each side's gaps."""
    return [tuple(ki - 1 for ki in w.k), *(side.table.gaps() for side in companion_sides(w))]


def pair_passes(p, r, i):
    """in_Pprime's test at index i, which reads (r_{i-1}, r_i)."""
    return r[i] in (0, 1, p - 1, p) and (r[i - 1] in (1, p - 1)) == (r[i] in (p - 1, p))


def windows_of(k):
    """(k_{i-1}, k_i, k_{i+1}) at each index i, wrap included."""
    return [(k[i - 1], k[i], k[(i + 1) % len(k)]) for i in range(len(k))]


def live_windows(p, f):
    """The windows of the valid class words at (p, f) at which some table's pair
    passes, read off the tables themselves."""
    return {window for w, _ in weight_classes(p, f, exceptional_letter(p))
            for i, window in enumerate(windows_of(w.k)) if any(pair_passes(p, r, i) for r in tables(w))}


@pytest.mark.parametrize("p,f", EXCEPTIONAL_SIZES + [(3, 3), (3, 5), (5, 2), (7, 2)])
def test_the_live_walk_is_the_filtered_walk(monkeypatch, p, f):
    # suite_exceptional walks with the windows at which some table's pair passes
    # in_Pprime's test; that walk is the unpruned one less every word with a dead
    # window, wrap included, and it keeps every word with a table in Pprime.  It is
    # the suite's one walk (weights is a trace), and it takes one word per rotation class
    passed = []
    real = cli.weight_classes
    monkeypatch.setattr(cli, "weight_classes", lambda *args, **kwargs: passed.append((args[3:], kwargs)) or real(*args, **kwargs))
    cli.suite_exceptional(Context(p, f), None)
    classify, live = exceptional_letter(p), live_windows(p, f)
    unpruned = list(weight_classes(p, f, classify))
    filtered = [(w, n) for w, n in unpruned if set(windows_of(w.k)) <= live]
    (windows,), options = passed[0]
    assert len(passed) == 1 and options == {"rotations": True}
    assert live == {window for w, _ in unpruned for window in windows_of(w.k)} & windows
    walked = list(weight_classes(p, f, classify, windows))
    assert walked == filtered != unpruned and (2, 2, 2) not in windows
    assert {w for w, _ in unpruned if any(in_Pprime(p, r) for r in tables(w))} <= {w for w, _ in walked}


@pytest.mark.parametrize("p,f,weights,hits", [(5, 8, 212190, 294), (7, 7, 430710, 161), (11, 7, 8378370, 161),
                                                (5, 10, 5327046, 937)])
def test_frontier_records(p, f, weights, hits):
    # pinned: no per-weight scan reaches these sizes
    assert cli.suite_exceptional(Context(p, f), None) == {"outcome": "pass", "weights": weights, "unconstrained_hits": hits}


def test_a_table_admitting_a_dead_index_changes_the_scan_not_the_suite(monkeypatch):
    # the pruned walk rests on the closed form of companion_sides: a base side
    # whose gap at a dead index is 0 (admissible) is in Pprime at 1,3,3 (gaps
    # 5,0,1).  The scan counts its two unconstrained hits; the suite skips the word
    real = matching.companion_sides

    def mutated(w):
        base, *rest = real(w)
        rows = tuple((b2, b2) if dead(w.p, a, b) else (b1, b2)
                     for (a, b), (b1, b2) in zip(cyclic_pairs(w.k), base.table.rows))
        return (base._replace(table=HTWeightTable(w.p, rows)), *rest)

    ctx = Context(5, 3)
    before = cli.suite_exceptional(ctx, None)
    assert scan_exceptional(ctx) == before
    monkeypatch.setattr(matching, "companion_sides", mutated)
    assert len(exceptional_audit(ctx, Weight(5, (1, 3, 3))).unconstrained_hits) == 2
    assert scan_exceptional(ctx) != before
    assert cli.suite_exceptional(ctx, None) == before


def test_a_side_admitting_a_dead_window_changes_the_scan_not_the_suite(monkeypatch):
    # the window rule rests on the closed form of companion_sides too: a base side
    # with gap 1 at the middle of each dead window is in Pprime at 1,1,4 (gaps
    # 4,5,1), a word with no dead index.  The scan finds its hits; the suite skips the word
    ctx, live, real = Context(5, 3), live_windows(5, 3), matching.companion_sides

    def mutated(w):
        base, *rest = real(w)
        rows = tuple(row if window in live else (row[1] + 1, row[1])
                     for window, row in zip(windows_of(w.k), base.table.rows))
        return (base._replace(table=HTWeightTable(w.p, rows)), *rest)

    before = cli.suite_exceptional(ctx, None)
    assert scan_exceptional(ctx) == before
    monkeypatch.setattr(matching, "companion_sides", mutated)
    assert not any(dead(5, a, b) for a, b in cyclic_pairs((1, 1, 4)))
    report = exceptional_audit(ctx, Weight(5, (1, 1, 4)))
    assert report.constrained_hits or report.unconstrained_hits
    assert scan_exceptional(ctx) != before
    assert cli.suite_exceptional(ctx, None) == before
