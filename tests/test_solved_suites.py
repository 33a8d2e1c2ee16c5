"""lemma71 and pprime solve for the few candidates that matter; the dense
scans over every candidate below are their reference.  Both scans call
decompose_cyclic and necessary_map_conditions through the cli module, so a
test that patches one there patches the suite and its scan alike."""

import itertools

import pytest

from kisinweights import cli
from kisinweights.field import Context
from kisinweights.rankone import RankOneKisin, embedding_subsets, hom_exists, weighted_sum

# every size whose dense scan takes under about 2 s
LEMMA71_SIZES = [(p, f) for p, fmax in ((3, 7), (5, 6), (7, 5), (11, 4), (13, 3)) for f in range(1, fmax + 1)]
PPRIME_SIZES = [(p, f) for p, fmax in ((3, 5), (5, 5), (7, 4), (11, 3), (13, 3)) for f in range(1, fmax + 1)]


def dense_lemma71(ctx):
    """Every r in [-p, p]^f, in product order."""
    p, f = ctx.p, ctx.f
    scanned = congruent = 0
    for r in itertools.product(range(-p, p + 1), repeat=f):
        scanned += 1
        if weighted_sum(p, r) % ctx.m1 != 0:
            continue
        congruent += 1
        dec = cli.decompose_cyclic(p, r)
        if dec.recompose() != r:
            return {"outcome": "fail", "counterexample": {"r": r}}
    return {"outcome": "pass", "scanned": scanned, "congruent": congruent}


def dense_pprime(ctx):
    """Every (r, J) with r in [0, p]^f, in product order of r and mask order of J."""
    p, f = ctx.p, ctx.f
    one = ctx.coefficient_field().one
    checked = 0
    subsets = embedding_subsets(f)
    for r in itertools.product(range(p + 1), repeat=f):
        for J in subsets:
            h = tuple(ri if i in J else 0 for i, ri in enumerate(r))
            rem = tuple(ri - hi for ri, hi in zip(r, h))
            if hom_exists(RankOneKisin(p, h, one), RankOneKisin(p, rem, one)):
                checked += 1
                if not cli.necessary_map_conditions(p, r, J):
                    return {"outcome": "fail", "counterexample": {"r": r, "J": J}}
    return {"outcome": "pass", "maps_checked": checked}


@pytest.mark.parametrize("p,f", LEMMA71_SIZES)
def test_lemma71_matches_dense_scan(p, f):
    ctx = Context(p, f)
    assert cli.suite_lemma71(ctx, None) == dense_lemma71(ctx)


@pytest.mark.parametrize("p,f", PPRIME_SIZES)
def test_pprime_matches_dense_scan(p, f):
    ctx = Context(p, f)
    assert cli.suite_pprime(ctx, None) == dense_pprime(ctx)


def mask(J):
    return sum(1 << i for i in J)


def test_lemma71_reports_the_scan_order_counterexample(monkeypatch):
    # reject a middle candidate and every later one, so that the first
    # counterexample depends on the order the candidates are visited in
    ctx = Context(5, 3)
    congruent = [r for r in itertools.product(range(-5, 6), repeat=3) if weighted_sum(5, r) % ctx.m1 == 0]
    chosen = congruent[len(congruent) // 2]
    real = cli.decompose_cyclic

    class Broken:
        def recompose(self):
            return ()

    monkeypatch.setattr(cli, "decompose_cyclic", lambda p, r: real(p, r) if r < chosen else Broken())
    want = {"outcome": "fail", "counterexample": {"r": chosen}}
    assert dense_lemma71(ctx) == want
    assert cli.suite_lemma71(ctx, None) == want


def test_pprime_reports_the_scan_order_counterexample(monkeypatch):
    ctx = Context(5, 3)
    seen = []
    real = cli.necessary_map_conditions
    monkeypatch.setattr(cli, "necessary_map_conditions", lambda p, r, J: seen.append((r, mask(J))) or real(p, r, J))
    dense_pprime(ctx)
    assert seen == sorted(seen) and len(seen) > 2
    chosen = seen[len(seen) // 2]
    monkeypatch.setattr(cli, "necessary_map_conditions", lambda p, r, J: (r, mask(J)) < chosen and real(p, r, J))
    r, J = chosen[0], frozenset(i for i in range(3) if chosen[1] >> i & 1)
    want = {"outcome": "fail", "counterexample": {"r": r, "J": J}}
    assert dense_pprime(ctx) == want
    assert cli.suite_pprime(ctx, None) == want
