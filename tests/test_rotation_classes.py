"""The rotation walk of weights.weight_classes and the rotation lemma in its
docstring: alpha-tables, exceptional and irr-equiv audit one word per class
of cyclic rotations (k_i -> k_{i+1}).  The word-by-word loops they replaced
(oracles.alpha_tables_by_words, exceptional_by_words, irr_equiv_by_words)
are the references, and the three audits are checked to commute with the
shift on every rotation of each representative."""

import inspect
from collections import Counter

import pytest

from kisinweights import cli, matching
from kisinweights.cli import _type_letter, _value_letter
from kisinweights.field import Context
from kisinweights.matching import appendix_alpha_audit, companion_carriers, exceptional_audit
from kisinweights.quadratic import _achievable, irr_equivalence_audit
from kisinweights.rankone import embedding_subsets
from kisinweights.weights import companion_sides, ht_table, weight_classes
from oracles import alpha_tables_by_words, exceptional_by_words, irr_equiv_by_words

SIZES = [(3, 3), (3, 5), (5, 3), (5, 4), (7, 3), (7, 4), (11, 3)]
SUITES = [  # each class suite and its word-by-word loop
    (cli.suite_alpha_tables, alpha_tables_by_words),
    (cli.suite_exceptional, exceptional_by_words),
    (cli.suite_irr_equiv, irr_equiv_by_words),
]


def rotations(k):
    """k and its f - 1 shifts sigma^j k, (sigma k)_i = k_{i+1}."""
    return [k[j:] + k[:j] for j in range(len(k))]


def shift_set(J, f):
    """sigma J: index i of sigma w is index i + 1 of w."""
    return frozenset((i - 1) % f for i in J)


def exceptional_letter(p):
    return lambda x: x if x <= 3 or x >= p - 1 else 4


def exceptional_windows(monkeypatch, p, f):
    """The letter windows suite_exceptional passes to its class walk."""
    calls, real = [], cli.weight_classes
    with monkeypatch.context() as patch:
        patch.setattr(cli, "weight_classes", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        cli.suite_exceptional(Context(p, f), None)
    return calls[0][3]


def record(run):
    """The record of run(), as run_suite reads a suite's: a raised check is a fail."""
    try:
        return run()
    except (ValueError, AssertionError) as err:
        return {"outcome": "fail", "reason": str(err)}


@pytest.mark.parametrize("p,f", SIZES)
def test_the_rotation_walk_takes_one_word_of_each_rotation_class(monkeypatch, p, f):
    # every word of the plain walk is a rotation of exactly one representative,
    # which is least among its rotations, stands for its orbit and comes in ascending order
    live = exceptional_windows(monkeypatch, p, f)
    for classify in (_type_letter, exceptional_letter(p), _value_letter):
        for windows in (None, live):
            words = {w.k: n for w, n in weight_classes(p, f, classify, windows)}
            classes = list(weight_classes(p, f, classify, windows, rotations=True))
            reps = [w.k for w, _ in classes]
            assert reps == sorted(set(reps)) and all(k == min(rotations(k)) for k in reps)
            assert Counter(min(rotations(k)) for k in words) == Counter({k: len(set(rotations(k))) for k in reps})
            assert classes == [(w, len(set(rotations(w.k))) * words[w.k]) for w, _ in classes]


@pytest.mark.parametrize("p,f", SIZES)
@pytest.mark.parametrize("suite,oracle", SUITES, ids=["alpha-tables", "exceptional", "irr-equiv"])
def test_each_class_suite_equals_its_word_by_word_loop(p, f, suite, oracle):
    ctx = Context(p, f)
    got = record(lambda: suite(ctx, None))
    assert got == record(lambda: oracle(ctx)) and got["outcome"] == "pass"


def shifted(w):
    return type(w)(w.p, w.k[1:] + w.k[:1])


def sides_by_theta(w):
    """Each companion side of w by its kind (base, marked, full) and theta."""
    return {(side.name.rstrip("0123456789"), side.theta): side for side in companion_sides(w)}


def alpha_outcome(ctx, w, J):
    try:
        appendix_alpha_audit(ctx, w, J)
    except AssertionError:
        return "fail"
    return "pass"


def assert_alpha_equivariant(ctx, w):
    """The sides and carriers of sigma w at sigma J are sigma of those of w at J,
    and appendix_alpha_audit passes at one exactly when it passes at the other."""
    f, sw = ctx.f, shifted(w)
    shift = lambda rows: rows[1:] + rows[:1]
    ours, theirs = sides_by_theta(w), sides_by_theta(sw)
    assert {key: side.table.rows for key, side in theirs.items()} == {
        (kind, shift_set(theta, f)): shift(side.table.rows) for (kind, theta), side in ours.items()}
    for J in embedding_subsets(f):
        carriers = {(kind, shift_set(theta, f)): shift_set(C, f) for (kind, theta), C in zip(ours, companion_carriers(w, J))}
        assert dict(zip(theirs, companion_carriers(sw, shift_set(J, f)))) == carriers
        assert alpha_outcome(ctx, sw, shift_set(J, f)) == alpha_outcome(ctx, w, J), (w.k, sorted(J))


def assert_exceptional_equivariant(ctx, w):
    """The hits of exceptional_audit(sigma w) are sigma of the hits of w, side by side."""
    def hits(v, move):
        kinds = {side.name: key for key, side in sides_by_theta(v).items()}
        named = lambda found: sorted((kinds[name][0], sorted(move(kinds[name][1])), sorted(move(J))) for name, J in found)
        report = exceptional_audit(ctx, v)
        return sorted(sorted(move(J)) for J in report.irregular_hits), named(report.constrained_hits), named(report.unconstrained_hits)

    assert hits(shifted(w), lambda J: J) == hits(w, lambda J: shift_set(J, ctx.f))


def assert_irr_equivariant(ctx, w):
    """The achievable exponents of each table of sigma w, and the disagreements
    of irr_equivalence_audit(sigma w), are p times those of w mod p^{2f} - 1."""
    p, f, sw = ctx.p, ctx.f, shifted(w)
    times_p = lambda S: {p * e % (p ** (2 * f) - 1) for e in S}
    assert _achievable(ht_table(sw)) == times_p(_achievable(ht_table(w)))
    theirs = sides_by_theta(sw)
    for (kind, theta), side in sides_by_theta(w).items():
        assert _achievable(theirs[kind, shift_set(theta, f)].table) == times_p(_achievable(side.table))
    before, after = irr_equivalence_audit(w), irr_equivalence_audit(sw)
    assert after.checked == before.checked and set(after.counterexamples) == times_p(before.counterexamples)


@pytest.mark.parametrize("p,f", [(5, 3), (5, 4)])
def test_the_audits_commute_with_the_shift(p, f):
    ctx = Context(p, f)
    for w, _ in weight_classes(p, f, _value_letter, rotations=True):
        for k in rotations(w.k):
            for check in (assert_alpha_equivariant, assert_exceptional_equivariant, assert_irr_equivariant):
                check(ctx, type(w)(p, k))


WRAP = "(i + 1) % f in J0"


def without_wrap():
    """matching._expected_slopes reading k_{i+1} = 1 without the wrap at i = f - 1."""
    source = inspect.getsource(matching._expected_slopes)
    assert source.count(WRAP) == 1
    namespace = dict(vars(matching))
    exec(source.replace(WRAP, "i + 1 in J0"), namespace)
    return namespace["_expected_slopes"]


def test_a_slope_table_without_its_wrap_fails_the_oracle_and_the_shift(monkeypatch):
    # a least rotation never ends in a 1, so no representative reads the wrap
    # that this mutant drops; the word-by-word loop and the shift both do
    monkeypatch.setattr(matching, "_expected_slopes", without_wrap())
    ctx = Context(3, 3)
    assert record(lambda: alpha_tables_by_words(ctx))["outcome"] == "fail"
    assert record(lambda: cli.suite_alpha_tables(ctx, None)) != record(lambda: alpha_tables_by_words(ctx))
    ctx = Context(5, 3)
    with pytest.raises(AssertionError):
        for w, _ in weight_classes(5, 3, _value_letter, rotations=True):
            for k in rotations(w.k):
                assert_alpha_equivariant(ctx, type(w)(5, k))
