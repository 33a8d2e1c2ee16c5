"""Carrier-set matching, congruences, audits and parameter transport."""

import itertools
from fractions import Fraction

import pytest

from kisinweights import matching
from kisinweights.chars import InertialChar, SemisimpleShape, char_of_exponents
from kisinweights.field import Context, make_field
from kisinweights.matching import (
    DichotomyError,
    ExceptionalReport,
    _expected_slopes,
    _side_constraint,
    achievable_pairs,
    appendix_alpha_audit,
    backward_from_mus,
    backward_from_theta,
    exceptional_audit,
    forward_sets,
    semisimple_decide,
    semisimple_equivalence_audit,
    subspace_transport_audit,
)
from kisinweights.rankone import ExtensionType, exceptional_case
from kisinweights.weights import (
    Weight,
    blocks,
    bprime_table,
    companion_sides,
    ht_table,
    set_J0,
    set_Mtilde,
    st_sequences,
    validate_irregular,
    weight_kmu,
    weight_kprime,
    weight_ktheta,
)
from oracles import backward_dichotomy_block, check_congruence, shape_search


def valid_weights(p, f):
    for k in itertools.product(range(1, p + 1), repeat=f):
        w = Weight(p, k)
        try:
            validate_irregular(w)
        except ValueError:
            continue
        yield w


def subsets(f):
    for mask in range(1 << f):
        yield frozenset(i for i in range(f) if mask >> i & 1)


def test_check_congruence():
    assert check_congruence(3, (2, 0), (1, 3), 8)
    assert not check_congruence(3, (2, 0), (1, 2), 8)


def test_forward_example():
    ctx = Context(3, 2, 1)
    w = Weight(3, (3, 1))
    fs = forward_sets(ctx, w, {0})
    assert fs.Jprime == {0, 1}
    assert fs.Jtheta == {0}
    assert fs.Jmu == {0: frozenset({0})}
    # the base congruence: s = (2,0) against s' = (1,3), 6 = 6 mod 8
    s, _ = st_sequences(ht_table(w), {0})
    sp, _ = st_sequences(bprime_table(w), fs.Jprime)
    assert check_congruence(3, s, sp, 8)


def test_forward_backward_roundtrip():
    for p, fmax in ((3, 4), (5, 3)):
        for f in range(1, fmax + 1):
            ctx = Context(p, f, 1)
            for w in valid_weights(p, f):
                J0 = set_J0(w)
                for J in subsets(f):
                    fs = forward_sets(ctx, w, J)
                    J_th = backward_from_theta(ctx, w, fs.Jprime, fs.Jtheta)
                    J_mu = backward_from_mus(ctx, w, fs.Jprime, fs.Jmu)
                    # recovery is exact away from the k = 1 indices
                    assert J_th == J - J0
                    assert J_mu == J - J0


def test_backward_dichotomy_violation():
    ctx = Context(3, 2, 1)
    w = Weight(3, (3, 1))
    with pytest.raises(DichotomyError):
        backward_from_theta(ctx, w, frozenset({0, 1}), frozenset({1}))


def backward_verdict(call):
    """The carrier a backward reconstruction returns, or its DichotomyError text."""
    try:
        return call()
    except DichotomyError as err:
        return str(err)


@pytest.mark.parametrize("p,f", [(3, 2), (3, 3), (5, 3), (3, 4), (5, 4)])
def test_backward_dichotomy_matches_the_block_rule(p, f):
    """Both backward forms name the block the per-block rule rejects first, or
    return Jprime off J0; the Jmu form at the three smallest sizes."""
    ctx = Context(p, f)
    for w in valid_weights(p, f):
        J0, marked = set_J0(w), sorted(set_Mtilde(w))
        cases = [(backward_from_theta, Jth, lambda nu, Jth=Jth: Jth) for Jth in subsets(f)]
        if (p, f) in ((3, 2), (3, 3), (5, 3)):
            for sets in itertools.product(list(subsets(f)), repeat=len(marked)):
                Jmu = dict(zip(marked, sets))
                cases.append((backward_from_mus, Jmu, Jmu.__getitem__))
        for Jp in subsets(f):
            for backward, aux, aux_of in cases:
                bad = backward_dichotomy_block(w, Jp, aux_of)
                want = Jp - J0 if bad is None else f"carrier sets violate the block dichotomy on block {bad}"
                assert backward_verdict(lambda: backward(ctx, w, Jp, aux)) == want, (w.k, Jp, aux)


@pytest.mark.parametrize("ctx", [Context(5, 3), Context(7, 4)], ids=["other-p", "other-f"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda ctx, w: forward_sets(ctx, w, {0}),
        lambda ctx, w: backward_from_theta(ctx, w, {0}, {0}),
        lambda ctx, w: backward_from_mus(ctx, w, {0}, {1: {0}, 2: {0}}),
        semisimple_equivalence_audit,
        exceptional_audit,
        lambda ctx, w: appendix_alpha_audit(ctx, w, {0}),
        lambda ctx, w: subspace_transport_audit(ctx, w, {0}),
    ],
    ids=[
        "forward_sets", "backward_from_theta", "backward_from_mus", "semisimple_equivalence_audit",
        "exceptional_audit", "appendix_alpha_audit", "subspace_transport_audit",
    ],
)
def test_entry_points_refuse_a_context_of_another_group(ctx, entry):
    with pytest.raises(ValueError, match="context has") as err:
        entry(ctx, Weight(7, (1, 3, 4)))
    assert not isinstance(err.value, DichotomyError)


def test_shape_search_and_decide():
    ctx = Context(3, 2, 1)
    w = Weight(3, (3, 1))
    table = ht_table(w)
    s, t = st_sequences(table, {0})
    chi1, chi2 = char_of_exponents(ctx, s), char_of_exponents(ctx, t)
    hits = shape_search(ctx, chi1, chi2, table)
    assert any(h.J == frozenset({0}) for h in hits)
    assert semisimple_decide(ctx, SemisimpleShape(chi1, chi2), table)
    assert semisimple_decide(ctx, SemisimpleShape(chi2, chi1), table)


def test_decide_is_membership_in_achievable_pairs():
    # every unordered shape against every table (irregular and sides) of
    # every valid weight: 20,124 cases
    cases = 0
    for p, f in ((3, 2), (5, 2), (3, 3)):
        ctx = Context(p, f, 1)
        chars = [InertialChar(p, f, 1, e) for e in range(ctx.m1)]
        for w in valid_weights(p, f):
            for table in [ht_table(w)] + [side.table for side in companion_sides(w)]:
                for chi1, chi2 in itertools.combinations_with_replacement(chars, 2):
                    want = bool(shape_search(ctx, chi1, chi2, table))
                    assert semisimple_decide(ctx, SemisimpleShape(chi1, chi2), table) == want
                    cases += 1
    assert cases == 20124
    # a shape from another group is refused even where its exponents are achieved
    ctx, table = Context(3, 2, 1), ht_table(Weight(3, (3, 1)))
    assert frozenset({0, 6}) in achievable_pairs(ctx, table)
    shape = SemisimpleShape(InertialChar(3, 3, 1, 0), InertialChar(3, 3, 1, 6))
    assert not shape_search(ctx, shape.first, shape.second, table)
    assert not semisimple_decide(ctx, shape, table)
    # a table of another length is refused, as the oracle refuses to read it
    with pytest.raises(ValueError):
        shape_search(ctx, shape.first, shape.second, ht_table(Weight(3, (3, 1, 3))))
    with pytest.raises(ValueError, match="table has 3 rows, context has f = 2"):
        semisimple_decide(ctx, shape, ht_table(Weight(3, (3, 1, 3))))


def test_achievable_pairs_card():
    ctx = Context(3, 2, 1)
    pairs = achievable_pairs(ctx, ht_table(Weight(3, (3, 1))))
    assert all(isinstance(pair, frozenset) for pair in pairs)
    assert frozenset({6, 0}) in pairs  # J = {0}: s=(2,0), t=(0,0)


def test_semisimple_equivalence_audits():
    cases = [(3, 2, (3, 1)), (5, 2, (4, 1)), (3, 3, (3, 1, 3))]
    for p, f, k in cases:
        ctx = Context(p, f, 1)
        report = semisimple_equivalence_audit(ctx, Weight(p, k))
        assert report.ok, (p, f, k, report.counterexamples[:3])
        assert report.total == (p**f - 1) ** 2


@pytest.mark.parametrize("flip", range(3))
def test_alpha_table_audit_rejects_a_flipped_entry(monkeypatch, flip):
    # the audit must see a change in any one entry of a side's closed form
    real = matching._expected_slopes

    def flipped(*args, **kwargs):
        want = real(*args, **kwargs)
        want[flip] ^= 1
        return want

    monkeypatch.setattr(matching, "_expected_slopes", flipped)
    ctx = Context(3, 3, 1)
    w, J = Weight(3, (3, 1, 3)), frozenset({0})
    args = (3, set_J0(w), set_Mtilde(w), frozenset(), forward_sets(ctx, w, J).Jprime, True)
    got, want = [Fraction(v) for v in real(*args)], flipped(*args)
    with pytest.raises(AssertionError) as err:
        appendix_alpha_audit(ctx, w, J)
    assert str(err.value) == f"slope table base/s mismatch: {got} != {want}"
    for w in valid_weights(3, 3):
        for J in subsets(3):
            with pytest.raises(AssertionError, match=r"^slope table base/s mismatch"):
                appendix_alpha_audit(ctx, w, J)


def test_exceptional_audit():
    ctx = Context(3, 2, 1)
    seen_unconstrained = 0
    for w in valid_weights(3, 2):
        report = exceptional_audit(ctx, w)
        assert report.ok
        seen_unconstrained += len(report.unconstrained_hits)
    # dropping the carrier constraints does produce exceptional hits
    assert seen_unconstrained > 0


def test_transport_audit_full():
    for d in (1, 2):
        ctx = Context(3, 2, d)
        for w in valid_weights(3, 2):
            for J in subsets(2):
                report = subspace_transport_audit(ctx, w, J)
                assert report.family_size == make_field(ctx.p, ctx.d).order ** report.dim
                assert report.dim == len(J - set_J0(w))


@pytest.mark.parametrize("audit", ["appendix_alpha_audit", "subspace_transport_audit"])
def test_audits_split_each_carrier_once(monkeypatch, audit):
    ctx = Context(3, 3, 1)
    run = getattr(matching, audit)
    calls = []
    real = matching.st_sequences
    monkeypatch.setattr(matching, "st_sequences", lambda table, J: calls.append(J) or real(table, J))
    for w in valid_weights(3, 3):
        for J in subsets(3):
            calls.clear()
            run(ctx, w, J)
            # the irregular split, then one split per side, all inside forward_sets
            assert len(calls) == 1 + len(companion_sides(w)), (w.k, J)


# ---------------------------------------------------------------------------
# one side abstraction against the per-side constructions it replaced
# ---------------------------------------------------------------------------

ORACLE_SIZES = [(p, f) for p in (3, 5) for f in (1, 2, 3, 4)]


def per_side_carriers(w, J):
    """The three hand-written carrier loops: base, fully marked, marked."""
    J0 = set_J0(w)
    base = J - J0
    Jp, Jth = set(base), set(base)
    for blk in blocks(w):
        if blk.nu in J:
            Jp |= set(blk.tail)
        else:
            Jth |= set(blk.tail)
    Jmu = {}
    for mu in set_Mtilde(w):
        Jm = set(base)
        for blk in blocks(w):
            follows = blk.nu in J
            if blk.nu == mu:
                follows = not follows
            if follows:
                Jm |= set(blk.tail)
        Jmu[mu] = frozenset(Jm)
    return frozenset(Jp), frozenset(Jth), Jmu


def per_side_slopes(w, Jp, Jth, Jmu):
    """The six hand-written slope tables (s and t of base, full and each marked side)."""
    f = w.f
    J0, Mt = set_J0(w), set_Mtilde(w)
    nxt = lambda i: (i + 1) % f
    out = {
        "base/s": [1 if (i in Mt and i in Jp) or (i in J0 and i in Jp and nxt(i) in J0) else 0 for i in range(f)],
        "base/t": [1 if (i in Mt and i not in Jp) or (i in J0 and i not in Jp and nxt(i) in J0) else 0 for i in range(f)],
        "full/s": [1 if (i in Mt and i not in Jth) or (i in J0 and i in Jth and nxt(i) in J0) else 0 for i in range(f)],
        "full/t": [1 if (i in Mt and i in Jth) or (i in J0 and i not in Jth and nxt(i) in J0) else 0 for i in range(f)],
    }
    for mu, Jm in Jmu.items():
        out[f"marked{mu}/s"] = [
            1
            if (i in Mt and i != mu and i in Jm) or (i == mu and i not in Jm) or (i in J0 and i in Jm and nxt(i) in J0)
            else 0
            for i in range(f)
        ]
        out[f"marked{mu}/t"] = [
            1
            if (i in Mt and i != mu and i not in Jm) or (i == mu and i in Jm) or (i in J0 and i not in Jm and nxt(i) in J0)
            else 0
            for i in range(f)
        ]
    return out


def test_side_carriers_and_slopes_match_per_side_oracles():
    for p, f in ORACLE_SIZES:
        ctx = Context(p, f, 1)
        for w in valid_weights(p, f):
            J0, Mt = set_J0(w), set_Mtilde(w)
            sides = companion_sides(w)
            for J in subsets(f):
                fs = forward_sets(ctx, w, J)
                Jp, Jth, Jmu = per_side_carriers(w, J)
                assert (fs.Jprime, fs.Jtheta, fs.Jmu) == (Jp, Jth, Jmu), (w.k, J)
                want = per_side_slopes(w, Jp, Jth, Jmu)
                got = {}
                for side, Jside in zip(sides, fs.carriers):
                    for upper, half in ((True, "s"), (False, "t")):
                        got[f"{side.name}/{half}"] = _expected_slopes(f, J0, Mt, side.theta, Jside, upper)
                assert got == want, (w.k, J)


def test_forward_carriers_line_up_with_sides():
    for p, f in ORACLE_SIZES:
        ctx = Context(p, f, 1)
        for w in valid_weights(p, f):
            sides = companion_sides(w)
            Mt = set_Mtilde(w)
            assert [s.name for s in sides] == ["base", *[f"marked{mu}" for mu in sorted(Mt)], "full"]
            assert [s.theta for s in sides] == [frozenset(), *[{mu} for mu in sorted(Mt)], Mt]
            for J in subsets(f):
                fs = forward_sets(ctx, w, J)
                assert len(fs.carriers) == len(sides)
                assert fs.carriers[0] == fs.Jprime and fs.carriers[-1] == fs.Jtheta
                assert list(fs.carriers[1:-1]) == [fs.Jmu[mu] for mu in sorted(Mt)]
                assert fs.sides == sides
                assert fs.st == st_sequences(ht_table(w), J)
                assert list(fs.splits) == [st_sequences(side.table, Jside) for side, Jside in zip(sides, fs.carriers)]


def per_side_constraints(w):
    """(name, table, constraint) per side, with the per-side carrier rules: the
    base side's tails follow their marked element on every block; a marked
    side's tail takes the opposite side on its own block only; the full
    side's on every block."""
    blk_tails = [(blk.nu, blk.tail) for blk in blocks(w)]

    def prime(tails, J):
        return all((nu in J and all(i in J for i in t)) or (nu not in J and all(i not in J for i in t)) for nu, t in tails)

    def marked(tails, J):
        return all((nu in J and all(i not in J for i in t)) or (nu not in J and all(i in J for i in t)) for nu, t in tails)

    sides = [("base", ht_table(weight_kprime(w)), lambda J: prime(blk_tails, J))]
    for mu in sorted(set_Mtilde(w)):
        own = [(nu, t) for nu, t in blk_tails if nu == mu]
        sides.append((f"marked{mu}", ht_table(weight_kmu(w, mu)), lambda J, own=own: marked(own, J)))
    sides.append(("full", ht_table(weight_ktheta(w)), lambda J: marked(blk_tails, J)))
    return sides


def per_side_exceptional_report(ctx, w):
    one = make_field(ctx.p, ctx.d).one
    irregular = tuple(
        J for J in subsets(w.f)
        if exceptional_case(ExtensionType(ctx.p, tuple(ki - 1 for ki in w.k), one, one, J))
    )
    constrained, unconstrained = [], []
    for name, table, constraint in per_side_constraints(w):
        for J in subsets(w.f):
            if exceptional_case(ExtensionType(ctx.p, table.gaps(), one, one, J)):
                (constrained if constraint(J) else unconstrained).append((name, J))
    return ExceptionalReport(irregular, tuple(constrained), tuple(unconstrained))


def test_exceptional_report_matches_per_side_oracle():
    hits = 0
    for p, f in [*ORACLE_SIZES, (7, 3)]:
        ctx = Context(p, f, 1)
        for w in valid_weights(p, f):
            report = exceptional_audit(ctx, w)
            assert report == per_side_exceptional_report(ctx, w), w.k
            hits += len(report.unconstrained_hits)
    assert hits > 0


def test_side_constraint_matches_per_side_rules():
    # also on carriers with no exceptional hit, where the report cannot tell
    for p, f in ((3, 4), (3, 5), (5, 4)):
        for w in valid_weights(p, f):
            bd = blocks(w)
            for side, (name, _, constraint) in zip(companion_sides(w), per_side_constraints(w)):
                assert side.name == name
                for J in subsets(f):
                    assert _side_constraint(bd, side.theta, J) == constraint(J), (w.k, name, J)


@pytest.mark.parametrize("Jmu", [{1: {0}}, {2: {0}, 1: {1}}, {}], ids=["other-key", "extra-key", "no-key"])
def test_backward_from_mus_refuses_the_wrong_marked_keys(Jmu):
    # the one marked index of (1, 3, 4) is 2
    with pytest.raises(ValueError) as err:
        backward_from_mus(Context(7, 3), Weight(7, (1, 3, 4)), {0}, Jmu)
    assert type(err.value) is ValueError and str(err.value) == "need one marked carrier set per marked index"
