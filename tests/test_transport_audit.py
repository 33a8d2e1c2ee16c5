"""The transport audit decides each family in exponent arithmetic.  Two
oracles check it: the dense scan below, over every parameter vector and
every unit pair, and oracles.basis_transport_audit, which transports a basis
of each family through check_phi_morphism at one unit pair, here run on
crafted splits that reach every condition of the audit.  The transport
suite runs the audit at the f+1 basis carriers only, plus one minimum per
slope index; the per-J scan of every carrier set is its reference."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kisinweights import cli, matching
from kisinweights.cli import suite_transport
from kisinweights.field import Context, UPoly
from kisinweights.matching import TransportAuditReport, basis_carriers, forward_sets, subspace_transport_audit
from kisinweights.rankone import RankOneKisin, embedding_subsets, exponents_from_slopes, integer_slopes
from kisinweights.ranktwo import PhiExtension, transport_forward
from kisinweights.weights import Weight, companion_sides, ht_table, set_J0, st_sequences
from oracles import basis_transport_audit, generically_invertible, valid_weights

SIZES = ((3, 2, 2), (5, 3, 1), (3, 3, 2))


def dense_transport_audit(ctx, w, J, a, b):
    """Transport every one of the |F|^dim parameter vectors of every side."""
    f, p = w.f, ctx.p
    F = ctx.coefficient_field()
    J0 = set_J0(w)
    fs = forward_sets(ctx, w, J)
    sides = companion_sides(w)
    s, t = st_sequences(ht_table(w), fs.J)
    dim = len(fs.J - J0)
    for side, Jside in zip(sides, fs.carriers):
        twist = tuple(1 if i in side.theta else 0 for i in range(f))
        ss, ts = st_sequences(side.table, Jside)
        support = sorted(Jside - J0)
        assert len(support) == dim
        N_side = RankOneKisin(p, tuple(x + g for x, g in zip(ss, twist)), a)
        P_side = RankOneKisin(p, tuple(x + g for x, g in zip(ts, twist)), b)
        N_tgt = RankOneKisin(p, tuple(x + g for x, g in zip(s, twist)), a)
        P_tgt = RankOneKisin(p, tuple(x + g for x, g in zip(t, twist)), b)
        seen = set()
        for values in itertools.product(list(F.elements()), repeat=dim):
            x = [UPoly.zero(F)] * f
            for i, v in zip(support, values):
                x[i] = UPoly.constant(v)
            M_tgt, g = transport_forward(PhiExtension(N_side, P_side, x), N_tgt, P_tgt)
            assert generically_invertible(g)
            recovered = []
            for i in range(f):
                assert oracles.divides_exactly(M_tgt.x[i], twist[i])
                recovered.append(oracles.unshift(M_tgt.x[i], twist[i]))
            assert all(recovered[i].is_zero() for i in range(f) if i not in support)
            assert all(recovered[i].is_constant() for i in support)
            got = tuple(recovered[i].coefficient(0) for i in support)
            assert got == values, (side.name, values, got)
            seen.add(got)
        assert len(seen) == F.order**dim
    return TransportAuditReport(dim, F.order**dim, tuple(side.name for side in sides))


@pytest.mark.parametrize("p,f,d", SIZES)
def test_transport_audit_matches_dense_scan(p, f, d):
    ctx = Context(p, f, d)
    units = list(ctx.coefficient_field().units())
    weights = valid_weights(p, f)
    assert weights
    for w in weights:
        families = 0
        for J in embedding_subsets(f):
            report = subspace_transport_audit(ctx, w, J)
            for a, b in itertools.product(units, repeat=2):
                assert dense_transport_audit(ctx, w, J, a, b) == report
                families += len(report.sides)
        assert suite_transport(ctx, w.k) == {"outcome": "pass", "families_transported": families}


# ---------------------------------------------------------------------------
# crafted splits: every condition of the audit, against the basis oracle
# ---------------------------------------------------------------------------


def outcome(audit):
    """("pass", report) or the type and message of what the audit raised."""
    try:
        return "pass", audit()
    except (AssertionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def crafted_forward_sets(draw, ctx):
    """The real ForwardSets of a drawn (w, J), with each side's split replaced
    by st + exponents_from_slopes of drawn slopes: cN >= 0 and cP near the
    side's twist.  So the line maps exist, and effectiveness, the
    obstruction and the twist test decide the outcome."""
    p, f = ctx.p, ctx.f
    w = draw(st.sampled_from(valid_weights(p, f)))
    J = draw(st.sampled_from(embedding_subsets(f)))
    fs = forward_sets(ctx, w, J)
    s, t = fs.st
    splits = []
    for side in fs.sides:
        twist = [1 if i in side.theta else 0 for i in range(f)]
        cN = [draw(st.sampled_from((0,) * 6 + (1, 2))) for _ in range(f)]
        cP = [max(0, g + draw(st.sampled_from((0,) * 6 + (-1, 1)))) for g in twist]
        dN, dP = exponents_from_slopes(p, cN), exponents_from_slopes(p, cP)
        splits.append(
            (tuple(x + y for x, y in zip(s, dN)), tuple(x + y for x, y in zip(t, dP)))
        )
    return w, J, fs._replace(splits=tuple(splits))


@pytest.mark.parametrize("p,f,d", ((3, 2, 1), (5, 2, 1), (3, 3, 1), (3, 2, 2)))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_transport_audit_matches_basis_oracle_on_crafted_splits(p, f, d, data):
    ctx = Context(p, f, d)
    w, J, crafted = data.draw(crafted_forward_sets(ctx))
    units = list(ctx.coefficient_field().units())
    with pytest.MonkeyPatch.context() as mp:
        for module in (matching, oracles):
            mp.setattr(module, "forward_sets", lambda *args: crafted)
        got = outcome(lambda: subspace_transport_audit(ctx, w, J))
        for a, b in itertools.product(units, repeat=2):
            assert outcome(lambda: basis_transport_audit(ctx, w, J, a, b)) == got, (w.k, J, a, b)


# ---------------------------------------------------------------------------
# the suite at the basis carriers against the audit at every carrier set
# ---------------------------------------------------------------------------


def outcome_of_scan(ctx, w):
    """suite_transport's record by the per-J audit at all 2^f carrier sets, in mask order."""
    families = sum(len(subspace_transport_audit(ctx, w, J).sides) for J in embedding_subsets(ctx.f))
    return {"outcome": "pass", "families_transported": families * (ctx.p**ctx.d - 1) ** 2}


@pytest.mark.parametrize("p,f,d", ((3, 3, 1), (5, 3, 1), (5, 4, 1), (7, 3, 1), (3, 2, 2)))
def test_suite_matches_the_audit_at_every_carrier_set(p, f, d):
    ctx = Context(p, f, d)
    weights = valid_weights(p, f)
    assert weights
    for w in weights:
        assert outcome(lambda: suite_transport(ctx, w.k)) == outcome(lambda: outcome_of_scan(ctx, w)), w.k


@pytest.mark.parametrize("p,f", ((3, 2), (3, 3), (5, 3), (3, 4), (5, 4), (7, 3)))
def test_every_side_support_is_J_off_J0(p, f):
    # _side_carrier adds only 1-tails, which lie in J0: the audit needs no
    # check that a side's support has dim elements
    ctx = Context(p, f)
    for w in valid_weights(p, f):
        J0 = set_J0(w)
        for J in embedding_subsets(f):
            fs = forward_sets(ctx, w, J)
            assert all(Jside - J0 == fs.J - J0 for Jside in fs.carriers), (w.k, J)


@pytest.mark.parametrize("p,k,i", ((3, (1, 3, 1), 1), (5, (1, 3, 1, 1), 1), (3, (3, 3, 1, 1), 1)))
def test_a_side_negative_only_where_two_indices_miss_fails_by_the_minimum(monkeypatch, p, k, i):
    # the base side's cN_i gains 1 - [0 not in J] - [1 not in J]: affine in J,
    # so the suite's minimum sees it, and below 0 only where J lacks 0 and 1,
    # which no basis carrier does.  (The added exponents, -g at i and p*g at
    # i+1, read bits 0 and 1, so that J also fails the effectiveness test.)
    ctx, w = Context(p, len(k)), Weight(p, k)
    real = matching.forward_sets

    def mutated(ctx, w, J):
        fs = real(ctx, w, J)
        g = 1 - (0 not in fs.J) - (1 not in fs.J)
        (ss, ts), *rest = fs.splits
        ss = tuple(x + y for x, y in zip(ss, exponents_from_slopes(ctx.p, [g * (j == i) for j in range(ctx.f)])))
        return fs._replace(splits=((ss, ts), *rest))

    monkeypatch.setattr(matching, "forward_sets", mutated)
    for J in embedding_subsets(ctx.f):
        fs = mutated(ctx, w, J)
        cN = integer_slopes(p, [x - y for x, y in zip(fs.splits[0][0], fs.st[0])])
        assert (min(cN) < 0) == (not {0, 1} & J), J
    for J in basis_carriers(ctx.f):
        subspace_transport_audit(ctx, w, J)
    called = []
    monkeypatch.setattr(cli, "subspace_transport_audit", lambda *args: called.append(args[2]) or subspace_transport_audit(*args))
    failure = "ValueError", "extension exponents must be effective (twist first)"
    assert outcome(lambda: suite_transport(ctx, w.k)) == failure
    assert called == [frozenset(range(ctx.f)) - {0, 1}]
    assert outcome(lambda: outcome_of_scan(ctx, w)) == failure


def test_a_minimum_the_audit_does_not_confirm_fails_the_suite(monkeypatch):
    # the suite reads the base side's cN_0 one lower at Z/3 - {0} and Z/3 - {1}
    # than the audit computes: a prediction of cN_0 < 0 at J = {2}, where the
    # audit passes.  The basis then proves nothing, and the suite says so
    ctx, w = Context(3, 3), Weight(3, (1, 3, 1))
    real = matching.transport_exponents

    def lowered(ctx, w, J):
        report, (cN, *rest) = real(ctx, w, J)
        return report, ((cN[0] - (len(J) == 2 and 2 in J), *cN[1:]), *rest)

    monkeypatch.setattr(cli, "transport_exponents", lowered)
    assert real(ctx, w, frozenset(range(3)))[1][0][0] == 0
    subspace_transport_audit(ctx, w, {2})
    assert outcome(lambda: suite_transport(ctx, w.k)) == ("AssertionError", "twist exponents are not affine in J at [2]")
