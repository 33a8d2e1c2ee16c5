"""The transport audit decides each family in exponent arithmetic.  Two
oracles check it: the dense scan below, over every parameter vector and
every unit pair, and oracles.basis_transport_audit, which transports a basis
of each family through check_phi_morphism at one unit pair, here run on
crafted splits that reach every condition of the audit."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kisinweights import matching
from kisinweights.cli import suite_transport
from kisinweights.field import Context, UPoly
from kisinweights.matching import TransportAuditReport, forward_sets, subspace_transport_audit
from kisinweights.rankone import RankOneKisin, embedding_subsets, exponents_from_slopes
from kisinweights.ranktwo import PhiExtension, transport_forward
from kisinweights.weights import companion_sides, ht_table, set_J0, st_sequences
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
