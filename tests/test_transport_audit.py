"""The transport audit checks an F_p-basis of each family at one unit pair per
carrier set; the dense scan below, over every parameter vector and every unit
pair, is its reference."""

import itertools

import pytest

from kisinweights.cli import _valid_weights, suite_transport
from kisinweights.field import Context, UPoly
from kisinweights.matching import TransportAuditReport, forward_sets, subspace_transport_audit
from kisinweights.rankone import RankOneKisin, embedding_subsets
from kisinweights.ranktwo import PhiExtension, generically_invertible, transport_forward
from kisinweights.weights import companion_sides, ht_table, set_J0, st_sequences

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
                assert M_tgt.x[i].divides_exactly(twist[i])
                recovered.append(M_tgt.x[i].unshift(twist[i]))
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
    weights = list(_valid_weights(p, f))
    assert weights
    for w in weights:
        families = 0
        for J in embedding_subsets(f):
            for a, b in itertools.product(units, repeat=2):
                report = dense_transport_audit(ctx, w, J, a, b)
                assert subspace_transport_audit(ctx, w, J, a, b) == report
                families += len(report.sides)
        assert suite_transport(ctx, w.k) == {"outcome": "pass", "families_transported": families}
