"""Acceptance criteria: one test per numbered criterion.

Each test is exhaustive over its stated parameter range and exact (integer /
rational arithmetic only; no tolerances).
"""

import itertools
import json

from kisinweights.cli import jsonable, main
from kisinweights.field import Context
from kisinweights.matching import (
    appendix_alpha_audit,
    backward_from_mus,
    backward_from_theta,
    check_congruence,
    exceptional_audit,
    forward_sets,
    semisimple_equivalence_audit,
    subspace_transport_audit,
)
from kisinweights.quadratic import (
    balanced_sets,
    conjugate_symmetric,
    induced_pair,
    irr_equivalence_audit,
    is_balanced,
    rebalance,
)
from kisinweights.rankone import (
    RankOneKisin,
    alpha,
    decompose_cyclic,
    hom_exists,
    necessary_map_conditions,
    weighted_sum,
)
from kisinweights.weights import (
    Weight,
    bmu_table,
    bprime_table,
    btheta_table,
    ht_table,
    set_J0,
    set_Mtilde,
    st_sequences,
    validate_irregular,
    weight_kmu,
    weight_kprime,
    weight_ktheta,
)
from oracles import basis_transport_audit, decode_int, in_range


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


def test_criterion_01_cyclic_decomposition_oracle():
    for p, fmax in ((3, 4), (5, 3), (7, 2)):
        for f in range(1, fmax + 1):
            m = p**f - 1
            for r in itertools.product(range(-p, p + 1), repeat=f):
                if weighted_sum(p, r) % m != 0:
                    continue
                dec = decompose_cyclic(p, r)
                back = dec.recompose()
                assert back == r
                assert weighted_sum(p, back) % m == 0


def test_criterion_02_alpha_identity():
    for p in (3, 5):
        one = Context(p, 1, 1).coefficient_field().one
        for f in (1, 2, 3):
            for r in itertools.product(range(p + 1), repeat=f):
                N = RankOneKisin(p, r, one)
                for i in range(f):
                    assert alpha(N, i) + r[i] == p * alpha(N, i - 1)


def test_criterion_03_map_conditions_audit():
    for p in (3, 5):
        one = Context(p, 1, 1).coefficient_field().one
        for f in (1, 2, 3):
            for r in itertools.product(range(p + 1), repeat=f):
                for J in subsets(f):
                    h = tuple(ri if i in J else 0 for i, ri in enumerate(r))
                    rem = tuple(ri - hi for ri, hi in zip(r, h))
                    if hom_exists(RankOneKisin(p, h, one), RankOneKisin(p, rem, one)):
                        assert necessary_map_conditions(p, r, J), (p, r, sorted(J))


def test_criterion_04_worked_examples_bit_exact():
    w = Weight(7, (1, 5, 1, 4))
    assert weight_kprime(w).k == (8, 4, 8, 3)
    m1 = weight_kmu(w, 1)
    assert (m1.k, m1.l) == ((8, 6, 8, 3), (0, -1, 0, 0))
    m3 = weight_kmu(w, 3)
    assert (m3.k, m3.l) == ((8, 4, 8, 5), (0, 0, 0, -1))
    th = weight_ktheta(w)
    assert (th.k, th.l) == ((8, 6, 8, 5), (0, -1, 0, -1))
    alt = weight_ktheta(Weight(7, (1, 2, 1, 4)), alternative=True)
    assert alt.k == (8, 3, 8, 5)


def test_criterion_05_closed_form_tables_and_gap_bounds():
    for p in (3, 5, 7):
        for f in (1, 2, 3, 4):
            for w in valid_weights(p, f):
                tables = [
                    (bprime_table(w), ht_table(weight_kprime(w))),
                    (btheta_table(w), ht_table(weight_ktheta(w))),
                ]
                tables += [
                    (bmu_table(w, mu), ht_table(weight_kmu(w, mu)))
                    for mu in set_Mtilde(w)
                ]
                for closed, direct in tables:
                    assert closed == direct, w.k
                    assert in_range(closed), (w.k, closed.rows)
    # dropping the adjacency condition breaks the gap bound
    bad = ht_table(weight_kmu(Weight(7, (1, 2, 1, 4)), 1))
    assert max(bad.gaps()) > 7


def test_criterion_06_matching_congruences_and_roundtrip():
    for p, fmax in ((3, 4), (5, 4)):
        for f in range(1, fmax + 1):
            ctx = Context(p, f, 1)
            m = ctx.m1
            for w in valid_weights(p, f):
                J0 = set_J0(w)
                src = ht_table(w)
                for J in subsets(f):
                    fs = forward_sets(ctx, w, J)
                    s, t = st_sequences(src, J)
                    sides = [(bprime_table(w), fs.Jprime), (btheta_table(w), fs.Jtheta)]
                    sides += [(bmu_table(w, mu), fs.Jmu[mu]) for mu in fs.Jmu]
                    for table, Jside in sides:
                        ss, ts = st_sequences(table, Jside)
                        assert check_congruence(p, s, ss, m)
                        assert check_congruence(p, t, ts, m)
                    assert backward_from_theta(ctx, w, fs.Jprime, fs.Jtheta) == J - J0
                    assert backward_from_mus(ctx, w, fs.Jprime, fs.Jmu) == J - J0


def test_criterion_07_slope_difference_tables():
    for p, fmax in ((3, 4), (5, 4)):
        for f in range(1, fmax + 1):
            ctx = Context(p, f, 1)
            for w in valid_weights(p, f):
                for J in subsets(f):
                    appendix_alpha_audit(ctx, w, J)  # raises on any mismatch


def test_criterion_08_exceptional_audits():
    for p, f in ((3, 2), (3, 3), (5, 2), (5, 3)):
        ctx = Context(p, f, 1)
        for w in valid_weights(p, f):
            report = exceptional_audit(ctx, w)
            assert not report.irregular_hits, (p, w.k)
            assert not report.constrained_hits, (p, w.k)


def test_criterion_09_transport_bijections():
    F = Context(3, 2, 1).coefficient_field()
    ran = 0
    for f in (1, 2):
        ctx_f = Context(3, f, 1)
        for w in valid_weights(3, f):
            for J in subsets(f):
                report = subspace_transport_audit(ctx_f, w, J)
                assert report.dim == len(J - set_J0(w))
                assert report.family_size == F.order**report.dim
                for a in F.units():
                    for b in F.units():
                        # transports extensions and runs every morphism check
                        assert basis_transport_audit(ctx_f, w, J, a, b) == report
                        ran += 1
    assert ran > 0


def test_criterion_10_semisimple_equivalence():
    for p, f, k in ((3, 2, (3, 1)), (5, 2, (4, 1)), (3, 3, (3, 1, 3)), (3, 4, (1, 3, 1, 3))):
        ctx = Context(p, f, 1)
        report = semisimple_equivalence_audit(ctx, Weight(p, k))
        assert report.ok, (p, f, k, report.counterexamples[:3])


def test_criterion_11_irreducible_equivalence_and_rebalance():
    for w in valid_weights(3, 2):
        report = irr_equivalence_audit(w)
        assert report.ok, (w.k, report.counterexamples[:3])
        # rebalance: balanced, pair-preserving output on every admissible input
        table = ht_table(w)
        for J in subsets(4):
            if not conjugate_symmetric(table, J):
                continue
            pair = induced_pair(table, J)
            reachable = {induced_pair(table, B) for B in balanced_sets(2)}
            if pair not in reachable:
                continue  # Frobenius-stable configuration, refused by rebalance
            out = rebalance(table, J)
            assert is_balanced(2, out)
            assert induced_pair(table, out) == pair


def test_criterion_12_determinism_and_serialization(tmp_path, capsys):
    argv = ["verify", "--suite", "irr-equiv", "--p", "3", "--f", "2", "--k", "3,1"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    da, db = json.loads(first), json.loads(second)
    da.pop("wall_time_ms"), db.pop("wall_time_ms")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    # lossless integer round trip beyond double precision
    big = [2**53, 3**40 - 1, 5**30, -(2**60)]
    assert [decode_int(v) for v in json.loads(json.dumps(jsonable(big)))] == big
    # documents written to disk parse back to the same data
    out = tmp_path / "record.json"
    main(argv + ["--out", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["outcome"] == "pass"
