"""alpha-tables proves each weight at its f+1 basis carriers
(matching.basis_carriers) and counts the other carrier sets; the
per-carrier scan below is its reference.  enumerate reads every carrier
set off the basis carriers by the XOR fold tested here; its per-unit
reference is in test_cli.py."""

import itertools

import pytest

from kisinweights import cli, matching
from kisinweights.field import Context
from kisinweights.matching import _expected_slopes, basis_carriers, companion_carriers, forward_sets, rotate_fold
from kisinweights.rankone import embedding_subsets, exponents_from_slopes, weighted_sum
from kisinweights.weights import HTWeightTable, Weight, blocks, set_J0, validate_irregular

SIZES = [(3, 2), (3, 3), (5, 2), (5, 3), (3, 4), (5, 4)]


def valid_weights(p, f):
    out = []
    for k in itertools.product(range(1, p + 1), repeat=f):
        try:
            validate_irregular(Weight(p, k))
        except ValueError:
            continue
        out.append(Weight(p, k))
    return out


def dense_alpha_tables(ctx):
    """appendix_alpha_audit at every carrier set of every valid weight, in mask order."""
    checked = 0
    for w in valid_weights(ctx.p, ctx.f):
        for J in embedding_subsets(ctx.f):
            matching.appendix_alpha_audit(ctx, w, J)
            checked += 1
    return {"outcome": "pass", "configurations": checked}


def compared_vectors(ctx, w, J):
    """Every vector forward_sets and appendix_alpha_audit compare at (w, J),
    by name, with each congruence as the weighted sum of its difference."""
    p, f = ctx.p, ctx.f
    fs = forward_sets(ctx, w, J)
    J0, Mt = set_J0(w), fs.sides[-1].theta
    (s, t), seqs = fs.st, fs.splits
    sub = lambda x, y: tuple(a - b for a, b in zip(x, y))
    out = {}
    for side, Jside, (ss, ts) in zip(fs.sides, fs.carriers, seqs):
        for half, ours, theirs in (("s", ss, s), ("t", ts, t)):
            want = _expected_slopes(f, J0, Mt, side.theta, Jside, upper=half == "s")
            out[f"{side.name}/{half}"] = sub(ours, theirs)
            out[f"{side.name}/{half} want"] = tuple(want)
            out[f"{side.name}/{half} exponents"] = exponents_from_slopes(p, want)
            out[f"{side.name}/{half} congruence"] = (weighted_sum(p, sub(theirs, ours)),)
    (sp, tp), (sth, tth) = seqs[0], seqs[-1]
    for side, (sm, tm) in zip(fs.sides[1:-1], seqs[1:-1]):
        out[f"base-vs-{side.name}/s"] = sub(sp, sm)
        out[f"base-vs-{side.name}/t"] = sub(tm, tp)
    Jp = fs.Jprime
    sg = tuple(sp[i] if i in Jp else sth[i] for i in range(f))
    tg = tuple(tp[i] if i in Jp else tth[i] for i in range(f))
    out["aux want_in"] = tuple(int(i in Jp and (i + 1) % f in J0) for i in range(f))
    out["aux want_out"] = tuple(int(i not in Jp and (i + 1) % f in J0) for i in range(f))
    for name, x, y in (("full/s", sg, sth), ("full/t", tth, tg), ("base/s", sg, sp), ("base/t", tp, tg)):
        out[f"aux-vs-{name}"] = sub(x, y)
    return out


def test_basis_carriers_are_the_full_set_and_its_neighbours():
    assert basis_carriers(3) == [frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({0, 2}), frozenset({0, 1})]


@pytest.mark.parametrize("p,f", SIZES)
def test_every_compared_vector_is_affine_in_J(p, f):
    # G(J) = G(Z/f) + sum over b not in J of (G(Z/f - {b}) - G(Z/f))
    ctx = Context(p, f)
    full = frozenset(range(f))
    for w in valid_weights(p, f):
        G = {J: compared_vectors(ctx, w, J) for J in embedding_subsets(f)}
        for J, vectors in G.items():
            for name, got in vectors.items():
                want = list(G[full][name])
                for b in full - J:
                    want = [x + y - z for x, y, z in zip(want, G[full - {b}][name], G[full][name])]
                assert list(got) == want, (w.k, sorted(J), name)


@pytest.mark.parametrize("p,f", [(3, 4), (3, 5), (5, 3), (5, 4), (7, 3)])
def test_every_carrier_is_the_xor_fold_of_the_basis_carriers(p, f):
    # each side's carrier is affine over GF(2) in the bits of J, which
    # enumerate reads every J's carriers off: as sets,
    # car(J) = car(Z/f) ^ XOR over b not in J of (car(Z/f - {b}) ^ car(Z/f))
    full = frozenset(range(f))
    for w in valid_weights(p, f):
        at_full = companion_carriers(w, full)
        terms = {b: [C ^ D for C, D in zip(at_full, companion_carriers(w, full - {b}))] for b in full}
        for J in embedding_subsets(f):
            folded = list(at_full)
            for b in full - J:
                folded = [C ^ T for C, T in zip(folded, terms[b])]
            assert list(companion_carriers(w, J)) == folded, (w.k, sorted(J))


def packed(carriers, f):
    """Side s's carrier at bits s*f.., as enumerate packs them."""
    return sum(1 << s * f + i for s, C in enumerate(carriers) for i in C)


@pytest.mark.parametrize("p,f", [(3, 4), (5, 3), (5, 4), (7, 3)])
def test_the_rotated_fold_is_the_fold_of_every_rotation(p, f):
    # enumerate proves one word per rotation class and rotates its fold to the
    # rest: every rotation k of every valid w, at every J, gets companion_carriers(k, J),
    # its marked sides in ascending nu
    full = frozenset(range(f))
    for w in valid_weights(p, f):
        at_full = companion_carriers(w, full)
        fold = [packed(at_full, f), *(packed(map(frozenset.symmetric_difference, at_full, companion_carriers(w, full - {b})), f)
                                      for b in range(f))]
        for r in range(f):
            k = Weight(p, w.k[f - r:] + w.k[:f - r])  # k[r:] + k[:r] is w
            base, *terms = rotate_fold(fold, f, sorted(blk.nu for blk in blocks(w)), r)
            for J in embedding_subsets(f):
                folded = base
                for b in full - J:
                    folded ^= terms[b]
                assert folded == packed(companion_carriers(k, J), f), (w.k, r, sorted(J))


@pytest.mark.parametrize("p,f", SIZES)
def test_alpha_tables_matches_the_per_carrier_scan(p, f):
    ctx = Context(p, f)
    assert cli.suite_alpha_tables(ctx, None) == dense_alpha_tables(ctx)


def mutate(monkeypatch, flips):
    real = matching._expected_slopes

    def mutated(f, J0, Mt, theta, Jside, upper):
        want = real(f, J0, Mt, theta, Jside, upper)
        if flips(J0, Jside):
            want[0] ^= 1
        return want

    monkeypatch.setattr(matching, "_expected_slopes", mutated)


@pytest.mark.parametrize("p,f", SIZES)
def test_a_one_bit_mutation_fails_both_paths(monkeypatch, p, f):
    mutate(monkeypatch, lambda J0, Jside: 0 not in Jside)
    ctx = Context(p, f)
    with pytest.raises(AssertionError, match="^slope table"):
        cli.suite_alpha_tables(ctx, None)
    with pytest.raises(AssertionError, match="^slope table"):
        dense_alpha_tables(ctx)


@pytest.mark.parametrize("p,f", [(3, 3), (5, 3), (3, 4)])
def test_a_two_bit_mutation_passes_the_basis_but_not_the_scan(monkeypatch, p, f):
    # off J0, "0 in Jside" and "1 in Jside" read the bits 0 and 1 of J, and
    # their product is not affine: no basis carrier misses both, J = {} does.
    # (On J0 both may read one block's nu, and the product is then one bit.)
    # So the basis proof rests on the lemma, and the scan stays as its check
    mutate(monkeypatch, lambda J0, Jside: not {0, 1} & (J0 | Jside))
    ctx = Context(p, f)
    assert cli.suite_alpha_tables(ctx, None) == {"outcome": "pass", "configurations": len(valid_weights(p, f)) * 2**f}
    with pytest.raises(AssertionError, match="^slope table"):
        dense_alpha_tables(ctx)


def test_a_row_reading_k_beyond_its_type_passes_the_classes_but_not_the_scan(monkeypatch):
    # alpha-tables audits one weight per type word (k_i capped at 3), which
    # rests on companion_sides reading no k_i beyond its type.  A side row
    # (k_i - 1 + [k_i = 4], 0) off J0 and Mtilde breaks that, and no
    # representative holds a 4: only the per-weight scan sees it, first at 1,4,3
    real = matching.companion_sides

    def mutated(w):
        def rows(side):
            return tuple((b1 + (ki == 4 and (b1, b2) == (3, 0)), b2) for ki, (b1, b2) in zip(w.k, side.table.rows))

        return tuple(side._replace(table=HTWeightTable(w.p, rows(side))) for side in real(w))

    monkeypatch.setattr(matching, "companion_sides", mutated)
    ctx = Context(5, 3)
    assert cli.suite_alpha_tables(ctx, None) == {"outcome": "pass", "configurations": len(valid_weights(5, 3)) * 8}
    with pytest.raises(AssertionError, match="congruence failed"):
        dense_alpha_tables(ctx)
