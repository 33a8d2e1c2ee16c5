"""Finite field, modulus selection and polynomial layer."""

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kisinweights.field import (
    MR_BOUND,
    _generator_powers,
    frobenius,
    Context,
    UPoly,
    is_prime,
    make_field,
    poly_phi,
    smallest_irreducible,
)


def test_context_validation():
    Context(3, 2, 1)
    with pytest.raises(ValueError):
        Context(4, 2, 1)
    with pytest.raises(ValueError):
        Context(2, 1, 1)
    with pytest.raises(ValueError):
        Context(3, 0, 1)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 20000) if is_prime(n) != trial(n)] == []


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # a Carmichael number, and strong pseudoprimes to bases 2-7 and 2-23
    assert not is_prime(n)


def test_large_prime_context_is_immediate():
    start = time.perf_counter()
    ctx = Context(2**61 - 1, 2)
    assert time.perf_counter() - start < 1.0  # trial division would take about a minute
    assert ctx == (2**61 - 1, 2, 1)


def test_is_prime_refuses_past_its_bound():
    assert not is_prime(MR_BOUND - 1)
    # MR_BOUND itself is composite and passes every base: it must be refused, not answered
    with pytest.raises(ValueError, match=str(MR_BOUND)):
        is_prime(MR_BOUND)
    with pytest.raises(ValueError, match=str(MR_BOUND)):
        Context(MR_BOUND + 2, 1)


def test_context_moduli():
    ctx = Context(3, 2, 1)
    assert ctx.m1 == 8
    assert oracles.m2(ctx) == 80


def test_smallest_irreducible_degree_one():
    # degree 1: the polynomial u itself (coefficients low-to-high)
    assert smallest_irreducible(3, 1) == (0, 1)
    assert smallest_irreducible(5, 1) == (0, 1)


def test_smallest_irreducible_f9():
    # x^2 + 1 is the lexicographically smallest monic irreducible over F_3
    assert smallest_irreducible(3, 2) == (1, 0, 1)


def test_smallest_irreducible_is_irreducible_brute_force():
    for p, d in [(3, 2), (3, 3), (5, 2), (7, 2)]:
        mod = smallest_irreducible(p, d)
        assert len(mod) == d + 1 and mod[-1] == 1
        # no root-free check shortcut: trial division by every monic poly of
        # degree 1..d//2 over Z/p, done independently with integer arithmetic
        def poly_mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
            return out

        def divides(div, target):
            rem = list(target)
            while len(rem) >= len(div) and any(rem):
                while rem and rem[-1] == 0:
                    rem.pop()
                if len(rem) < len(div):
                    break
                coef = rem[-1]
                shift = len(rem) - len(div)
                for i, c in enumerate(div):
                    rem[shift + i] = (rem[shift + i] - coef * c) % p
            return not any(rem)

        import itertools

        for deg in range(1, d // 2 + 1):
            for lower in itertools.product(range(p), repeat=deg):
                div = list(lower) + [1]
                assert not divides(div, mod)


# (p, d, modulus, generator as an int), as the Rabin test and the prime
# cofactors of p^d - 1 chose them; trial division and the orbit walk must agree
FIELD_GRID = [
    (2, 1, (0, 1), 1),
    (2, 2, (1, 1, 1), 2),
    (2, 3, (1, 0, 1, 1), 2),
    (2, 4, (1, 0, 0, 1, 1), 2),
    (2, 5, (1, 0, 0, 1, 0, 1), 2),
    (2, 6, (1, 0, 0, 0, 0, 1, 1), 2),
    (2, 7, (1, 0, 0, 0, 0, 0, 1, 1), 2),
    (2, 8, (1, 0, 0, 0, 1, 1, 0, 1, 1), 6),
    (2, 9, (1, 0, 0, 0, 0, 0, 0, 0, 1, 1), 7),
    (2, 10, (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), 2),
    (3, 1, (0, 1), 2),
    (3, 2, (1, 0, 1), 4),
    (3, 3, (1, 0, 2, 1), 3),
    (3, 4, (1, 0, 1, 1, 1), 10),
    (3, 5, (1, 0, 0, 0, 2, 1), 3),
    (3, 6, (1, 0, 0, 0, 1, 1, 1), 4),
    (3, 7, (1, 0, 0, 0, 0, 1, 2, 1), 3),
    (3, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1), 4),
    (5, 1, (0, 1), 2),
    (5, 2, (1, 1, 1), 7),
    (5, 3, (1, 0, 1, 1), 7),
    (5, 4, (1, 0, 1, 1, 1), 30),
    (5, 5, (1, 0, 0, 0, 4, 1), 7),
    (7, 1, (0, 1), 3),
    (7, 2, (1, 0, 1), 9),
    (7, 3, (1, 0, 1, 1), 9),
    (7, 4, (1, 0, 0, 1, 1), 13),
    (11, 1, (0, 1), 2),
    (11, 2, (1, 0, 1), 15),
    (11, 3, (1, 0, 4, 1), 12),
    (13, 1, (0, 1), 2),
    (13, 2, (1, 3, 1), 18),
    (17, 1, (0, 1), 3),
    (17, 2, (1, 1, 1), 20),
]


@pytest.mark.parametrize("p,d,modulus,generator", FIELD_GRID, ids=[f"GF{p}^{d}" for p, d, *_ in FIELD_GRID])
def test_field_modulus_and_generator_pinned(p, d, modulus, generator):
    F = make_field(p, d)
    assert F.modulus == modulus
    assert F._exp[1].n == generator
    # the smallest generator: no smaller unit's powers reach every unit
    assert all(len({F.elem(g) ** e for e in range(F.order - 1)}) < F.order - 1 for g in range(1, generator))


@pytest.mark.parametrize("p,d,modulus", [(3, 2, (2, 0, 1)), (3, 2, (0, 0, 1)), (2, 4, (1, 0, 1, 0, 1)), (5, 3, (0, 1, 0, 1))])
def test_generator_walk_refuses_a_reducible_modulus(p, d, modulus):
    # x^2 - 1, x^2, (x^2 + x + 1)^2 and x(x^2 + 1): every orbit stops at p^d - 1 steps
    with pytest.raises(RuntimeError, match="not irreducible"):
        _generator_powers(p, d, modulus)


def test_field_arithmetic_exhaustive_f9():
    F = make_field(3, 2)
    elems = list(F.elements())
    assert len(elems) == 9
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            if not b.is_zero():
                assert (a * b) / b == a
    for a in elems:
        # Frobenius is the p-power map and a field automorphism
        assert frobenius(a) == a**3
    for a in elems:
        for b in elems:
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_frobenius_order():
    F = make_field(3, 3)
    for a in F.elements():
        x = a
        for _ in range(3):
            x = frobenius(x)
        assert x == a


def test_upoly_basics():
    F = make_field(3, 1)
    one = F.one
    u = UPoly.monomial(one, 1)
    q = u * u + UPoly.constant(one)
    assert q.degree() == 2
    assert q.coefficient(0) == one and q.coefficient(2) == one
    assert (q - q).is_zero()
    assert UPoly.zero(F).valuation() == math.inf
    assert q.valuation() == 0
    assert (u * q).valuation() == 1


def test_upoly_shift_unshift():
    F = make_field(3, 1)
    q = UPoly.monomial(F.one, 2) + UPoly.constant(F.elem(2))
    s = q.shift(3)
    assert s.valuation() == 3
    assert oracles.unshift(s, 3) == q
    assert oracles.divides_exactly(s, 3)
    assert not oracles.divides_exactly(s, 4)


def test_poly_phi_semilinearity():
    # phi sends c u^j to c^p u^(p j)
    F = make_field(3, 2)
    g = next(iter(F.units()))
    q = UPoly.monomial(g, 2)
    r = poly_phi(q)
    assert r.degree() == 6
    assert r.coefficient(6) == frobenius(g)


@settings(max_examples=200)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_poly_phi_multiplicative(a, b, c):
    F = make_field(3, 2)
    x = UPoly.monomial(F.elem(a % 9), 1) + UPoly.constant(F.elem(b % 9))
    y = UPoly.monomial(F.elem(c % 9), 2) + UPoly.constant(F.one)
    assert poly_phi(x * y) == poly_phi(x) * poly_phi(y)
    assert poly_phi(x + y) == poly_phi(x) + poly_phi(y)


# ---------------------------------------------------------------------------
# table arithmetic against a dense coefficient-vector reference
# ---------------------------------------------------------------------------

ORACLE_FIELDS = [(5, 1), (3, 2), (5, 2), (3, 3), (7, 2)]


def _digits(n, p, d):
    return [n // p**i % p for i in range(d)]


def _ref_mul(a, b, modulus, p):
    """Schoolbook product of coefficient vectors, reduced by the monic modulus."""
    d = len(modulus) - 1
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for top in range(len(prod) - 1, d - 1, -1):
        c = prod[top]
        for j in range(d + 1):
            prod[top - d + j] = (prod[top - d + j] - c * modulus[j]) % p
    return prod[:d]


def _ref_pow(a, e, modulus, p):
    result = [1] + [0] * (len(a) - 1)
    for _ in range(e):
        result = _ref_mul(result, a, modulus, p)
    return result


@pytest.mark.parametrize("p,d", ORACLE_FIELDS)
def test_table_arithmetic_matches_dense_reference(p, d):
    F = make_field(p, d)
    mod = F.modulus
    vec = {n: _digits(n, p, d) for n in range(F.order)}
    for a in F.elements():
        va = vec[a.n]
        assert list(a.coeffs) == va
        assert F.elem(a.n) is a and F.elem(va) is a
        assert list((-a).coeffs) == [(-c) % p for c in va]
        assert list(frobenius(a).coeffs) == _ref_pow(va, p, mod, p)
        for b in F.elements():
            vb = vec[b.n]
            assert list((a + b).coeffs) == [(x + y) % p for x, y in zip(va, vb)]
            assert list((a - b).coeffs) == [(x - y) % p for x, y in zip(va, vb)]
            assert list((a * b).coeffs) == _ref_mul(va, vb, mod, p)
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            with pytest.raises(ZeroDivisionError):
                a ** -1
            assert a**0 == F.one and a**3 == a
            continue
        inv = a.inverse()
        assert _ref_mul(va, list(inv.coeffs), mod, p) == [1] + [0] * (d - 1)
        for e in (-3, -1, 0, 1, 2, F.order + 1):
            want = _ref_pow(list(inv.coeffs) if e < 0 else va, abs(e), mod, p)
            assert list((a**e).coeffs) == want


def test_elem_int_and_vector_round_trip():
    F = make_field(5, 2)
    for n in range(F.order):
        x = F.elem(n)
        assert x.n == n
        assert F.elem(x.coeffs) is x
        assert F.elem(-n) == -x
    assert F.elem([7, -1]) == F.elem([2, 4])
    with pytest.raises(ValueError):
        F.elem(F.order)
    with pytest.raises(ValueError):
        F.elem([1, 2, 3])
    assert list(F.units()) == list(F.elements())[1:]


def test_cross_field_operations_refused():
    a, b = make_field(3, 2).one, make_field(3, 1).one
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ValueError):
            op()


# ---------------------------------------------------------------------------
# sparse F[u] against a dense-list reference
# ---------------------------------------------------------------------------

F9 = make_field(3, 2)
dense_polys = st.lists(st.integers(0, F9.order - 1), max_size=6).map(
    lambda ns: [F9.elem(n) for n in ns]
)


def _from_dense(cs):
    out = UPoly.zero(F9)
    for n, c in enumerate(cs):
        out = out + UPoly.monomial(c, n)
    return out


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _dense_of(q):
    return _trim(q.coefficient(n) for n in range(q.degree() + 1))


def _dense_mul(a, b):
    out = [F9.zero] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _dense_zip(a, b, op):
    n = max(len(a), len(b))
    a, b = a + [F9.zero] * (n - len(a)), b + [F9.zero] * (n - len(b))
    return _trim(op(x, y) for x, y in zip(a, b))


@settings(max_examples=300)
@given(dense_polys, dense_polys, st.integers(0, 4))
def test_sparse_upoly_matches_dense_reference(a, b, n):
    x, y = _from_dense(a), _from_dense(b)
    a, b = _trim(a), _trim(b)
    assert _dense_of(x) == a
    assert x.degree() == len(a) - 1
    nonzero = [i for i, c in enumerate(a) if not c.is_zero()]
    assert x.valuation() == (nonzero[0] if nonzero else math.inf)
    assert _dense_of(x * y) == _dense_mul(a, b)
    assert _dense_of(x + y) == _dense_zip(a, b, lambda s, t: s + t)
    assert _dense_of(x - y) == _dense_zip(a, b, lambda s, t: s - t)
    assert _dense_of(x.shift(n)) == (_trim([F9.zero] * n + a) if a else [])
    assert oracles.unshift(x.shift(n), n) == x
    phi = [F9.zero] * (3 * len(a))
    for j, c in enumerate(a):
        phi[3 * j] = c**3
    assert _dense_of(poly_phi(x)) == _trim(phi)


@settings(max_examples=200)
@given(dense_polys, dense_polys)
def test_sparse_upoly_cancellation_and_hash(a, b):
    x, y = _from_dense(a), _from_dense(b)
    assert (x - x).is_zero()
    assert x - x == UPoly.zero(F9)
    assert (x + y) - y == x
    assert hash((x + y) - y) == hash(x)
    assert hash(x * y) == hash(y * x) and x * y == y * x
