import random
import time

import pytest
from hypothesis import given, strategies as st

from residuemat import (
    DEFAULT_MAX_Q,
    CycMatrix,
    RootIndex,
    SymbolContext,
    classify,
    field_build,
    index_to_element,
    is_prime,
    reciprocity_index,
    root_index_of,
)
from residuemat.field_core import _odd_law

import field_digests
from conftest import get_field
from naive import (
    element_order,
    field_add_digits,
    field_mul_digits,
    field_neg_digits,
    field_pow_digits,
    unit_scalings,
)


# Moduli and generators are pinned: they were computed with the standalone
# digit-arithmetic routines in naive.py (modulus = first monic irreducible in
# lex order with the constant coefficient most significant; generator = the
# smallest element of full order).  From (2, 8) on they pin what the library's
# earlier trial-division search computed at sizes too large for those
# routines; the table tests below check their arithmetic against naive.py.
PINNED = {
    (2, 1): ((0, 1), 1),
    (3, 1): ((0, 1), 2),
    (5, 1): ((0, 1), 2),
    (7, 1): ((0, 1), 3),
    (13, 1): ((0, 1), 2),
    (2, 2): ((1, 1, 1), 2),
    (3, 2): ((1, 0, 1), 4),
    (2, 3): ((1, 0, 1, 1), 2),
    (2, 8): ((1, 0, 0, 0, 1, 1, 0, 1, 1), 6),
    (17, 2): ((1, 1, 1), 20),
    (3, 7): ((1, 0, 0, 0, 0, 1, 2, 1), 3),
    (2, 9): ((1, 0, 0, 0, 0, 0, 0, 0, 1, 1), 7),
    (3, 5): ((1, 0, 0, 0, 2, 1), 3),
    (2, 16): ((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1), 6),
}

# Extension fields in characteristic 2 (XOR) and odd characteristic (Zech
# table), with both odd and even m for the construction's table split.
TABLE_FIELDS = [(2, 9), (2, 10), (3, 5), (5, 3), (17, 2), (3, 7), (2, 16)]


@pytest.mark.parametrize("p,m", sorted(PINNED))
def test_pinned_modulus_and_generator(p, m):
    f = field_build(p, m)
    modulus, g = PINNED[(p, m)]
    assert f.modulus == modulus
    assert f.g == g
    assert f.q == p**m


@pytest.mark.parametrize(
    "p,m", sorted(set(field_digests.EXPECTED) - set(field_digests.SLOW))
)
def test_tables_keep_their_digest(p, m):
    # (modulus, g, exp, log, zech) as the trial-division search and the
    # digit-convolution walk built them; the CI step checks the SLOW fields
    assert field_digests.digest(field_build(p, m)) == field_digests.EXPECTED[(p, m)]


@pytest.mark.parametrize("q", [4, 8, 9])
def test_generator_is_smallest_of_full_order(q):
    f = get_field(q)
    orders = {x: element_order(f, x) for x in range(1, q)}
    smallest = min(x for x, o in orders.items() if o == q - 1)
    assert f.g == smallest


def test_add_and_neg_are_componentwise(f9):
    # (a + b) and -a digit by digit mod p
    for a in range(9):
        for b in range(9):
            da = [a % 3, a // 3]
            db = [b % 3, b // 3]
            expect = (da[0] + db[0]) % 3 + 3 * ((da[1] + db[1]) % 3)
            assert f9.add(a, b) == expect
        assert f9.add(a, f9.neg(a)) == 0
        assert f9.sub(a, a) == 0


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_exp_log_tables_match_digit_arithmetic(p, m):
    f = field_build(p, m)
    n = f.q - 1
    assert sorted(f.exp) == list(range(1, f.q))
    assert f.log[0] == -1
    assert all(f.log[x] == i for i, x in enumerate(f.exp))
    rng = random.Random(1000 * p + m)
    for i in rng.sample(range(n), min(2000, n)):
        assert f.exp[(i + 1) % n] == field_mul_digits(f, f.exp[i], f.g)


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_add_and_neg_tables_match_digit_arithmetic(p, m):
    f = field_build(p, m)
    rng = random.Random(1000 * p + m)
    for _ in range(2000):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.add(a, b) == field_add_digits(f, a, b)
        assert f.neg(a) == field_neg_digits(f, a)
        assert f.sub(a, b) == field_add_digits(f, a, field_neg_digits(f, b))
    if p == 2:
        assert f.zech is None
        return
    # zech[i] = log(1 + g^i), with the sentinel -1 only where 1 + g^i = 0
    n = f.q - 1
    assert f.zech.index(-1) == n // 2 and f.zech.count(-1) == 1
    sample = range(n) if f.q <= 1024 else rng.sample(range(n), 2000)
    for i in sample:
        if i != n // 2:
            assert f.exp[f.zech[i]] == field_add_digits(f, 1, f.exp[i])


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_field_axioms_gf9(a, b, c):
    f = get_field(9)
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)


@pytest.mark.parametrize("q", [5, 8, 9, 13])
def test_inverses(q):
    f = get_field(q)
    for a in range(1, q):
        assert field_mul_digits(f, a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_exp_log_are_inverse(f9):
    for x in range(1, 9):
        assert f9.exp[f9.log[x]] == x
    for i in range(8):
        assert f9.log[f9.exp[i]] == i


def test_element_coeffs_round_trip(f9):
    for a in range(9):
        assert f9.element_from_coeffs(f9.coeffs_of(a)) == a
    assert f9.coeffs_of(5) == (2, 1)  # 5 = 2 + 1*3
    assert f9.element_from_coeffs([2]) == 2  # short vectors are padded
    with pytest.raises(ValueError):
        f9.element_from_coeffs([0, 0, 1])
    with pytest.raises(ValueError):
        f9.element_from_coeffs([3, 0])
    with pytest.raises(ValueError):
        f9.coeffs_of(9)


def test_field_construction_errors():
    with pytest.raises(ValueError):
        field_build(6)
    with pytest.raises(ValueError):
        field_build(2, 0)
    # q <= DEFAULT_MAX_Q = 2^20, with the bound in the message
    assert DEFAULT_MAX_Q == 1 << 20
    with pytest.raises(ValueError, match="2\\^21 exceeds the configured bound 1048576$"):
        field_build(2, 21)
    with pytest.raises(ValueError, match="1048583\\^1 exceeds the configured bound 1048576$"):
        field_build(1048583)
    # the bound is decided without computing p^m in full
    start = time.perf_counter()
    with pytest.raises(ValueError, match="2\\^1000000000 exceeds the configured bound"):
        field_build(2, 10**9)
    assert time.perf_counter() - start < 0.1


def test_field_equality_and_repr():
    a, b = field_build(3, 2), field_build(3, 2)
    assert a == b and hash(a) == hash(b)
    assert a != field_build(3, 1)
    assert "3^2" in repr(a) and "GF(5)" in repr(field_build(5))


@pytest.mark.parametrize(
    "q,d", [(3, 2), (5, 2), (5, 4), (7, 3), (7, 6), (9, 8), (9, 4), (4, 3), (8, 7)]
)
def test_root_index_round_trip(q, d):
    f = get_field(q)
    for k in range(d):
        x = index_to_element(f, d, k)
        assert root_index_of(f, d, x) == RootIndex(k, d)
        # the element really is a d-th root of unity and a power of zeta
        assert field_pow_digits(f, x, d) == 1


def test_root_index_rejects_non_roots(f5):
    # 3 = g^3 is not a square in F_5 (d = 2 needs even log)
    with pytest.raises(ValueError):
        root_index_of(f5, 2, 3)
    with pytest.raises(ValueError):
        root_index_of(f5, 2, 0)
    with pytest.raises(ValueError):
        root_index_of(f5, 3, 1)  # 3 does not divide 4
    with pytest.raises(ValueError):
        index_to_element(f5, 4, 4)


@pytest.mark.parametrize("d", [2.0, True, "2"])
def test_root_index_functions_refuse_a_non_int_d(f5, d):
    # 2.0 == 2 and True == 1, but a float or bool d would reach the tables
    # as a RootIndex of floats or as a list index
    with pytest.raises(ValueError, match=f"^d must be an int, got {d!r}$"):
        root_index_of(f5, d, 4)
    with pytest.raises(ValueError, match=f"^d must be an int, got {d!r}$"):
        index_to_element(f5, d, 1)


def test_zeta_is_primitive(f13):
    # zeta = g^((q-1)/d) must have exact order d
    for d in (2, 3, 4, 6, 12):
        zeta = index_to_element(f13, d, 1)
        assert field_pow_digits(f13, zeta, d) == 1
        for k in range(1, d):
            assert field_pow_digits(f13, zeta, k) != 1


def test_conjugate_negates_index():
    r = RootIndex(3, 8)
    assert r.conjugate() == RootIndex(5, 8)
    assert RootIndex(0, 4).conjugate() == RootIndex(0, 4)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_is_prime_is_exact_below_psi13_and_refuses_above():
    # psi_12 passes strong tests to every prime base through 37 and fails
    # base 41; psi_13 passes every base through 41, so it is refused
    psi12 = 399165290221 * 798330580441
    psi13 = 1287836182261 * 2575672364521
    assert psi12 == 318665857834031151167461
    assert psi13 == 3317044064679887385961981
    assert not is_prime(psi12)
    with pytest.raises(ValueError, match="psi_13"):
        is_prime(psi13)
    assert not is_prime(3 * psi13)  # a factor among the bases still decides


def test_odd_law_is_minus_one_not_a_dth_power():
    # -1 is a d-th power in F_q iff (-1)^((q - 1)/d) = 1, by digit arithmetic
    for p in (x for x in range(2, 65) if is_prime(x)):
        m = 1
        while p**m <= 64:
            f, q = field_build(p, m), p**m
            minus_one = field_neg_digits(f, 1)
            for d in (x for x in range(1, q) if (q - 1) % x == 0):
                odd = field_pow_digits(f, minus_one, (q - 1) // d) != 1
                assert _odd_law(q, d) == odd, (q, d)
                M = CycMatrix(2, d, [[None, 0], [0, None]])
                assert classify(M, q).branch == ("odd" if odd else "symmetric")
                k = reciprocity_index(SymbolContext(f, d), 1, 1).k
                assert k == (d // 2 if odd else 0), (q, d)
            m += 1


def test_unit_scalings():
    assert unit_scalings(4) == [1, 3]
    assert unit_scalings(6) == [1, 5]
    assert unit_scalings(1) == [1]
