import hashlib
import math
import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from residuemat import (
    NEG_INF,
    Poly,
    constant,
    count_monic_irreducibles,
    enumerate_monic,
    field_build,
    format_poly,
    from_code,
    gcd,
    is_irreducible,
    mod_pow,
    monic_from_code,
    monic_irreducibles,
    norm,
    one,
    parse_poly,
    to_code,
    variable,
    zero,
)

from residuemat import poly_ring
from residuemat.poly_ring import (
    MAX_POLY_DEGREE,
    _Packed,
    _add_raw,
    _ben_or,
    _frobenius_rows,
    _gcd_raw,
    _inv_raw,
    _minus_t,
    _packed_width,
    _pow_raw,
    _slots,
    _ypowers,
)

from residuemat.realize import _ClassSieve

import ben_or_past
from conftest import forced_route, get_context, get_field, sieve_at_degree, sympy_oracle
from naive import (
    field_add_digits,
    field_neg_digits,
    has_monic_factor,
    poly_divmod_lists,
    poly_mod_pow_lists,
    poly_mul_lists,
    reducible_monics,
    trial_division_irreducible,
)


def coeff_lists(q, max_len=8):
    return st.lists(st.integers(0, q - 1), max_size=max_len)


# -- parsing and formatting ---------------------------------------------------


def test_parse_prime_field(f3):
    assert parse_poly("t^3+2*t+1", f3).coeffs == (1, 2, 0, 1)
    assert parse_poly("t", f3).coeffs == (0, 1)
    assert parse_poly("1", f3).coeffs == (1,)
    assert parse_poly("0", f3).coeffs == ()
    assert parse_poly("  t ^ 2  +  2 ", f3).coeffs == (2, 0, 1)
    assert parse_poly("-t", f3).coeffs == (0, 2)
    assert parse_poly("- t + 1", f3).coeffs == (1, 2)
    assert parse_poly("t - 1", f3).coeffs == (2, 1)
    # like terms combine, coefficients reduce mod p
    assert parse_poly("t + t", f3).coeffs == (0, 2)
    assert parse_poly("7*t", f3).coeffs == (0, 1)
    assert parse_poly("3*t^2 + t", f3).coeffs == (0, 1)


def test_parse_extension_field(f4):
    # {c0,c1} is the digit vector of a coefficient, constant digit first
    P = parse_poly("t^2+{1,1}*t+{0,1}", f4)
    assert P.coeffs == (2, 3, 1)
    # a bare integer below p means a prime-subfield coefficient
    assert parse_poly("1*t + 1", f4).coeffs == (1, 1)
    f9 = get_field(9)
    assert parse_poly("{1,2}", f9).coeffs == (7,)
    assert parse_poly("2*t", f9).coeffs == (0, 2)


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "t^", "x", "t +", "+", "2**t", "t^-1", "{1,2", "t 1", "1 t"],
)
def test_parse_rejects_garbage(bad, f3):
    with pytest.raises(ValueError):
        parse_poly(bad, f3)


def test_parse_degree_bound(f3):
    # every call refuses a term above MAX_POLY_DEGREE before it allocates,
    # even one that cancels; t^10000000000 would ask for 10^10 coefficients
    assert MAX_POLY_DEGREE == 256
    assert parse_poly("t^256", f3).degree == parse_poly("t^256 + 1", f3).degree == 256
    # an exponent is refused by its digit count before int() reads it, so
    # one past Python's 4300-digit conversion limit gets the same message,
    # and leading zeros do not count
    assert parse_poly("t^" + "0" * 5000 + "256", f3).degree == 256
    for text, top in (
        ("t^257", 257),
        ("t^257 - t^257 + 1", 257),
        ("t^1000000 + 1", 10**6),
        ("t^10000000000", 10**10),
        ("t^" + "9" * 5000, "9" * 5000),
    ):
        with pytest.raises(ValueError) as exc:
            parse_poly(text, f3)
        assert str(exc.value) == f"term t^{top} exceeds the degree bound 256"


def test_parse_coefficient_range_errors(f3, f4):
    with pytest.raises(ValueError):
        parse_poly("{1,2}*t", f3)  # digit vectors need an extension field
    with pytest.raises(ValueError):
        parse_poly("3*t", f4)  # bare 3 is outside the prime subfield of F_4
    with pytest.raises(ValueError):
        parse_poly("{}*t", f4)


@pytest.mark.parametrize("vector", ["{1,}", "{,1}", "{1,,2}", "{1 2}"])
def test_parse_names_a_bad_digit_vector(vector, f9):
    message = f"digit vector '{re.escape(vector)}' is not a comma-separated list"
    with pytest.raises(ValueError, match=message):
        parse_poly(f"t^2 + {vector}*t + 1", f9)


def test_format_prime_field(f3):
    assert format_poly(Poly(f3, (1, 2, 0, 1))) == "t^3 + 2*t + 1"
    assert format_poly(Poly(f3, (0, 1))) == "t"
    assert format_poly(zero(f3)) == "0"
    assert format_poly(one(f3)) == "1"
    assert format_poly(Poly(f3, (0, 0, 2))) == "2*t^2"


def test_format_extension_field(f4):
    assert format_poly(Poly(f4, (2, 3, 1))) == "t^2 + {1,1}*t + {0,1}"
    assert format_poly(Poly(f4, (1,))) == "{1,0}"


@pytest.mark.parametrize("q", [3, 4, 9])
def test_format_parse_round_trip(q):
    f = get_field(q)
    for deg in range(3):
        for P in enumerate_monic(f, deg):
            assert parse_poly(format_poly(P), f) == P


# -- construction and basic structure ----------------------------------------


def test_constructor_trims_and_validates(f3):
    assert Poly(f3, [1, 2, 0]).coeffs == (1, 2)
    assert Poly(f3, []).is_zero()
    with pytest.raises(ValueError):
        Poly(f3, [3])
    with pytest.raises(ValueError):
        Poly(f3, [1.0])


@pytest.mark.parametrize("coeffs", [[True, 1], [1, False], [False], [2, True]])
def test_constructor_rejects_bool_coefficients(coeffs):
    # bool is an int subclass, but True is no element code: it would print
    # as "t + True"
    with pytest.raises(ValueError, match="coefficient"):
        Poly(get_field(5), coeffs)


def test_degree_sentinel(f3):
    z = zero(f3)
    assert z.degree == NEG_INF
    assert z.degree < 0
    assert one(f3).degree == 0
    assert variable(f3).degree == 1
    t = variable(f3)
    assert (t * t - t * t).degree == NEG_INF


def test_equality_and_hash(f3, f5):
    assert Poly(f3, (1, 1)) == Poly(f3, (1, 1))
    assert hash(Poly(f3, (1, 1))) == hash(Poly(f3, (1, 1)))
    assert Poly(f3, (1, 1)) != Poly(f5, (1, 1))
    assert Poly(f3, (1, 1)) != (1, 1)


def test_monic_leading_and_scale(f3):
    P = Poly(f3, (1, 2))  # 2t + 1
    assert not P.is_monic()
    assert P.leading_coeff() == 2
    assert P.monic().coeffs == (2, 1)  # 2*(2t+1) = t + 2
    assert P.scale(0).is_zero()
    assert variable(f3).is_monic()
    with pytest.raises(ValueError):
        zero(f3).monic()
    with pytest.raises(ValueError):
        zero(f3).leading_coeff()


def test_mixed_field_operations_raise(f3, f5):
    with pytest.raises(ValueError):
        variable(f3) + variable(f5)
    with pytest.raises(TypeError):
        variable(f3) * 2


# -- ring arithmetic against the schoolbook kernels ---------------------------


@given(st.data())
@settings(max_examples=60)
@pytest.mark.parametrize("q", [4, 5, 8, 9, 2187])
def test_mul_matches_schoolbook(q, data):
    f = get_field(q)
    a = data.draw(coeff_lists(q))
    b = data.draw(coeff_lists(q))
    got = Poly(f, a) * Poly(f, b)
    assert got == Poly(f, poly_mul_lists(f, a, b))


@given(st.data())
@settings(max_examples=60)
@pytest.mark.parametrize("q", [5, 9])
def test_ring_axioms(q, data):
    f = get_field(q)
    a = Poly(f, data.draw(coeff_lists(q)))
    b = Poly(f, data.draw(coeff_lists(q)))
    c = Poly(f, data.draw(coeff_lists(q)))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b == a + (-b)
    assert (a - b) + b == a
    assert a * one(f) == a
    assert a + zero(f) == a
    assert (a * b).degree == a.degree + b.degree or (a * b).is_zero()


@given(st.data())
@settings(max_examples=60)
@pytest.mark.parametrize("q", [2, 4, 5, 9])
def test_add_sub_and_minus_t_match_digitwise(q, data):
    # _add_raw inlines the field operation for prime fields and
    # characteristic 2, and _minus_t is Ben-Or's t^(q^i) - t
    f = get_field(q)
    a, b = data.draw(coeff_lists(q)), data.draw(coeff_lists(q))
    n = max(len(a), len(b), 2)
    pa, pb = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    want_sum = [field_add_digits(f, x, y) for x, y in zip(pa, pb)]
    want_diff = [field_add_digits(f, x, field_neg_digits(f, y)) for x, y in zip(pa, pb)]
    assert Poly(f, _add_raw(f, a, b)) == Poly(f, want_sum)
    assert Poly(f, _add_raw(f, a, b, True)) == Poly(f, want_diff)
    want = pa[:1] + [field_add_digits(f, pa[1], field_neg_digits(f, 1))] + pa[2:]
    assert Poly(f, _minus_t(f, a)) == Poly(f, want)


@given(st.data())
@settings(max_examples=60)
@pytest.mark.parametrize("q", [5, 9])
def test_divrem_reconstructs(q, data):
    f = get_field(q)
    a = Poly(f, data.draw(coeff_lists(q, 10)))
    b = Poly(f, data.draw(coeff_lists(q, 5).filter(any)))
    quo, rem = divmod(a, b)
    assert quo * b + rem == a
    assert rem.is_zero() or rem.degree < b.degree
    assert a // b == quo and a % b == rem


@given(st.data())
@settings(max_examples=60)
@pytest.mark.parametrize("q", [5, 8, 9, 2187])
def test_divmod_matches_naive(q, data):
    f = get_field(q)
    a = data.draw(coeff_lists(q, 10))
    b = data.draw(coeff_lists(q, 5).filter(lambda c: c and c[-1] > 1))  # non-monic
    quo, rem = divmod(Poly(f, a), Poly(f, b))
    want_quo, want_rem = poly_divmod_lists(f, a, b)
    assert quo == Poly(f, want_quo) and rem == Poly(f, want_rem)


def test_divmod_by_zero_raises(f3):
    with pytest.raises(ZeroDivisionError):
        divmod(variable(f3), zero(f3))


# -- gcd -----------------------------------------------------------------


def test_gcd_examples(f3):
    t = variable(f3)
    a = (t + one(f3)) * (t + constant(f3, 2))
    b = (t + one(f3)) * t
    assert gcd(a, b) == t + one(f3)
    assert gcd(a, zero(f3)) == a.monic()
    assert gcd(zero(f3), zero(f3)).is_zero()
    assert gcd(a.scale(2), b.scale(2)) == t + one(f3)  # result is monic


@given(st.data())
@settings(max_examples=40)
def test_gcd_divides_both(data):
    f = get_field(5)
    a = Poly(f, data.draw(coeff_lists(5, 6)))
    b = Poly(f, data.draw(coeff_lists(5, 6)))
    g = gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
    else:
        assert g.is_monic()
        assert (a % g).is_zero() and (b % g).is_zero()


@pytest.mark.parametrize("q", [5, 4, 9])
def test_inv_raw_cofactor(q):
    # s*a = g mod b with g monic; a common factor c makes some pairs not coprime
    f = get_field(q)
    rng = random.Random(q)

    def rand_poly(lo, hi):
        cs = [rng.randrange(q) for _ in range(rng.randint(lo, hi))]
        return cs + [rng.randrange(1, q)]

    coprime = 0
    for trial in range(60):
        a, b = rand_poly(0, 5), rand_poly(1, 5)
        if trial % 4 == 0:
            c = rand_poly(1, 2)
            a, b = poly_mul_lists(f, a, c), poly_mul_lists(f, b, c)
        g, s = _inv_raw(f, a, b)
        assert g[-1] == 1
        assert not poly_divmod_lists(f, a, g)[1] and not poly_divmod_lists(f, b, g)[1]
        sa = poly_divmod_lists(f, poly_mul_lists(f, s, a), b)[1]
        assert sa == poly_divmod_lists(f, g, b)[1], (a, b)
        coprime += g == [1]
    assert 20 <= coprime < 60


# -- modular exponentiation ----------------------------------------------


@given(st.data())
@settings(max_examples=40)
@pytest.mark.parametrize("q", [3, 4, 8, 9, 2187])
def test_mod_pow_matches_naive(q, data):
    f = get_field(q)
    a = Poly(f, data.draw(coeff_lists(q, 5)))
    mod = Poly(f, data.draw(coeff_lists(q, 4).filter(lambda c: len(c) > 1 and c[-1])))
    e = data.draw(st.integers(0, 50))
    got = mod_pow(a, e, mod)
    assert got == Poly(f, poly_mod_pow_lists(f, list(a.coeffs), e, list(mod.coeffs)))


def test_mod_pow_huge_exponent_unit_group(f5):
    # residues mod an irreducible P form a field of q^deg(P) elements
    P = parse_poly("t^3 + t + 1", f5)
    assert is_irreducible(P)
    order = norm(P) - 1
    for code in (1, 7, 23, 101):
        a = from_code(f5, code)
        assert mod_pow(a, order, P) == one(f5)
        assert mod_pow(a, order + 1, P) == a % P


def test_mod_pow_edge_cases(f3):
    t = variable(f3)
    assert mod_pow(t, 0, t * t + one(f3)) == one(f3)
    assert mod_pow(t, 5, one(f3)).is_zero()  # degree-0 modulus: the zero ring
    with pytest.raises(ValueError):
        mod_pow(t, -1, t * t + one(f3))
    with pytest.raises(ZeroDivisionError):
        mod_pow(t, 2, zero(f3))


@pytest.mark.parametrize("q", [2, 3, 5, 13])
def test_mod_pow_matches_sympy_over_prime_fields(q):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    f = get_field(q)
    rng = random.Random(q)
    for n in (6, 7, 11, 16, 23, 31, 40):
        # non-monic modulus and an argument up to twice its degree
        mod = [rng.randrange(q) for _ in range(n)] + [rng.randrange(1, q)]
        a = [rng.randrange(q) for _ in range(rng.randrange(2 * n))] + [1]
        for e in (q**n - 1, (q**n - 1) // 2 + n, rng.getrandbits(200)):
            # sympy's galoistools take descending coefficient lists over Z/p
            want = gf_pow_mod(a[::-1], e, mod[::-1], q, ZZ)[::-1]
            assert mod_pow(Poly(f, a), e, Poly(f, mod)) == Poly(f, want), (n, e)


def test_norm(f3, f9):
    assert norm(variable(f3)) == 3
    assert norm(parse_poly("t^2+1", f3)) == 9
    assert norm(variable(f9)) == 9
    assert norm(one(f3)) == 1
    with pytest.raises(ValueError):
        norm(zero(f3))


# -- irreducibility -----------------------------------------------------------


@pytest.mark.parametrize("q,max_deg", [(2, 4), (3, 4), (9, 2), (2, 7), (4, 5)])
def test_irreducibility_matches_trial_division(q, max_deg):
    f = get_field(q)
    for deg in range(1, max_deg + 1):
        found = 0
        for P in enumerate_monic(f, deg):
            flag = is_irreducible(P)
            assert flag == trial_division_irreducible(P)
            found += flag
        assert found == count_monic_irreducibles(f, deg)


@pytest.mark.parametrize("q", [2, 3, 5, 13])
def test_irreducibility_matches_sympy_over_prime_fields(q):
    irreducible, mul, random_irreducible = sympy_oracle()
    f = get_field(q)
    rng = random.Random(q)
    # random monics: mostly reducible, with their smallest factor at
    # every depth of the Frobenius chain
    for n in range(6, 41):
        for _ in range(3):
            c = [rng.randrange(q) for _ in range(n)] + [1]
            assert is_irreducible(Poly(f, c)) == irreducible(c, q), (n, c)
    # structured cases: the verdict hinges on the last gcd step or on a
    # repeated factor
    for n in (6, 9, 14, 21, 30, 40):
        P = random_irreducible(rng, q, n)
        assert is_irreducible(Poly(f, P))
        cases = [mul(random_irreducible(rng, q, n - 1), [rng.randrange(q), 1], q)]
        if n % 2 == 0:
            A = random_irreducible(rng, q, n // 2)
            B = random_irreducible(rng, q, n // 2)
            cases += [mul(A, B, q), mul(A, A, q)]
        for c in cases:
            assert len(c) == n + 1 and not irreducible(c, q)
            assert not is_irreducible(Poly(f, c)), (n, c)


@pytest.mark.parametrize("q", [4, 9, 256])
def test_structured_reducibles_rejected_over_extension_fields(q):
    _, _, random_irreducible = sympy_oracle()
    f = get_field(q)
    p = f.p
    rng = random.Random(q)
    # t -> t + c with c outside the prime subfield keeps irreducibility and
    # gives the factors coefficients beyond F_p
    shift = Poly(f, (p, 1))

    def lift(c):
        out = zero(f)
        for x in reversed(c):
            out = out * shift + constant(f, x)
        return out

    linear = Poly(f, (p + 1, 1))
    for k in (3, 5, 7, 9, 11):
        # an irreducible of odd degree over F_p stays irreducible over
        # F_(p^m), since m is a power of 2 here and so gcd(k, m) = 1
        a = random_irreducible(rng, p, k)
        b = a
        while b == a:
            b = random_irreducible(rng, p, k)
        A, B = lift(a), lift(b)
        assert is_irreducible(A) and is_irreducible(B)
        products = [A * B, A * A, A * linear]
        for P in products:
            assert not is_irreducible(P), (k, format_poly(P))
        # the packed chain too, from degree 4 up
        with forced_route(packed=True):
            assert _ben_or(f, list(A.coeffs)) and _ben_or(f, list(B.coeffs))
            for P in products:
                assert not _ben_or(f, list(P.coeffs)), (k, format_poly(P))


@pytest.mark.parametrize("q", [2, 5, 13, 1021, 8, 9, 2187])
def test_frobenius_rows_match_naive_powers(q):
    f = get_field(q)
    rng = random.Random(q)
    # deg P > q makes t^q mod P the monomial t^q (the sparse path, and the
    # packed shift route), and deg P <= q a dense residue (the packed
    # Barrett route); GF(1021) and GF(2187) have only the dense one in reach
    for n in [2, 5, 9] + ([q + 3] if q < 20 else []):
        mod = [rng.randrange(q) for _ in range(n)] + [1]
        xq = poly_mod_pow_lists(f, [0, 1], q, mod)
        expected = [poly_mod_pow_lists(f, [0, 1], j * q, mod) for j in range(n)]
        assert _frobenius_rows(f, xq, mod) == expected, n
        # packed rows, over extension fields one digit plane per base-p
        # digit, read through the kernel's own unpack mod p
        ctx = _Packed(f, mod, _slots(f, n))
        rows = [ctx.unpack(row, n) for row in ctx.frobenius_rows(xq)]
        assert rows == [e + [0] * (n - len(e)) for e in expected], n


@pytest.mark.parametrize(
    "q,max_deg", [(2, 10), (3, 7), (5, 6), (7, 5), (4, 5), (8, 4), (9, 4)]
)
def test_packed_chain_matches_every_monic(q, max_deg):
    # trial division of every GF(5) sextic would take about 20 s, so the
    # oracle is its mirror image: the set of all products of two monics
    f = get_field(q)
    for deg in range(1, max_deg + 1):
        reducible = reducible_monics(f, deg)
        found = 0
        with forced_route(packed=True):
            for P in enumerate_monic(f, deg):
                flag = _ben_or(f, list(P.coeffs))
                assert flag == (P.coeffs not in reducible), format_poly(P)
                found += flag
        assert found == count_monic_irreducibles(f, deg)


@pytest.mark.parametrize("q", [5, 13, 1021])
def test_packed_chain_matches_sympy(q):
    irreducible, mul, random_irreducible = sympy_oracle()
    f = get_field(q)
    rng = random.Random(q)
    with forced_route(packed=True):
        for n in (9, 12, 17, 24, 33, 48, 64, 96):
            c = [rng.randrange(q) for _ in range(n)] + [1]
            assert _ben_or(f, c) == irreducible(c, q), (n, c)
            if n > 64:
                continue  # the root test alone makes a degree-96 search slow
            # sympy takes up to 0.5 s on each reducible of high degree, so
            # the irreducible is found by the packed chain and confirmed by
            # sympy
            while not _ben_or(f, c):
                c = [rng.randrange(q) for _ in range(n)] + [1]
            assert irreducible(c, q), (n, c)
        for k, c in _structured_reducibles(rng, q):
            assert not _ben_or(f, c), (k, c)


def _structured_reducibles(rng, q, n=24):
    """(k, A * B) with deg A = k, for k = 2 .. n/2 and A, B distinct random
    irreducibles over F_q.  The packed chain runs steps i = 2 .. n/2 with
    two gcds: one after the first isqrt(n/2) steps (i = 2 .. 4 at n = 24,
    2 .. 5 at n = 40) and one over the product of the rest, at the end.  A
    smallest factor of degree k is first seen at step i = k, so k lands at
    every position of the first block and of the tail.  k = n/2 is A * B
    with deg A = deg B: there t^(q^(n/2)) = t mod P, and the difference
    itself is zero."""
    irreducible, mul, random_irreducible = sympy_oracle()
    for k in range(2, n // 2 + 1):
        A = random_irreducible(rng, q, k)
        B = A
        while B == A:
            B = random_irreducible(rng, q, n - k)
        c = mul(A, B, q)
        assert len(c) == n + 1 and not irreducible(c, q)
        yield k, c


# every monic with no factor of degree <= past, for past = 1 and 2; the CI
# runs degree 8 over GF(4) and GF(5) and degree 6 over GF(9) as a script
@pytest.mark.parametrize("q,max_deg", [(2, 8), (3, 8), (4, 6), (5, 6), (9, 4)])
def test_ben_or_past_the_sieve_matches_every_survivor(q, max_deg):
    past1, past2 = ben_or_past.check(q, max_deg)
    assert 0 < past2 < past1


@pytest.mark.parametrize("q", [5, 13])
def test_ben_or_past_the_sieve_matches_sympy_on_its_survivors(q):
    # candidates of degree 24 and 40 that realize's sieve lets through, at
    # the past it reports, on _ben_or's own route and on both forced
    # routes: random ones and one irreducible; and at degree 24, A * B with
    # A irreducible of each degree 3 .. 12, so that the smallest factor
    # lands at every step the list route still takes a gcd after
    irreducible = sympy_oracle()[0]
    ctx = get_context(q, 4)
    f = ctx.field
    rng = random.Random(24 * q)
    # Q vanishes at a constant and at a quadratic root, as past position 2
    Q = Poly(f, (0, 1)) * Poly(f, (1, 1)) * next(monic_irreducibles(f, 2))
    for n in (24, 40):
        u0 = from_code(f, rng.randrange(1, q**4))
        while gcd(u0, Q).degree:
            u0 = from_code(f, rng.randrange(1, q**4))
        past, rejects = sieve_at_degree(_ClassSieve(ctx, u0, Q), Q, n - 4)
        assert past == 2
        survivors = []
        while len(survivors) < 3 or not _ben_or(f, survivors[-1]):
            code = rng.randrange(q ** (n - 4))
            if not rejects(code):
                P = Q * monic_from_code(f, n - 4, code) + u0
                # what _ben_or may assume
                assert not has_monic_factor(P, past), format_poly(P)
                survivors.append(list(P.coeffs))
        # the random ones, and the first irreducible after them
        cases = [(c, irreducible(c, q)) for c in survivors[:2] + survivors[-1:]]
        assert cases[-1][1]
        if n == 24:
            cases += [(c, False) for k, c in _structured_reducibles(rng, q, n) if k > 2]
        for c, want in cases:
            assert _ben_or(f, c, 2) == want, c
            for packed in (False, True):
                with forced_route(packed):
                    assert _ben_or(f, c, 2) == want, (packed, c)


@pytest.mark.parametrize("q", [5, 13])
def test_list_and_packed_chains_agree(q):
    # the same dense moduli through both routes of _ben_or's chain, whatever
    # the crossover would pick: random ones of degree 16 .. 64 (about 1/n of
    # them irreducible), one irreducible per degree, and the structured
    # reducibles at n = 24 and 40 that put a smallest factor at every
    # position of the packed route's first gcd block and of its tail
    irreducible = sympy_oracle()[0]
    f = get_field(q)
    rng = random.Random(16 * q)
    cases = []
    for n in (16, 24, 40, 64):
        cases += [[rng.randrange(q) for _ in range(n)] + [1] for _ in range(3)]
        c = cases[-1]
        with forced_route(packed=False):
            while not _ben_or(f, c):
                c = [rng.randrange(q) for _ in range(n)] + [1]
        cases.append(c)
    for n in (24, 40):
        cases += [c for _, c in _structured_reducibles(rng, q, n)]
    verdicts = [irreducible(c, q) for c in cases]
    assert 0 < sum(verdicts) < len(cases)
    for packed in (False, True):
        with forced_route(packed):
            for c, want in zip(cases, verdicts):
                assert _ben_or(f, c) == want, (packed, c)


@pytest.mark.parametrize("q", [2, 5, 13, 1021, 65521, 4, 9, 25])
def test_packed_mulmod_matches_naive(q):
    # over a prime field the packed kernel reads only p, m and the modulus
    # of F_p = F_p[y]/(y), so it needs no field tables; the naive lists
    # read p, m and q, and over an extension field the field's modulus
    p = q if q in (2, 5, 13, 1021, 65521) else None
    f = SimpleNamespace(p=p, m=1, q=p, modulus=(0, 1)) if p else get_field(q)
    rng = random.Random(q)
    for n in (1, 2, 3, 7, 16, 33, 64, 129, 256, 300):
        w = _slots(f, n)
        if not w:
            # GF(65521) fills 64-bit slots at n = 256 and overflows them
            # from n = 257 on, where _packed_width keeps the lists
            assert (q, n) == (65521, 300)
            continue
        mod = [rng.randrange(q) for _ in range(n)] + [1]
        ctx = _Packed(f, mod, w)
        # random inputs, and all coefficients q - 1, whose base-p digits
        # are all p - 1: the largest slots
        for a, b in (
            ([rng.randrange(q) for _ in range(n)], [rng.randrange(q) for _ in range(n)]),
            ([q - 1] * n, [q - 1] * n),
        ):
            got = ctx.mulmod(ctx.pack(a), ctx.pack(b))
            want = poly_divmod_lists(f, poly_mul_lists(f, a, b), mod)[1]
            assert got == want + [0] * (n - len(want)), (n, a[0])


def test_packed_route_is_taken_only_past_the_crossover(monkeypatch):
    # _packed_width packs dense enough moduli of degree n with
    # n * min(p, n) >= 64 over a prime field, and n * min(q, n) >=
    # 112 (m - 1)^2 over GF(p^m) with p odd and q < 1024, whose slots fit a
    # machine word; _ben_or builds a _Packed of that width exactly when it
    # is nonzero, and its verdict is the list chain's either way
    real, built = poly_ring._Packed, []

    def spy(f, mod, w):
        built.append(w)
        return real(f, mod, w)

    monkeypatch.setattr(poly_ring, "_Packed", spy)
    rng = random.Random(64)

    def root_free(f, n, k=1):
        # g(t^k) for a random monic g of degree n / k, past the root test
        while True:
            mod = [0] * (n + 1)
            for i in range(n // k):
                mod[i * k] = rng.randrange(f.q)
            mod[n] = 1
            xq = _pow_raw(f, [0, 1], f.q, mod)
            if len(_gcd_raw(f, _minus_t(f, xq), mod)) == 1:
                return mod

    f13, fbig = get_field(13), field_build(2**20 - 3)
    f4, f9, f25, f2_16 = get_field(4), get_field(9), get_field(25), field_build(2, 16)
    f27, f2187 = field_build(3, 3), get_field(2187)
    irreducible = sympy_oracle()[0]
    for f, mod, width in (
        (f13, root_free(f13, 7), 0),  # 7 * 7 < 64
        (f13, root_free(f13, 8), 32),
        (f13, root_free(f13, 32), 32),
        (f13, root_free(f13, 64, 8), 0),  # d = 8, d^2 < 2n
        (f13, root_free(f13, 64, 4), 32),  # d = 16, d^2 >= 2n
        (f13, [11] + [0] * 255 + [1], 0),  # the binomial t^256 + 11
        (fbig, root_free(fbig, 8), 0),  # 64-bit slots overflow from n = 5
        (f9, root_free(f9, 5), 0),  # verify's degrees stay on lists
        (f9, root_free(f9, 12), 0),  # 12 * 9 < 112
        (f9, root_free(f9, 13), 16),
        (f9, root_free(f9, 32), 32),
        (f9, root_free(f9, 24, 6), 0),  # d = 4, d^2 < 2n
        (f9, root_free(f9, 24, 2), 16),  # d = 12, d^2 >= 2n
        (f25, root_free(f25, 10), 0),  # 10 * 10 < 112
        (f25, root_free(f25, 11), 32),
        (f27, root_free(f27, 21), 0),  # 21 * 21 < 112 * 2^2
        (f27, root_free(f27, 22), 32),
        (f2187, root_free(f2187, 64), 0),  # q >= 1024 keeps the lists
        (f4, root_free(f4, 40), 0),  # characteristic 2 keeps the lists
        (f2_16, root_free(f2_16, 8), 0),  # matrix-highdeg's GF(2^16)
    ):
        n = len(mod) - 1
        assert _packed_width(f, mod) == width, (f, n)
        if f.m == 1:
            want = irreducible(mod, f.p)
        else:
            with forced_route(packed=False):
                want = _ben_or(f, mod)
        built.clear()
        assert _ben_or(f, mod) == want, mod
        assert built == ([width] if width else []), (f, n)


# sha256 of test_route_table_is_pinned's rows, recorded from _ben_or's route
# when it chose the route inline and _Packed worked out its own width
ROUTE_TABLE_SHA256 = "bb280a8d8c050969f551e977eeb3283fa9641beeb7ed1abc43441ddbf63a41e3"


def test_route_table_is_pinned():
    # (q, n, width) for every prime p < 200, every odd prime power
    # q < 1024 with m >= 2, and GF(4), GF(8) and GF(2^16), at 2 <= n < 128
    # on the all-one modulus and on t^n + 1: a route or a width that moves
    # changes the digest
    primes = [p for p in range(2, 200) if all(p % k for k in range(2, math.isqrt(p) + 1))]
    powers = sorted(
        ((p, m) for p in primes[1:] for m in range(2, 7) if p**m < 1024),
        key=lambda pm: pm[0] ** pm[1],
    )
    rows = []
    for p, m in [(p, 1) for p in primes] + powers + [(2, 2), (2, 3), (2, 16)]:
        f = field_build(p, m)
        for n in range(2, 128):
            for mod in ([1] * (n + 1), [1] + [0] * (n - 1) + [1]):
                rows.append((f.q, n, _packed_width(f, mod)))
    assert len(rows) == 66 * 126 * 2
    assert Counter(w for *_, w in rows) == {0: 9319, 16: 204, 32: 4475, 64: 2634}
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ROUTE_TABLE_SHA256


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (2, 16), (5, 1)])
def test_ypowers_match_naive_reduction(p, m):
    # y^k mod f.modulus for k = m .. 2m - 2 by long division over F_p,
    # against the digits _ypowers reads off the field's tables
    f, fp = field_build(p, m), get_field(p)
    want = []
    for k in range(m, 2 * m - 1):
        r = poly_divmod_lists(fp, [0] * k + [1], list(f.modulus))[1]
        want.append(tuple(r + [0] * (m - len(r))))
    assert _ypowers(f) == want


def test_irreducibility_is_cached(f3):
    P = parse_poly("t^2+1", f3)
    assert P._irred is None
    assert is_irreducible(P)
    assert P._irred is True


def test_constants_are_not_irreducible(f3):
    assert not is_irreducible(zero(f3))
    assert not is_irreducible(one(f3))
    assert not is_irreducible(constant(f3, 2))


def test_count_monic_irreducibles_known_values():
    f2, f3 = get_field(2), get_field(3)
    assert [count_monic_irreducibles(f2, n) for n in range(1, 6)] == [2, 1, 2, 3, 6]
    assert [count_monic_irreducibles(f3, n) for n in range(1, 5)] == [3, 3, 8, 18]
    assert count_monic_irreducibles(get_field(9), 2) == 36
    with pytest.raises(ValueError):
        count_monic_irreducibles(f2, 0)


# -- enumeration and coding ----------------------------------------------


def test_enumerate_monic_order(f3):
    got = [format_poly(P) for P in enumerate_monic(f3, 1)]
    assert got == ["t", "t + 1", "t + 2"]
    deg2 = list(enumerate_monic(f3, 2))
    assert len(deg2) == 9
    # top sub-leading coefficient varies fastest, constant term slowest
    assert [P.coeffs for P in deg2[:4]] == [
        (0, 0, 1),
        (0, 1, 1),
        (0, 2, 1),
        (1, 0, 1),
    ]
    assert list(enumerate_monic(f3, 0)) == [one(f3)]


def test_monic_from_code_matches_enumeration(f9):
    for deg in (1, 2):
        for code, P in enumerate(enumerate_monic(f9, deg)):
            assert monic_from_code(f9, deg, code) == P
    with pytest.raises(ValueError):
        monic_from_code(f9, 2, 81)
    with pytest.raises(ValueError):
        monic_from_code(f9, -1, 0)


def test_monic_irreducibles_order_and_membership(f3):
    got = list(monic_irreducibles(f3, 2))
    assert [format_poly(P) for P in got[:2]] == ["t^2 + 1", "t^2 + t + 2"]
    assert all(is_irreducible(P) and P.degree == 2 for P in got)
    assert len(got) == 3
    assert list(monic_irreducibles(f3, 0)) == []


def test_monic_irreducibles_skips_the_multiples_of_t(monkeypatch):
    # past degree 1 Ben-Or sees every monic with a nonzero constant term and
    # no multiple of t; at degree 1 it sees all q monics, t first
    import residuemat.poly_ring as poly_ring

    real = poly_ring._ben_or
    seen = []

    def spy(field, mod):
        seen.append(tuple(mod))
        return real(field, mod)

    monkeypatch.setattr(poly_ring, "_ben_or", spy)
    for q, top in ((2, 8), (3, 5), (4, 3), (9, 3)):
        f = get_field(q)
        for n in range(1, top + 1):
            seen.clear()
            list(monic_irreducibles(f, n))
            want = [P.coeffs for P in enumerate_monic(f, n) if n == 1 or P.coeffs[0]]
            assert seen == want


@pytest.mark.parametrize(
    "q, top", [(2, 10), (3, 6), (4, 4), (5, 4), (8, 3), (9, 3)]
)
def test_monic_irreducibles_is_enumerate_monic_filtered_by_trial_division(q, top):
    f = get_field(q)
    for n in range(top + 1):
        want = [P for P in enumerate_monic(f, n) if trial_division_irreducible(P)]
        assert list(monic_irreducibles(f, n)) == want


@pytest.mark.parametrize("enumerate_fn", [enumerate_monic, monic_irreducibles])
def test_negative_degree_is_refused(enumerate_fn, f3):
    with pytest.raises(ValueError, match="degree must be >= 0"):
        enumerate_fn(f3, -1)


@pytest.mark.parametrize("q", [3, 9])
def test_residue_code_round_trip(q):
    f = get_field(q)
    for code in range(min(q**3, 200)):
        P = from_code(f, code)
        assert to_code(P) == code
        assert P.degree < 3
    assert from_code(f, 0).is_zero()
    with pytest.raises(ValueError):
        from_code(f, -1)


def test_codes_relate_monic_and_residue_views(f5):
    # monic_from_code counts among monics of fixed degree; from_code counts
    # every residue.  The first monic of degree n is t^n, residue code q^n.
    for deg in (1, 2, 3):
        assert to_code(monic_from_code(f5, deg, 0)) == 5**deg
    # the monic code equals the residue code of P - t^n read in the
    # constant-most-significant digit order
    P = monic_from_code(f5, 2, 13)  # 13 = 2*5 + 3 -> c0 = 2, c1 = 3
    assert P.coeffs == (2, 3, 1)
