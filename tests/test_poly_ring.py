import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from residuemat import (
    NEG_INF,
    Poly,
    constant,
    count_monic_irreducibles,
    enumerate_monic,
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

from residuemat.poly_ring import _frobenius_rows

from conftest import get_field
from naive import (
    poly_divmod_lists,
    poly_mod_pow_lists,
    poly_mul_lists,
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
    assert parse_poly("t^4 + 1", f3, max_degree=4).degree == 4
    with pytest.raises(ValueError, match="t\\^5 exceeds the degree bound 4"):
        parse_poly("t^5 - t^5 + 1", f3, max_degree=4)


def test_parse_coefficient_range_errors(f3, f4):
    with pytest.raises(ValueError):
        parse_poly("{1,2}*t", f3)  # digit vectors need an extension field
    with pytest.raises(ValueError):
        parse_poly("3*t", f4)  # bare 3 is outside the prime subfield of F_4
    with pytest.raises(ValueError):
        parse_poly("{}*t", f4)


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


def _sympy_oracle():
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p, gf_mul

    # sympy's galoistools take descending coefficient lists over Z/p
    def irreducible(c, p):
        return gf_irreducible_p(c[::-1], p, ZZ)

    def product(a, b, p):
        return gf_mul(a[::-1], b[::-1], p, ZZ)[::-1]

    def random_irreducible(rng, p, deg):
        while True:
            c = [rng.randrange(p) for _ in range(deg)] + [1]
            if irreducible(c, p):
                return c

    return irreducible, product, random_irreducible


@pytest.mark.parametrize("q", [2, 3, 5, 13])
def test_irreducibility_matches_sympy_over_prime_fields(q):
    irreducible, mul, random_irreducible = _sympy_oracle()
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
    _, _, random_irreducible = _sympy_oracle()
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
        for P in (A * B, A * A, A * linear):
            assert not is_irreducible(P), (k, format_poly(P))


@pytest.mark.parametrize("q", [2, 5, 13, 8, 9, 2187])
def test_frobenius_rows_match_naive_powers(q):
    f = get_field(q)
    rng = random.Random(q)
    # deg P > q makes t^q mod P the monomial t^q (the sparse path), and
    # deg P <= q a dense residue; GF(2187) has only the dense one in reach
    for n in [2, 5, 9] + ([q + 3] if q < 20 else []):
        mod = [rng.randrange(q) for _ in range(n)] + [1]
        rows = _frobenius_rows(f, poly_mod_pow_lists(f, [0, 1], q, mod), mod)
        assert len(rows) == n
        for j, row in enumerate(rows):
            assert row == poly_mod_pow_lists(f, [0, 1], j * q, mod), (n, j)


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
