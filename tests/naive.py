"""Slow, definition-level reference implementations used to cross-check the
library's fast paths.  Every product, sum and division here is digit
arithmetic written out in this file; no library kernel runs.  What the
oracles take from the library is its conventions:

* the element encoding: a code's base-p digits are the coefficients of
  the element, constant digit first (Field.p, .m and .q);
* each Field's modulus, which field_mul_digits reduces by, and its
  generator g, which naive_symbol_index takes discrete logarithms to;
* enumerate_monic, which trial_division_irreducible uses only to list
  every candidate divisor, so its order does not matter, and which
  structure_failures uses to list moduli in the library's report order;
* Poly as a container: only .field, .coeffs and .degree are read;
* residue_symbol.symbol, read at call time, in structure_failures: the
  symbols are what that check tests, so only its products are rebuilt."""

from residuemat import Poly, residue_symbol


def field_mul_digits(f, a: int, b: int) -> int:
    """Product in GF(p^m) by digit convolution and long reduction, bypassing
    the exp/log tables entirely."""
    p, m = f.p, f.m
    if m == 1:
        return a * b % p
    da = [(a // p**i) % p for i in range(m)]
    db = [(b // p**i) % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            prod[i + j] = (prod[i + j] + da[i] * db[j]) % p
    mod = f.modulus
    for pos in range(2 * m - 2, m - 1, -1):
        c = prod[pos]
        for i in range(m + 1):
            prod[pos - m + i] = (prod[pos - m + i] - c * mod[i]) % p
    return sum(prod[i] * p**i for i in range(m))


def field_add_digits(f, a: int, b: int) -> int:
    """Sum in GF(p^m), coefficient by coefficient mod p."""
    p = f.p
    return sum((a // p**i + b // p**i) % p * p**i for i in range(f.m))


def field_neg_digits(f, a: int) -> int:
    """Negation in GF(p^m), coefficient by coefficient mod p."""
    p = f.p
    return sum(-(a // p**i) % p * p**i for i in range(f.m))


def field_pow_digits(f, a: int, e: int) -> int:
    """a^e by square-and-multiply on field_mul_digits."""
    out = 1
    while e:
        if e & 1:
            out = field_mul_digits(f, out, a)
        a = field_mul_digits(f, a, a)
        e >>= 1
    return out


def element_order(f, a: int) -> int:
    assert a != 0
    out, k = a, 1
    while out != 1:
        out = field_mul_digits(f, out, a)
        k += 1
    return k


def poly_mul_lists(f, a, b):
    """Schoolbook product of ascending coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field_add_digits(f, out[i + j], field_mul_digits(f, x, y))
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_divmod_lists(f, a, b):
    """Long division on ascending coefficient lists."""
    assert b, "division by zero"
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = field_pow_digits(f, b[-1], f.q - 2)
    while len(rem) >= len(b):
        c = field_mul_digits(f, rem[-1], inv_lead)
        off = len(rem) - len(b)
        if c:
            quo[off] = c
            for i in range(len(b)):
                neg = field_neg_digits(f, field_mul_digits(f, c, b[i]))
                rem[off + i] = field_add_digits(f, rem[off + i], neg)
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    while quo and quo[-1] == 0:
        quo.pop()
    return quo, rem


def poly_mod_pow_lists(f, a, e: int, mod):
    out = [1]
    base = poly_divmod_lists(f, a, mod)[1]
    while e:
        if e & 1:
            out = poly_divmod_lists(f, poly_mul_lists(f, out, base), mod)[1]
        base = poly_divmod_lists(f, poly_mul_lists(f, base, base), mod)[1]
        e >>= 1
    return out


def naive_symbol_index(ctx, a: Poly, P: Poly) -> int:
    """The defining computation: a^((|P| - 1)/d) mod P, then a discrete log
    by scanning powers of the generator."""
    f = ctx.field
    e = (f.q ** P.degree - 1) // ctx.d
    r = poly_mod_pow_lists(f, list(a.coeffs), e, list(P.coeffs))
    assert len(r) == 1, "symbol power is not a constant"
    value = r[0]
    step = (f.q - 1) // ctx.d
    for k in range(ctx.d):
        if field_pow_digits(f, f.g, k * step) == value:
            return k
    raise AssertionError("value is not a d-th root of unity")


def trial_division_irreducible(P: Poly) -> bool:
    """Irreducibility by long division (poly_divmod_lists) by every monic
    polynomial of degree at most deg(P)/2."""
    from residuemat import enumerate_monic

    deg = P.degree
    if deg < 1:
        return False
    f = P.field
    for ddeg in range(1, deg // 2 + 1):
        for D in enumerate_monic(f, ddeg):
            if not poly_divmod_lists(f, list(P.coeffs), list(D.coeffs))[1]:
                return False
    return True


def structure_failures(ctx, max_deg: int):
    """(moduli, residues, products, mult_failures, surjectivity_failures) of
    verify_symbol_structure, by its definition: every unordered pair of unit
    residues a <= b (as codes) mod every monic irreducible P of degree
    <= max_deg, with a*b mod P by poly_mul_lists and poly_divmod_lists."""
    from residuemat import enumerate_monic

    f, d, q = ctx.field, ctx.d, ctx.field.q
    moduli = residues = products = 0
    mult, surj = [], []
    for deg in range(1, max_deg + 1):
        size = q**deg
        digits = [[c // q**i % q for i in range(deg)] for c in range(size)]
        for cs in digits:
            while cs and cs[-1] == 0:
                cs.pop()
        for P in enumerate_monic(f, deg):
            if not trial_division_irreducible(P):
                continue
            moduli += 1
            ks = [None] + [
                residue_symbol.symbol(ctx, Poly(f, digits[c]), P).k
                for c in range(1, size)
            ]
            residues += size - 1
            if set(ks[1:]) != set(range(d)):
                surj.append(P)
            mod = list(P.coeffs)
            for ca in range(1, size):
                for cb in range(ca, size):
                    prod = poly_divmod_lists(
                        f, poly_mul_lists(f, digits[ca], digits[cb]), mod
                    )[1]
                    products += 1
                    code = sum(c * q**i for i, c in enumerate(prod))
                    if ks[code] != (ks[ca] + ks[cb]) % d:
                        mult.append((P, ca, cb))
    return moduli, residues, products, tuple(mult), tuple(surj)
