"""Slow, definition-level reference implementations used to cross-check the
library's fast paths.  Every product, sum and division here is digit
arithmetic written out in this file; no library kernel runs.  Products in
GF(p^m) are memoized on (p, m, modulus, a, b), since the oracles repeat
the same few.  What the oracles take from the library is its conventions:

* the element encoding: a code's base-p digits are the coefficients of
  the element, constant digit first (Field.p, .m and .q);
* each Field's modulus, which field_mul_digits reduces by, and its
  generator g, which naive_symbol_index takes discrete logarithms to;
* enumerate_monic, which trial_division_irreducible and has_monic_factor
  use only to list every candidate divisor and reducible_monics every
  factor pair, so its order does not matter, and which structure_failures
  and definition_failures use to list moduli in the library's report
  order;
* Poly as a container: only .field, .coeffs and .degree are read;
* CycMatrix as a container: only .n, .d and .entries are read, by
  mmbar_reference, classify_reference and the invariance operations at
  the end of this file, which also build their results as CycMatrix;
* residue_symbol.symbol, read at call time, in structure_failures and
  definition_failures: the symbols are what those checks test.
  structure_failures rebuilds every product of two units and tests the
  symbol pairwise, which no homomorphism onto Z/d fails;
  definition_failures compares each symbol with naive_symbol_index."""

import functools
import math

from residuemat import CycMatrix, Poly, residue_symbol


def field_mul_digits(f, a: int, b: int) -> int:
    """Product in GF(p^m) by digit convolution and long reduction, bypassing
    the exp/log tables entirely."""
    if f.m == 1:
        return a * b % f.p
    return _mul_digits(f.p, f.m, tuple(f.modulus), a, b)


@functools.lru_cache(maxsize=1 << 20)
def _mul_digits(p: int, m: int, mod: tuple, a: int, b: int) -> int:
    """field_mul_digits over GF(p^m) = F_p[y]/(mod), memoized: the oracles
    multiply the same few field elements many times over."""
    da = [(a // p**i) % p for i in range(m)]
    db = [(b // p**i) % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            prod[i + j] = (prod[i + j] + da[i] * db[j]) % p
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
    """Irreducibility by long division by every monic polynomial of degree
    at most deg(P)/2 (has_monic_factor)."""
    return P.degree >= 1 and not has_monic_factor(P, P.degree // 2)


def has_monic_factor(P: Poly, max_deg: int) -> bool:
    """Does a monic polynomial of degree 1 .. max_deg divide P?  Long
    division (poly_divmod_lists) by each in turn."""
    from residuemat import enumerate_monic

    f = P.field
    for ddeg in range(1, max_deg + 1):
        for D in enumerate_monic(f, ddeg):
            if not poly_divmod_lists(f, list(P.coeffs), list(D.coeffs))[1]:
                return True
    return False


def reducible_monics(f, deg: int) -> set:
    """Coefficient tuples of every product (poly_mul_lists) of two monics of
    degrees k and deg - k, 1 <= k <= deg/2: the reducible monics of this
    degree, by definition.  Trial division in reverse, for sweeps where
    dividing every irreducible by every candidate would take too long."""
    from residuemat import enumerate_monic

    out = set()
    for k in range(1, deg // 2 + 1):
        for A in enumerate_monic(f, k):
            for B in enumerate_monic(f, deg - k):
                out.add(tuple(poly_mul_lists(f, list(A.coeffs), list(B.coeffs))))
    return out


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


def definition_failures(ctx, max_deg: int):
    """The failures of verify_symbol_structure, by the definition: (P, a,
    got, expected) wherever residue_symbol.symbol(a, P) differs from
    naive_symbol_index(a, P), over every unit residue a (by code) mod every
    monic irreducible P of degree <= max_deg (by trial division, in
    enumerate_monic order)."""
    from residuemat import enumerate_monic

    f, q = ctx.field, ctx.field.q
    out = []
    for deg in range(1, max_deg + 1):
        units = [Poly(f, [c // q**i % q for i in range(deg)]) for c in range(1, q**deg)]
        for P in enumerate_monic(f, deg):
            if not trial_division_irreducible(P):
                continue
            for a in units:
                got = residue_symbol.symbol(ctx, a, P).k
                want = naive_symbol_index(ctx, a, P)
                if got != want:
                    out.append((P, a, got, want))
    return tuple(out)


def mmbar_reference(M):
    """(diag, bad) by the definition of the M Mbar diagonal: entry j sums,
    over the ordered pairs (j, k) with k != j, +1 where m_jk = m_kj and -1
    where m_jk - m_kj = d/2 mod d (d even).  bad is the first ordered pair
    in row-major order that is neither, and then diag is None."""
    n, d, e = M.n, M.d, M.entries
    diag = []
    for j in range(n):
        total = 0
        for k in range(n):
            if k == j:
                continue
            if e[j][k] == e[k][j]:
                total += 1
            elif d % 2 == 0 and (e[j][k] - e[k][j]) % d == d // 2:
                total -= 1
            else:
                return None, (j, k)
        diag.append(total)
    return diag, None


def classify_reference(M, q: int) -> tuple:
    """(realizable, branch, s, sigma, witness_pair, witness_diagonal) of
    classify, from the theorem as stated.  When q is even or (q - 1)/d is
    even, M is realizable iff it is symmetric, with the first unequal pair
    i < j in row-major order as witness.  Otherwise every pair must be
    equal or negated (witness: the first that is neither), and the M Mbar
    diagonal must be, as a multiset, s copies of n + 1 - 2s and n - s
    copies of n - 1 for some s in 1..n (witness: the sorted diagonal).
    sigma lists the rows off n - 1, then the rest."""
    n, d, e = M.n, M.d, M.entries
    if q % 2 == 0 or (q - 1) // d % 2 == 0:
        for i in range(n):
            for j in range(i + 1, n):
                if e[i][j] != e[j][i]:
                    return False, "symmetric", None, None, (i, j), None
        return True, "symmetric", None, None, None, None
    diag, bad = mmbar_reference(M)
    if bad is not None:
        return False, "odd", None, None, bad, None
    for s in range(1, n + 1):
        if sorted(diag) == sorted([n + 1 - 2 * s] * s + [n - 1] * (n - s)):
            skew = [j for j in range(n) if diag[j] != n - 1]
            rest = [j for j in range(n) if diag[j] == n - 1]
            return True, "odd", s, tuple(skew + rest), None, None
    return False, "odd", None, None, None, tuple(sorted(diag))


# -- the paper's invariance operations: a unit rescaling of the indices,
# a simultaneous permutation of rows and columns, and the block form that
# the odd law's permutation must produce


def unit_scalings(d: int):
    """The units mod d: the index rescalings that change the fixed isomorphism."""
    return [c for c in range(1, d + 1) if math.gcd(c, d) == 1]


def _permutation(sigma, n: int) -> tuple:
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"not a permutation of range({n}): {sigma}")
    return sigma


def conjugate_by_permutation(M: CycMatrix, sigma) -> CycMatrix:
    """Matrix M' with M'[i][j] = M[sigma(i)][sigma(j)] (sigma 0-based)."""
    sigma = _permutation(sigma, M.n)
    entries = [
        [None if i == j else M.entries[sigma[i]][sigma[j]] for j in range(M.n)]
        for i in range(M.n)
    ]
    return CycMatrix(M.n, M.d, entries)


def scale_indices(M: CycMatrix, c: int) -> CycMatrix:
    """Entrywise multiplication by a unit c mod d: the change of isomorphism."""
    if math.gcd(c, M.d) != 1:
        raise ValueError(f"c = {c} is not a unit mod d = {M.d}")
    entries = [
        [None if i == j else (c * M.entries[i][j]) % M.d for j in range(M.n)]
        for i in range(M.n)
    ]
    return CycMatrix(M.n, M.d, entries)


def check_block_form(M: CycMatrix, s: int, sigma) -> bool:
    """Does conjugating by sigma put M into [[A skew, B], [B^t, S sym]] form?

    A is the leading s x s block with m_jk - m_kj = d/2 mod d off its
    diagonal (vacuous for s = 1), S the trailing symmetric block, and the
    lower-left block must be the exact transpose of B.
    """
    n, d = M.n, M.d
    if not 1 <= s <= n:
        raise ValueError(f"s = {s} out of range [1, {n}]")
    sigma = _permutation(sigma, n)
    if s >= 2 and d % 2 != 0:
        return False
    # read M[sigma(i)][sigma(j)] in place: no conjugated matrix is built
    e = M.entries
    for i in range(n):
        row = e[sigma[i]]
        for j in range(i + 1, n):
            a, b = row[sigma[j]], e[sigma[j]][sigma[i]]
            if j < s:
                if (a - b) % d != d // 2:
                    return False
            elif a != b:
                return False
    return True
