"""Finite field construction and the exponent-index encoding of roots of unity.

A field GF(p^m) with m > 1 is the quotient ring F_p[t]/(modulus) over the
prime field GF(p), built deterministically: the modulus is the first monic
irreducible polynomial of degree m over GF(p) in the lexicographic order of
coefficient vectors (constant coefficient most significant), found by
poly_ring's Ben-Or test, and the multiplicative generator g is the smallest
element of order q - 1.  The generator and the exp/log tables come from
poly_ring._quotient_tables, which builds verify's copies of GF(q^n) too.
For m = 1 the modulus is the degree-1 identity polynomial and the field is
the plain prime field, with its own generator search and walk.

Field elements are encoded as integers in [0, q): the base-p digits of the
code are the coefficients of the residue, least significant digit = constant
term.  Prime-field elements are therefore just integers mod p, and in
characteristic 2 addition is the XOR of codes.

Addition in an extension field never goes through a q*q table.  In
characteristic 2 it is the XOR of codes.  In odd characteristic it uses
Zech logarithms: g^i + g^j = g^(i + zech[j - i]) with zech[k] = log(1 + g^k),
an O(q) table read off exp/log by _zech, since adding 1 changes only the
constant digit.  Negation is -g^i = g^(i + half), where half = (q - 1)/2
for odd p (-1 = g^half) and 0 in characteristic 2.

A d-th root of unity is handled as an exponent index: index k stands for
zeta^k with zeta = g^((q-1)/d).  Everything downstream works with these
indices mod d in exact integer arithmetic; no complex numbers appear
anywhere.
"""

import math
from typing import NamedTuple

DEFAULT_MAX_Q = 1 << 20


class RootIndex(NamedTuple):
    """Exponent k of a d-th root of unity: stands for zeta^k, 0 <= k < d."""

    k: int
    d: int

    def conjugate(self) -> "RootIndex":
        """Complex conjugation: inversion of the root, i.e. negation mod d."""
        return RootIndex((-self.k) % self.d, self.d)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p, k >= 1: Newton's floor(q^(1/k)) for
    each k < log2 q, where trial division would take sqrt(q) steps."""
    for k in range(1, q.bit_length()):
        r = 1 << -(-q.bit_length() // k)
        while (s := ((k - 1) * r + q // r ** (k - 1)) // k) < r:
            r = s
        if r**k == q and is_prime(r):
            return True
    return False


def _prime_factors(n: int) -> list:
    """Distinct prime factors by trial division (n stays small here)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _zech(p: int, exp, log) -> list:
    """zech[i] = log(1 + g^i) from the exp/log tables of a field of
    characteristic p whose codes have the constant base-p digit least
    significant: 1 + g^i differs from g^i only in that digit.  Where
    1 + g^i = 0 the entry is log[0] = -1."""
    return [log[y + 1] if y % p != p - 1 else log[y + 1 - p] for y in exp]


class Field:
    """An immutable GF(p^m) with exp/log tables for its fixed generator.

    All operations take and return integer element codes.  Instances are
    safe to share across threads once constructed.
    """

    def __init__(self, p: int, m: int, max_q: int | None = None):
        if max_q is None:
            max_q = DEFAULT_MAX_Q
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        # at most log2(max_q) + 1 products: p^m itself may have millions of digits
        q = 1
        for _ in range(m):
            q *= p
            if q > max_q:
                raise ValueError(
                    f"q = p^m = {p}^{m} exceeds the configured bound {max_q}"
                )
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.modulus = (0, 1)
            n = p - 1
            factors = _prime_factors(n)
            g = next(
                x for x in range(1, p) if all(pow(x, n // r, p) != 1 for r in factors)
            )
            exp = [0] * n
            log = [-1] * p
            y = 1
            for i in range(n):
                exp[i] = y
                log[y] = i
                y = y * g % p
        else:
            # GF(p^m) is F_p[t]/(modulus); poly_ring imports this module
            from .poly_ring import _ben_or, _quotient_tables, monic_from_code

            base = Field(p, 1, max_q)
            # codes below p^(m-1) have constant term 0, so t divides them
            for code in range(p ** (m - 1), p**m):
                cand = monic_from_code(base, m, code).coeffs
                if _ben_or(base, cand):
                    break
            self.modulus = cand
            g, exp, log = _quotient_tables(base, cand)
        self.g, self.exp, self.log = g, exp, log
        self.half = 0 if p == 2 else (q - 1) // 2
        self.zech = _zech(p, exp, log) if p != 2 and m > 1 else None

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a or not b:
            return a or b
        log, qm1 = self.log, self.q - 1
        z = self.zech[(log[b] - log[a]) % qm1]
        return self.exp[(log[a] + z) % qm1] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        if not a:
            return 0
        return self.exp[(self.log[a] + self.half) % (self.q - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.exp[-self.log[a] % (self.q - 1)]

    # -- element coding --------------------------------------------------

    def element_from_coeffs(self, coeffs) -> int:
        """Code of the element with the given coefficient vector (constant first)."""
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            raise ValueError(f"at most {self.m} coefficients expected")
        out = 0
        for c in reversed(coeffs):
            if not 0 <= c < self.p:
                raise ValueError(f"coefficient {c} out of range [0, {self.p})")
            out = out * self.p + c
        return out

    def coeffs_of(self, a: int) -> tuple:
        """Length-m coefficient vector of an element code, constant term first."""
        if not 0 <= a < self.q:
            raise ValueError(f"element code {a} out of range [0, {self.q})")
        out = []
        for _ in range(self.m):
            a, digit = divmod(a, self.p)
            out.append(digit)
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, Field) and self.p == other.p and self.m == other.m
        )

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        if self.m == 1:
            return f"Field(GF({self.p}))"
        return f"Field(GF({self.p}^{self.m}))"


def field_build(p: int, m: int = 1, max_q: int | None = None) -> Field:
    """Construct GF(p^m) deterministically; same inputs give the same field."""
    return Field(p, m, max_q=max_q)


def root_index_of(field: Field, d: int, x: int) -> RootIndex:
    """Index k with x = zeta^k for zeta = g^((q-1)/d); errors if x not in mu_d."""
    _check_d(field, d)
    if not 1 <= x < field.q:
        raise ValueError(f"element code {x} is not a unit of {field!r}")
    step = (field.q - 1) // d
    k, rem = divmod(field.log[x], step)
    if rem:
        raise ValueError(f"element {x} is not a {d}-th root of unity")
    return RootIndex(k, d)


def index_to_element(field: Field, d: int, k: int) -> int:
    """Element code of zeta^k; inverse of root_index_of on mu_d."""
    _check_d(field, d)
    if not 0 <= k < d:
        raise ValueError(f"root index {k} out of range [0, {d})")
    return field.exp[k * ((field.q - 1) // d) % (field.q - 1)]


def _check_d(field: Field, d: int):
    if d < 1 or (field.q - 1) % d != 0:
        raise ValueError(f"d = {d} does not divide q - 1 = {field.q - 1}")


def unit_scalings(d: int):
    """The units mod d: the index rescalings that change the fixed isomorphism."""
    return [c for c in range(1, d + 1) if math.gcd(c, d) == 1]
