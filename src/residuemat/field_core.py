"""Finite field construction and the exponent-index encoding of roots of unity.

A field GF(p^m) with m > 1 is the quotient ring F_p[t]/(modulus) over the
prime field GF(p), built deterministically by poly_ring._quotient_tables,
which builds verify's copies of GF(q^n) too: the modulus is the first monic
irreducible of degree m over GF(p) that poly_ring.monic_irreducibles lists
(its docstring states the order and the candidates it skips), and the
multiplicative generator g is the smallest element of order q - 1.
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

from typing import NamedTuple

DEFAULT_MAX_Q = 1 << 20


class RootIndex(NamedTuple):
    """Exponent k of a d-th root of unity: stands for zeta^k, 0 <= k < d."""

    k: int
    d: int

    def conjugate(self) -> "RootIndex":
        """Complex conjugation: inversion of the root, i.e. negation mod d."""
        return RootIndex((-self.k) % self.d, self.d)


# psi_13: the least odd composite that passes strong tests to every prime
# base through 41 (1287836182261 * 2575672364521, Sorenson and Webster)
_PSI13 = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the 13 prime bases through 41, exact
    for n < psi_13 = 3317044064679887385961981.  A larger n with no factor
    among the bases is refused with a ValueError, never guessed."""
    if n < 2:
        return False
    for sp in _BASES:
        if n % sp == 0:
            return n == sp
    if n >= _PSI13:
        raise ValueError(
            f"{n} is at or above psi_13 = {_PSI13}, where Miller-Rabin to "
            "bases 2 .. 41 stops being exact"
        )
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
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
    """Whether q = p^k for a prime p, k >= 1.  Then p is the exact k-th
    root of q for the largest k that has one, so only that root is tested.
    Roots are Newton's floor(q^(1/k)) for k < log2 q, where trial division
    would take sqrt(q) steps."""
    if q < 2:
        return False
    for k in range(q.bit_length() - 1, 0, -1):
        r = 1 << -(-q.bit_length() // k)
        while (s := ((k - 1) * r + q // r ** (k - 1)) // k) < r:
            r = s
        if r**k == q:
            try:
                return is_prime(r)
            except ValueError as exc:
                raise ValueError(f"cannot tell whether {q} is a prime power: {exc}") from exc
    return False


def _odd_law(q: int, d: int) -> bool:
    """Whether -1 is not a d-th power in F_q (d | q - 1): q odd and (q - 1)/d
    odd.  This law makes reciprocity and classify's criterion non-symmetric."""
    return q % 2 == 1 and (q - 1) // d % 2 == 1


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

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        # at most log2(DEFAULT_MAX_Q) + 1 products: p^m itself may have millions of digits
        q = 1
        for _ in range(m):
            q *= p
            if q > DEFAULT_MAX_Q:
                raise ValueError(
                    f"q = p^m = {p}^{m} exceeds the configured bound {DEFAULT_MAX_Q}"
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
            from .poly_ring import _quotient_tables

            self.modulus, g, exp, log = _quotient_tables(Field(p, 1), m)
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
        # direct paths: add(a, neg(b)) costs short list Ben-Or calls up to 1.02x (BENCH_forks.json)
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
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


def field_build(p: int, m: int = 1) -> Field:
    """Construct GF(p^m) deterministically; same inputs give the same field.
    A q above DEFAULT_MAX_Q is refused before any table is built."""
    return Field(p, m)


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


def _check_int(name: str, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _check_d(field: Field, d: int):
    _check_int("d", d)
    if d < 1 or (field.q - 1) % d != 0:
        raise ValueError(f"d = {d} does not divide q - 1 = {field.q - 1}")
