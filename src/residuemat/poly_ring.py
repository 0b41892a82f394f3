"""Dense univariate polynomial arithmetic over a finite field: F_q[t].

A Poly stores an ascending tuple of field-element codes with no trailing
zeros, so representations are canonical and hashable.  The zero polynomial
is the empty tuple; its degree is the sentinel -inf, which makes the
degree inequalities deg(a + b) <= max(deg a, deg b) and
deg(a * b) = deg a + deg b hold without special-casing.

Irreducibility uses Ben-Or's test (gcd(t^(q^i) - t, P) = 1 for every
i <= n/2, stopping at the first nontrivial gcd) and is cached on the
instance, since symbol evaluation revalidates its modulus on every call.
After the i = 1 root test, each step of the chain applies the matrix of
the q-power Frobenius on F_q[t]/(P) (_frobenius_rows) instead of raising
to the q-th power.

The same Ben-Or test finds field_core's GF(p^m) modulus, and
_quotient_tables walks the exp/log tables of any quotient field
F_q[t]/(P): GF(p^m) over GF(p), and verify's copies of GF(q^n).

The text format is exact and round-trips: terms joined by '+' or '-',
descending powers preferred on output, prime coefficients as decimal
integers and extension coefficients as '{c0,c1,...}' digit vectors
(constant digit first).
"""

import re
from typing import Iterator

from .field_core import Field, _prime_factors

NEG_INF = float("-inf")


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


class Poly:
    """Immutable polynomial over a fixed Field."""

    __slots__ = ("field", "coeffs", "_irred")

    def __init__(self, field: Field, coeffs=()):
        q = field.q
        cl = list(coeffs)
        for c in cl:
            if not isinstance(c, int) or not 0 <= c < q:
                raise ValueError(f"coefficient {c!r} out of range [0, {q})")
        self.field = field
        self.coeffs = tuple(_trim(cl))
        self._irred = None

    @classmethod
    def _make(cls, field: Field, coeffs: list) -> "Poly":
        # trusted constructor: coefficients already valid, list may be trimmed in place
        self = object.__new__(cls)
        self.field = field
        self.coeffs = tuple(_trim(coeffs))
        self._irred = None
        return self

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading_coeff(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        f = _same_field(self, other)
        return Poly._make(f, _add_raw(f, self.coeffs, other.coeffs))

    def __neg__(self):
        return Poly._make(self.field, _add_raw(self.field, (), self.coeffs, True))

    def __sub__(self, other):
        f = _same_field(self, other)
        return Poly._make(f, _add_raw(f, self.coeffs, other.coeffs, True))

    def __mul__(self, other):
        f = _same_field(self, other)
        return Poly._make(f, _mul_raw(f, self.coeffs, other.coeffs))

    def __divmod__(self, other):
        f = _same_field(self, other)
        qt, rm = _divmod_raw(f, list(self.coeffs), other.coeffs)
        return Poly._make(f, qt), Poly._make(f, rm)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        f = _same_field(self, other)
        return Poly._make(f, _rem_raw(f, list(self.coeffs), other.coeffs))

    def scale(self, c: int) -> "Poly":
        """Multiply by the scalar c."""
        return Poly._make(self.field, _mul_raw(self.field, [c], self.coeffs))

    def monic(self) -> "Poly":
        """The associate with leading coefficient 1."""
        if not self.coeffs:
            raise ValueError("zero polynomial cannot be made monic")
        lc = self.coeffs[-1]
        return self if lc == 1 else self.scale(self.field.inv(lc))

    def __repr__(self):
        return f"Poly({self.field!r}, '{format_poly(self)}')"


def _same_field(a: Poly, b: Poly) -> Field:
    if not isinstance(b, Poly):
        raise TypeError(f"expected Poly, got {type(b).__name__}")
    if a.field != b.field:
        raise ValueError(f"mixed fields: {a.field!r} vs {b.field!r}")
    return a.field


def zero(field: Field) -> Poly:
    return Poly._make(field, [])


def one(field: Field) -> Poly:
    return Poly._make(field, [1])


def variable(field: Field) -> Poly:
    """The monomial t."""
    return Poly._make(field, [0, 1])


def constant(field: Field, c: int) -> Poly:
    return Poly(field, (c,))


# -- raw coefficient-list kernels ------------------------------------------
#
# All coefficient arithmetic of F_q[t] runs in two kernels: the product
# _mul_raw (which also reduces mod a modulus in the same call, and applies
# the Frobenius matrix in its rows form) and the reduction _rem_raw.
# Irreducibility testing, symbols and the reciprocity oracle spend nearly
# all of their time in them, so each carries one inner loop per field
# arithmetic, chosen by (p, m) alone, with every field operation inlined:
# prime fields add mod p, characteristic 2 XORs codes, and odd extension
# fields add through the Zech table (see field_core).


def _mul_raw(f: Field, a, b, mod=None, rows=False) -> list:
    """a * b, reduced mod a monic modulus when one is given.

    With rows=True, b is the list of rows of an n x n matrix (each row at
    most n long) and the result is the vector a times it: the sum of
    a[i] * b[i], with no shift."""
    if not a or not b:
        return []
    res = [0] * (len(b) if rows else len(a) + len(b) - 1)
    if f.m == 1:
        p = f.p
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b[i]) if rows else enumerate(b, i):
                    if y:
                        res[k] = (res[k] + x * y) % p
    elif f.p == 2:
        exp, log, qm1 = f.exp, f.log, f.q - 1
        for i, x in enumerate(a):
            if x:
                lx = log[x]
                for k, y in enumerate(b[i]) if rows else enumerate(b, i):
                    if y:
                        res[k] ^= exp[(lx + log[y]) % qm1]
    else:
        exp, log, zech, qm1 = f.exp, f.log, f.zech, f.q - 1
        for i, x in enumerate(a):
            if x:
                lx = log[x]
                for k, y in enumerate(b[i]) if rows else enumerate(b, i):
                    if y:
                        t = lx + log[y]
                        r = res[k]
                        if r:
                            z = zech[(log[r] - t) % qm1]
                            res[k] = exp[(t + z) % qm1] if z >= 0 else 0
                        else:
                            res[k] = exp[t % qm1]
    if mod is None or len(res) < len(mod):
        return _trim(res)
    return _rem_raw(f, res, mod)


def _rem_raw(f: Field, a: list, b, qt=None) -> list:
    """Remainder of a by a nonzero b; a is consumed.  When qt is given, a
    list of len(a) - deg b zeros, the quotient digits are written into it."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return _trim(a)
    lead = b[-1]
    if f.m == 1:
        p = f.p
        inv_lead = 1 if lead == 1 else f.inv(lead)
        for pos in range(len(a) - 1, db - 1, -1):
            c = a[pos]
            if c:
                c = c * inv_lead % p
                off = pos - db
                if qt is not None:
                    qt[off] = c
                for i in range(db):
                    bi = b[i]
                    if bi:
                        a[off + i] = (a[off + i] - c * bi) % p
    elif f.p == 2:
        exp, log, qm1 = f.exp, f.log, f.q - 1
        llead = log[lead]
        for pos in range(len(a) - 1, db - 1, -1):
            c = a[pos]
            if c:
                lc = log[c] - llead
                off = pos - db
                if qt is not None:
                    qt[off] = exp[lc % qm1]
                for i in range(db):
                    bi = b[i]
                    if bi:
                        a[off + i] ^= exp[(lc + log[bi]) % qm1]
    else:
        exp, log, zech, qm1, half = f.exp, f.log, f.zech, f.q - 1, f.half
        llead = log[lead]
        for pos in range(len(a) - 1, db - 1, -1):
            c = a[pos]
            if c:
                lc = log[c] - llead
                off = pos - db
                if qt is not None:
                    qt[off] = exp[lc % qm1]
                # subtract c*b: add g^half * c*b, since -1 = g^half
                lc += half
                for i in range(db):
                    bi = b[i]
                    if bi:
                        t = lc + log[bi]
                        r = a[off + i]
                        if r:
                            z = zech[(log[r] - t) % qm1]
                            a[off + i] = exp[(t + z) % qm1] if z >= 0 else 0
                        else:
                            a[off + i] = exp[t % qm1]
    del a[db:]
    return _trim(a)


def _divmod_raw(f: Field, a: list, b) -> tuple:
    """Quotient and remainder of a by b; a is consumed."""
    qt = [0] * max(len(a) - len(b) + 1, 0)
    return qt, _rem_raw(f, a, b, qt)


def _gcd_raw(f: Field, a, b) -> list:
    a, b = list(a), list(b)
    while b:
        a, b = b, _rem_raw(f, a, b)
    if a and a[-1] != 1:
        a = _mul_raw(f, [f.inv(a[-1])], a)
    return a


def _xgcd_raw(f: Field, a, b) -> tuple:
    """Monic g plus Bezout coefficients (g, s, t) with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        qt, rm = _divmod_raw(f, r0, r1)
        r0, r1 = r1, rm
        s0, s1 = s1, _add_raw(f, s0, _mul_raw(f, qt, s1), True)
        t0, t1 = t1, _add_raw(f, t0, _mul_raw(f, qt, t1), True)
    if r0 and r0[-1] != 1:
        inv_lead = [f.inv(r0[-1])]
        r0 = _mul_raw(f, inv_lead, r0)
        s0 = _mul_raw(f, inv_lead, s0)
        t0 = _mul_raw(f, inv_lead, t0)
    return r0, s0, t0


def _add_raw(f: Field, a, b, subtract=False) -> list:
    """a + b, or a - b when subtract is set, coefficient by coefficient.
    A sum runs its loop over the shorter operand."""
    if not subtract and len(a) < len(b):
        a, b = b, a
    out = list(a) + [0] * (len(b) - len(a))
    op = f.sub if subtract else f.add
    for i, c in enumerate(b):
        out[i] = op(out[i], c)
    return _trim(out)


# -- public ring operations --------------------------------------------------


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    f = _same_field(a, b)
    return Poly._make(f, _gcd_raw(f, a.coeffs, b.coeffs))


def mod_pow(a: Poly, e: int, modulus: Poly) -> Poly:
    """a^e mod modulus by binary exponentiation; e is an arbitrary int >= 0."""
    f = _same_field(a, modulus)
    if e < 0:
        raise ValueError("negative exponent")
    if modulus.is_zero():
        raise ZeroDivisionError("zero modulus")
    mod = modulus.monic().coeffs
    if len(mod) == 1:
        return zero(f)
    base = _rem_raw(f, list(a.coeffs), mod)
    return Poly._make(f, _pow_raw(f, base, e, mod))


def _pow_raw(f: Field, a, e: int, mod) -> list:
    """a^e mod a monic modulus by square-and-multiply."""
    out, base = [1], a
    while e:
        if e & 1:
            out = _mul_raw(f, out, base, mod)
        e >>= 1
        if e:
            base = _mul_raw(f, base, base, mod)
    return out


def norm(P: Poly) -> int:
    """|P| = q^deg(P), the size of the residue ring F_q[t]/(P)."""
    if P.is_zero():
        raise ValueError("zero polynomial has no finite norm")
    return P.field.q ** (len(P.coeffs) - 1)


def is_irreducible(P: Poly) -> bool:
    """Ben-Or's irreducibility test, cached on the instance.

    A reducible P of degree n has an irreducible factor of some degree
    i <= n/2, which divides t^(q^i) - t; so P is irreducible iff
    gcd(t^(q^i) - t, P) = 1 for i = 1 .. n/2.  One Frobenius chain gives the
    t^(q^i) mod P, and the scan stops at the first nontrivial gcd.

    The first step is the root test: t^q mod P by square-and-multiply and
    one gcd.  If it passes and n >= 4, the rows t^(jq) mod P (j < n) of the
    q-power Frobenius matrix are built from t^q mod P, and every later step
    is one O(n^2) vector-matrix product instead of ceil(log2 q) mulmods.
    The rows cost n - 2 mulmods by t^q mod P; when q < n that is the
    monomial t^q, so each is a shift plus at most q reduction rows, and
    the whole basis costs about one square-and-multiply step.
    """
    if P._irred is None:
        P._irred = len(P.coeffs) > 1 and _ben_or(P.field, P.monic().coeffs)
    return P._irred


def _ben_or(f: Field, mod) -> bool:
    """is_irreducible on a monic coefficient list of degree >= 1."""
    n = len(mod) - 1
    if n == 1:
        return True
    t = [0, 1]
    img = _pow_raw(f, t, f.q, mod)
    if len(_gcd_raw(f, _add_raw(f, img, t, True), mod)) > 1:
        return False
    if n < 4:
        return True
    rows = _frobenius_rows(f, img, mod)
    for _ in range(n // 2 - 1):
        img = _mul_raw(f, img, rows, rows=True)
        if len(_gcd_raw(f, _add_raw(f, img, t, True), mod)) > 1:
            return False
    return True


def _frobenius_rows(f: Field, xq, mod) -> list:
    """Rows t^(jq) mod P for j < deg P, from xq = t^q mod P and the monic
    modulus P (deg P >= 2): the matrix of the q-power Frobenius on
    F_q[t]/(P), which is F_q-linear because c^q = c in F_q, so
    _mul_raw(f, a, rows, rows=True) is a^q mod P."""
    rows = [[1], xq]
    for _ in range(2, len(mod) - 1):
        rows.append(_mul_raw(f, rows[-1], xq, mod))
    return rows


def _quotient_tables(f: Field, mod) -> tuple:
    """(g, exp, log) for K = F_q[t]/(mod), mod a monic irreducible of degree
    n: g is the smallest code of full order q^n - 1, exp[i] = g^i and
    log[0] = -1.  Elements are coded by their base-q digits, constant digit
    least significant (from_code), so each code is also the base-p digit
    string of its m*n coefficients over F_p.

    Multiplication by g is F_p-linear, so the walk splits each code at a
    power of p into low and high digits, y = l + h*split, and adds the two
    precomputed products lo[l] + hi[h]: about 2*sqrt(q^n) products in all.
    In characteristic 2 the addition is the XOR of codes.  In odd
    characteristic lo and hi are recoded with base-2p digits, so their sum
    never carries: it splits at the same digit into two halves, and one
    table lookup each reduces a half's digits mod p back to a code."""
    q, p = f.q, f.p
    size = q ** (len(mod) - 1)
    M = size - 1
    factors = _prime_factors(M)
    for g in range(1, size):
        gd = _digits_raw(q, g)
        if all(_pow_raw(f, gd, M // r, mod) != [1] for r in factors):
            break
    digits = f.m * (len(mod) - 1)
    split = p ** (digits // 2)
    lo = [
        _code_raw(q, _mul_raw(f, _digits_raw(q, c), gd, mod)) for c in range(split)
    ]
    hi = [
        _code_raw(q, _mul_raw(f, _digits_raw(q, c * split), gd, mod))
        for c in range(size // split)
    ]
    exp = [0] * M
    log = [-1] * size
    y = 1
    if p == 2:
        for i in range(M):
            exp[i] = y
            log[y] = i
            h, l = divmod(y, split)
            y = lo[l] ^ hi[h]
    else:
        wide = (2 * p) ** (digits // 2)
        lo = [_code_raw(2 * p, _digits_raw(p, c)) for c in lo]
        hi = [_code_raw(2 * p, _digits_raw(p, c)) for c in hi]
        low = _fold_table(p, digits // 2)
        high = _fold_table(p, digits - digits // 2)
        h, l = divmod(y, split)
        for i in range(M):
            y = l + h * split
            exp[i] = y
            log[y] = i
            h, l = divmod(lo[l] + hi[h], wide)
            l, h = low[l], high[h]
        y = l + h * split
    if y != 1:
        raise AssertionError("generator order mismatch")  # unreachable
    return g, exp, log


def _fold_table(p: int, k: int) -> list:
    """table[c] for every c < (2p)^k: the base-p code of c's k base-2p
    digits, each reduced mod p."""
    table = [0]
    for i in range(k):
        w = p**i
        table = [x + c % p * w for c in range(2 * p) for x in table]
    return table


def monic_from_code(field: Field, degree: int, code: int) -> Poly:
    """The code-th monic polynomial of the given degree, in the lexicographic
    order of coefficient vectors with the constant coefficient most
    significant (so the top sub-leading coefficient varies fastest)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    q = field.q
    if not 0 <= code < q**degree:
        raise ValueError(f"code {code} out of range [0, {q**degree})")
    coeffs = [0] * degree + [1]
    for i in range(degree - 1, -1, -1):
        code, coeffs[i] = divmod(code, q)
    return Poly._make(field, coeffs)


def enumerate_monic(field: Field, degree: int) -> Iterator[Poly]:
    """All q^degree monic polynomials of exactly this degree, in
    monic_from_code order (the order the field modulus search uses too)."""
    for code in range(field.q**degree):
        yield monic_from_code(field, degree, code)


def monic_irreducibles(field: Field, degree: int) -> Iterator[Poly]:
    """All monic irreducibles of exactly this degree, in enumerate_monic order."""
    for P in enumerate_monic(field, degree):
        if is_irreducible(P):
            yield P


def count_monic_irreducibles(field: Field, degree: int) -> int:
    """Gauss' necklace count: (1/n) * sum_{e | n} mu(n/e) q^e."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    q, n = field.q, degree
    total = 0
    for e in range(1, n + 1):
        if n % e == 0:
            total += _moebius(n // e) * q**e
    return total // n


def _moebius(n: int) -> int:
    out = 1
    for p in _prime_factors(n):
        if n % (p * p) == 0:
            return 0
        out = -out
    return out


# -- residue coding ----------------------------------------------------------


def _digits_raw(q: int, code: int) -> list:
    """Base-q digits of code >= 0, least significant first, no trailing zeros."""
    out = []
    while code:
        code, c = divmod(code, q)
        out.append(c)
    return out


def _code_raw(q: int, coeffs) -> int:
    """Inverse of _digits_raw."""
    out = 0
    for c in reversed(coeffs):
        out = out * q + c
    return out


def from_code(field: Field, code: int) -> Poly:
    """Polynomial whose base-q digits (little-endian) are the given code."""
    if code < 0:
        raise ValueError("code must be >= 0")
    return Poly._make(field, _digits_raw(field.q, code))


def to_code(P: Poly) -> int:
    """Inverse of from_code."""
    return _code_raw(P.field.q, P.coeffs)


# -- text format -------------------------------------------------------------

_TERM_RE = re.compile(
    r"""
    (?: (?P<coeff> \{[0-9,\s]*\} | [0-9]+ ) \s* (?: \* \s* (?P<tv1> t (?:\s*\^\s*(?P<pow1>[0-9]+))? ) )?
      | (?P<tv2> t (?:\s*\^\s*(?P<pow2>[0-9]+))? )
    )
    """,
    re.VERBOSE,
)


def parse_poly(text: str, field: Field, max_degree=None) -> Poly:
    """Parse the exact text format; inverse of format_poly up to term order.
    A term above max_degree (if given) is refused before any allocation."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")

    def skip_ws(i: int) -> int:
        while i < len(s) and s[i].isspace():
            i += 1
        return i

    # split into signed terms at top level (no parentheses in the grammar)
    terms = []
    pos = skip_ws(0)
    sign = 1
    if s[pos] in "+-":
        sign = -1 if s[pos] == "-" else 1
        pos = skip_ws(pos + 1)
    while True:
        m = _TERM_RE.match(s, pos)
        if not m:
            raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
        terms.append((sign, m))
        pos = skip_ws(m.end())
        if pos == len(s):
            break
        if s[pos] not in "+-":
            raise ValueError(f"expected '+' or '-' near {s[pos:]!r}")
        sign = -1 if s[pos] == "-" else 1
        pos = skip_ws(pos + 1)
        if pos == len(s):
            raise ValueError("dangling sign at end of polynomial")
    coeffs: dict = {}
    for sign, m in terms:
        if m.group("tv2") is not None:
            power = int(m.group("pow2")) if m.group("pow2") else 1
            c = 1
        else:
            c = _parse_coeff(m.group("coeff"), field)
            if m.group("tv1") is not None:
                power = int(m.group("pow1")) if m.group("pow1") else 1
            else:
                power = 0
        if sign < 0:
            c = field.neg(c)
        coeffs[power] = field.add(coeffs.get(power, 0), c)
    top = max(coeffs, default=-1)
    if max_degree is not None and top > max_degree:
        raise ValueError(f"term t^{top} exceeds the degree bound {max_degree}")
    out = [0] * (top + 1)
    for power, c in coeffs.items():
        out[power] = c
    return Poly._make(field, out)


def _parse_coeff(token: str, field: Field) -> int:
    token = token.strip()
    if token.startswith("{"):
        if field.m == 1:
            raise ValueError("digit-vector coefficients need an extension field")
        inner = token[1:-1].strip()
        digits = [int(x) for x in inner.split(",")] if inner else []
        if not digits:
            raise ValueError("empty coefficient digit vector")
        return field.element_from_coeffs(digits)
    value = int(token)
    if field.m > 1:
        if value >= field.p:
            raise ValueError(
                f"bare integer coefficient {value} out of prime-subfield range"
            )
        return value
    return value % field.p


def format_poly(P: Poly) -> str:
    """Canonical text: descending powers, zero terms omitted, '0' for zero."""
    if P.is_zero():
        return "0"
    f = P.field
    parts = []
    for power in range(len(P.coeffs) - 1, -1, -1):
        c = P.coeffs[power]
        if not c:
            continue
        if power == 0:
            parts.append(_format_coeff(c, f))
        elif c == 1:
            parts.append(_tpow(power))
        else:
            parts.append(f"{_format_coeff(c, f)}*{_tpow(power)}")
    return " + ".join(parts)


def _format_coeff(c: int, field: Field) -> str:
    if field.m == 1:
        return str(c)
    return "{" + ",".join(str(d) for d in field.coeffs_of(c)) + "}"


def _tpow(power: int) -> str:
    return "t" if power == 1 else f"t^{power}"
