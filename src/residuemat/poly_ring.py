"""Dense univariate polynomial arithmetic over a finite field: F_q[t].

A Poly stores an ascending tuple of field-element codes with no trailing
zeros, so representations are canonical and hashable.  The zero polynomial
is the empty tuple; its degree is the sentinel -inf, which makes the
degree inequalities deg(a + b) <= max(deg a, deg b) and
deg(a * b) = deg a + deg b hold without special-casing.

Irreducibility uses Ben-Or's test, cached on the instance since symbol
evaluation revalidates its modulus on every call; is_irreducible states
its Frobenius chain, which runs on coefficient lists or on
Kronecker-packed ints (_Packed), and _ben_or when each route is taken.

monic_irreducibles finds field_core's GF(p^m) modulus, and
_quotient_tables walks the exp/log tables of any quotient field
F_q[t]/(P): GF(p^m) over GF(p), and verify's copies of GF(q^n).

The text format is exact and round-trips: terms joined by '+' or '-',
descending powers preferred on output, prime coefficients as decimal
integers and extension coefficients as '{c0,c1,...}' digit vectors
(constant digit first).
"""

import re
import sys
from array import array
from math import gcd as _int_gcd, isqrt
from operator import add, mul
from typing import Iterator

from .field_core import Field, _prime_factors

NEG_INF = float("-inf")
_BIG_ENDIAN = sys.byteorder == "big"
# array typecodes by word width in bits, for packing slots of that width;
# 8 bits hold no slot of a modulus that _ben_or packs
_WORDS = {array(code).itemsize * 8: code for code in "HIQ"}


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
            if isinstance(c, bool) or not isinstance(c, int) or not 0 <= c < q:
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
# All coefficient arithmetic of F_q[t] on coefficient lists runs in two
# kernels: the product _mul_raw (which also reduces mod a modulus in the
# same call, and applies the Frobenius matrix in its rows form) and the
# reduction _rem_raw.  Irreducibility testing, symbols and the reciprocity
# oracle spend nearly all of their time in them, so each carries one inner
# loop per field arithmetic, chosen by (p, m) alone, with every field
# operation inlined: prime fields add mod p, characteristic 2 XORs codes,
# and odd extension fields add through the Zech table (see field_core).
# The one exception is the packed route of Ben-Or's chain (_ben_or states
# when it is taken), which comes back to lists only for its gcds.


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


def _inv_raw(f: Field, a, mod) -> tuple:
    """(g, s): the monic gcd g of a and mod, and s with s*a = g mod mod.
    When g = 1, s is the inverse of a mod mod."""
    r0, r1 = list(a), list(mod)
    s0, s1 = [1], []
    while r1:
        qt, rm = _divmod_raw(f, r0, r1)
        r0, r1 = r1, rm
        s0, s1 = s1, _add_raw(f, s0, _mul_raw(f, qt, s1), True)
    if r0 and r0[-1] != 1:
        inv_lead = [f.inv(r0[-1])]
        r0 = _mul_raw(f, inv_lead, r0)
        s0 = _mul_raw(f, inv_lead, s0)
    return r0, s0


def _add_raw(f: Field, a, b, subtract=False) -> list:
    """a + b, or a - b when subtract is set, coefficient by coefficient.
    A sum runs its loop over the shorter operand.  The field operation is
    inlined as in _mul_raw: mod p, XOR of codes, or the Zech table."""
    if not subtract and len(a) < len(b):
        a, b = b, a
    out = list(a) + [0] * (len(b) - len(a))
    if f.p == 2:
        for i, c in enumerate(b):
            out[i] ^= c
    elif f.m == 1:
        p, sign = f.p, -1 if subtract else 1
        for i, c in enumerate(b):
            out[i] = (out[i] + sign * c) % p
    else:
        exp, log, zech, qm1 = f.exp, f.log, f.zech, f.q - 1
        half = f.half if subtract else 0  # -c = g^half * c
        for i, c in enumerate(b):
            if c:
                t = log[c] + half
                r = out[i]
                if r:
                    z = zech[(log[r] - t) % qm1]
                    out[i] = exp[(t + z) % qm1] if z >= 0 else 0
                else:
                    out[i] = exp[t % qm1]
    return _trim(out)


def _minus_t(f: Field, a) -> list:
    """a - t as a new list, maybe untrimmed: the difference t^(q^i) - t of
    Ben-Or's gcds, for the list a = t^(q^i) mod P."""
    out = a + [0] * (2 - len(a))
    out[1] = f.sub(out[1], 1)
    return out


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

    The steps i = 2 .. n/2 run in _chain on one of two routes.  On
    coefficient lists each difference t^(q^i) - t gets its own gcd, since
    a list mulmod costs more than the gcd it saves.  On the packed route
    the rows, steps and products run on packed ints (_Packed), one digit
    plane per base-p digit of the coefficients, where a product mod P is
    three int products, and the differences are multiplied mod P with two
    gcds in all: one after the first isqrt(n/2) steps, so that small
    factors still exit early, and one over the product of the rest.  P is
    coprime to every difference iff it is coprime to their product mod P
    (a product that is 0 mod P has gcd P), so the verdict is the per-step
    one.  _ben_or states which moduli take the packed route, and the
    measurements behind that choice.
    """
    if P._irred is None:
        P._irred = len(P.coeffs) > 1 and _ben_or(P.field, P.monic().coeffs)
    return P._irred


def _ben_or(f: Field, mod) -> bool:
    """is_irreducible on a monic coefficient list of degree >= 1."""
    n = len(mod) - 1
    if n == 1:
        return True
    xq = _pow_raw(f, [0, 1], f.q, mod)
    if len(_gcd_raw(f, _minus_t(f, xq), mod)) > 1:
        return False
    if n < 4:
        return True
    # The chain's route, stated here once.  A list row costs n * min(q, n)
    # coefficient operations (a shift and q reduction rows, or a dense
    # product), through the Zech table over odd GF(p^m); the packed route
    # costs a few int operations per row and a set-up that grows with m.
    # Packing pays from n * min(q, n) >= 64 over a prime field
    # (BENCH_packed.json, ben_or_per_call) and from 112 (m - 1)^2 over
    # GF(p^m) with p odd and q < 1024, the fields measured: GF(9) from
    # n = 13, GF(25) and GF(49) from 11, GF(27) from 22, GF(81) from 32
    # (BENCH_ext_packed.json, per_call).  Characteristic 2 adds by XOR on
    # lists, where the reducibles that pass the root test stay faster
    # through n = 64.  For P = g(t^k) every row and image has at most
    # d = n/k terms, and the list loops skip the zeros: packing pays from
    # d^2 >= 2n (composed_moduli in BENCH_packed.json), which keeps
    # binomials (d = 1) on lists.  So do slots wider than 64 bits.  The
    # crossover was measured with one gcd per isqrt(n/2) packed steps; the
    # two gcds per packed chain since then run 1.06-1.61x on irreducibles
    # and 0.89-1.08x on reducibles that pass the root test
    # (BENCH_euclid.json, ben_or), and move no modulus between routes.
    p, m, q = f.p, f.m, f.q
    ctx = None
    if (m == 1 or p > 2 and q < 1024) and n * min(q, n) >= max(64, 112 * (m - 1) ** 2):
        d = n // _int_gcd(*(i for i, c in enumerate(mod) if c))
        if 2 * n <= d * d and _slots(f, n):
            ctx = _Packed(f, mod)
    return _chain(f, mod, xq, ctx)


def _frobenius_rows(f: Field, xq, mod) -> list:
    """Rows t^(jq) mod P for j < deg P, from xq = t^q mod P and the monic
    modulus P (deg P >= 2): the matrix of the q-power Frobenius on
    F_q[t]/(P), which is F_q-linear because c^q = c in F_q, so
    _mul_raw(f, a, rows, rows=True) is a^q mod P."""
    rows = [[1], xq]
    for _ in range(2, len(mod) - 1):
        rows.append(_mul_raw(f, rows[-1], xq, mod))
    return rows


def _chain(f: Field, mod, xq, ctx) -> bool:
    """Steps i = 2 .. n/2 of is_irreducible's chain, given xq = t^q mod P
    from the root test: on coefficient lists when ctx is None, else on the
    packed ints of ctx, a _Packed for P.  The routes differ only in how
    rows, steps and products are computed, and in where the gcds fall:
    after every list step, or after the first isqrt(n/2) packed steps and
    at the end."""
    n = len(mod) - 1
    steps = n // 2 - 1
    # a gcd is taken after step i when i + 1 is in cuts
    if ctx is None:
        rows, cuts = _frobenius_rows(f, xq, mod), range(1, steps + 1)
    else:
        rows, cuts = ctx.frobenius_rows(xq), (isqrt(n // 2), steps)
    img = xq
    for i in range(steps):
        if ctx is None:
            img = _mul_raw(f, img, rows, rows=True)
        else:
            img = ctx.frobenius(img, rows)
        diff = _minus_t(f, img)
        if i == 0 or i in cuts:
            acc = diff
        else:
            acc = ctx.mulmod(ctx.pack(acc), ctx.pack(diff))
        if i + 1 in cuts and len(_gcd_raw(f, acc, mod)) > 1:
            return False
    return True


def _ypowers(f) -> list:
    """The digits of y^k for k = m .. 2m - 2, where F_q = F_p[y]/(f.modulus)
    and y has code p, read off the field's tables: what the planes y^k of a
    product fold into.  Empty over a prime field."""
    m, qm1 = f.m, f.q - 1
    return [f.coeffs_of(f.exp[k * f.log[f.p] % qm1]) for k in range(m, 2 * m - 1)]


def _slots(f, n: int) -> int:
    """The slot width w for _Packed mod a P of degree n over f = GF(p^m):
    the smallest machine word that holds every slot value _Packed can
    produce, or 0 when none does."""
    p, m = f.p, f.m
    top = p - 1  # the largest digit
    fold = 1  # a prime field's one plane
    if m > 1:  # the general rule costs m = 1 up to 1.07x per call (BENCH_forks.json)
        # plane k of a product sums at most pairs[k] plane products, and
        # fold adds digit j of y^k mod f.modulus times plane k to plane j
        pairs = [min(k, 2 * m - 2 - k) + 1 for k in range(2 * m - 1)]
        ypow = list(enumerate(_ypowers(f), m))
        fold = max(pairs[j] + sum(r[j] * pairs[k] for k, r in ypow) for j in range(m))
    # a product of reduced inputs, and mulmod's middle product of the
    # n - 1 unreduced top slots of such a product with v; adding
    # quot * nlow at most doubles the first
    prod = fold * n * top * top
    bound = max(2 * prod, fold * (n - 1) * prod * top)
    q = p**m
    if q < n:
        # frobenius_rows' shift route: each reduction adds a product of q
        # reduced quotient slots to every slot, and a slot goes through at
        # most ceil(n/q) of them; a chain step multiplies such rows by
        # reduced digits
        row = 1 + -(-n // q) * fold * q * top * top
        bound = max(bound, fold * n * top * row)
    bits = bound.bit_length()
    return min((w for w in _WORDS if w >= bits), default=0)


class _Packed:
    """Arithmetic mod a monic P of degree n over F_q = F_p[y]/(f.modulus)
    on Kronecker-packed ints.  An element code holds the base-p digits of
    its residue in y, constant digit first (field_core), and digit j of
    the coefficients c_0, c_1, ... makes digit plane j: the int sum of
    digit_j(c_i) * 2^(w i), one w-bit slot per coefficient.  A polynomial
    is one int holding its m planes stride = 2n slots apart, plane j from
    slot j * stride, so a product of two polynomials is one product of
    ints whose 2m - 1 planes, each under 2n - 1 slots long, are its parts
    at y^0 .. y^(2m - 2); fold adds the planes from y^m up back into the
    low m through y^k mod f.modulus.  Over a prime field (m = 1) the one
    plane is the coefficient list itself and there is nothing to fold:
    pack, unpack, _stack, _digits, reduce and frobenius then skip the
    digit tables, restriding and fold, which saves 1.2-1.4x per packed
    prime-field call (BENCH_forks.json, kept_forks).

    Slots are never reduced inside an int: w is derived from the largest
    slot value any product here can hold (_slots, which must find a
    machine word), and a packed value is brought back to digits below p
    only by _digits.  Reduction mod P is Barrett's: v = 1/rev(P)
    mod s^(n-1), with rev(P)(s) = s^n P(1/s), turns the quotient of a
    product into one more product."""

    __slots__ = (
        "p", "m", "n", "w", "code", "stride", "digit", "ymod", "low", "high",
        "nlow", "v", "vr",
    )

    def __init__(self, f, mod):
        p, m, n = f.p, f.m, len(mod) - 1
        self.p, self.m, self.n = p, m, n
        self.w = _slots(f, n)
        self.code = _WORDS[self.w]
        self.stride = 2 * n
        # digit[j][c] = digit j of the code c, for m > 1
        self.digit = []
        for j in range(m if m > 1 else 0):
            run = []
            for c in range(p):
                run += [c] * p**j
            self.digit.append(run * p ** (m - 1 - j))
        # fold's table: for each plane k = 2m - 2 down to m, where it starts
        # and, for each nonzero digit c_j of y^k mod f.modulus, c_j with
        # where plane j starts
        bits = self.w * self.stride
        self.ymod = [
            (bits * k, [(c, bits * j) for j, c in enumerate(r) if c])
            for k, r in enumerate(_ypowers(f), m)
        ][::-1]
        # every plane's slots below n, and those from n to 2n - 2
        planes = ((1 << (bits * m)) - 1) // ((1 << bits) - 1)
        self.low = planes * ((1 << (self.w * n)) - 1)
        self.high = planes * ((1 << (self.w * (n - 1))) - 1)
        # -P below t^n, digit by digit: reduce adds quot * nlow, so that
        # no slot borrows
        low = mod[:n] if m == 1 else self._split(mod[:n])
        self.nlow = self._stack([-c % p for c in low], n)
        # v by Newton iteration: v <- v (2 - rev(P) v) doubles the
        # precision, from v = 1 since rev(P) has constant term 1
        rev = self.pack(mod[::-1])
        v, prec = 1, 1
        while prec < n - 1:
            prec = min(2 * prec, n - 1)
            e = [-c % p for c in self._digits(self.fold(rev * v), prec)]
            e[0] = 1  # 2 - rev(P) v, whose constant term is 2 - 1
            e = self.fold(v * self._stack(e, prec))
            v = self._stack(self._digits(e, prec), prec)
        self.v = self.unpack(v, n - 1)
        self.vr = self.reversed_v(n - 1)

    def reversed_v(self, length: int) -> int:
        """Packed sum of v_k t^(length - k) over k < length: for h of at
        most length slots, (h * this) >> (w * length) is the middle product
        sum_k h_(m+k) v_k at slot m, the quotient of h t^n by P."""
        return self.pack([0] + self.v[:length][::-1])

    # A digit list holds the m planes of k coefficients one after the
    # other, k digits each; over a prime field it is the coefficient list.

    def _split(self, coeffs) -> list:
        """The digit list of a coefficient list (m > 1)."""
        out = []
        for d in self.digit:
            out += map(d.__getitem__, coeffs)
        return out

    def _restride(self, x: int, k: int, src: int, dst: int) -> int:
        """The low k slots of each of x's m planes, moved from src slots
        apart to dst slots apart."""
        w, mask, out = self.w, (1 << (self.w * k)) - 1, 0
        for j in range(self.m):
            out |= ((x >> (w * src * j)) & mask) << (w * dst * j)
        return out

    def _stack(self, digits, k: int) -> int:
        """The int of a digit list of k coefficients (k <= 2n)."""
        words = array(self.code, digits)
        if _BIG_ENDIAN:
            words.byteswap()
        x = int.from_bytes(words, "little")
        return x if self.m == 1 else self._restride(x, k, k, self.stride)

    def _digits(self, x: int, k: int) -> list:
        """The digit list of the low k slots of each of x's m planes,
        reduced mod p.  Slots above them may hold anything: they are
        skipped or masked off."""
        p, w, m = self.p, self.w, self.m
        if m > 1:
            x = self._restride(x, k, self.stride, k)
        raw = (x & ((1 << (w * m * k)) - 1)).to_bytes(m * k * w // 8, "little")
        words = array(self.code, raw)
        if _BIG_ENDIAN:
            words.byteswap()
        return [c % p for c in words]

    def pack(self, coeffs) -> int:
        return self._stack(coeffs if self.m == 1 else self._split(coeffs), len(coeffs))

    def unpack(self, x: int, k: int) -> list:
        """The low k coefficients of x as element codes: each plane's
        digits reduced mod p (_digits), then read in base p."""
        digits = self._digits(x, k)
        if self.m == 1:
            return digits
        out, pmul = digits[(self.m - 1) * k :], self.p.__mul__
        for j in range(self.m - 2, -1, -1):
            out = list(map(add, digits[j * k : j * k + k], map(pmul, out)))
        return out

    def fold(self, c: int) -> int:
        """c's planes y^m .. y^(2m - 2), those of a product, added into
        the low m through y^k mod f.modulus (ymod)."""
        for at, terms in self.ymod:
            top = c >> at
            if top:
                c &= (1 << at) - 1
                for r, to in terms:
                    c += r * top << to
        return c

    def reduce(self, c: int, vr: int, k: int) -> int:
        """c mod P, for c a product of two packed polynomials, by Barrett's
        product: the quotient of each plane's slots from n up (at most k of
        them) is one product with vr = reversed_v(k), whose digits are
        reduced mod p before c + quot * nlow, which holds c mod P in the
        low n slots of each plane, correct mod p and with no borrow.  The
        slots from n up still hold c's, for the caller to mask off.  The
        products are folded only over an extension field."""
        w, n = self.w, self.n
        if self.m == 1:
            quot = (c >> (w * n)) * vr
        else:
            c = self.fold(c)
            quot = self.fold(((c >> (w * n)) & self.high) * vr)
        quot = self._stack(self._digits(quot >> (w * k), k), k) * self.nlow
        return c + (quot if self.m == 1 else self.fold(quot))

    def mulmod(self, a: int, b: int) -> list:
        """a * b mod P as n codes, for packed a and b with reduced digits."""
        return self.unpack(self.reduce(a * b, self.vr, self.n - 1), self.n)

    def frobenius_rows(self, xq) -> list:
        """_frobenius_rows, packed.  For q >= n, row j is the Barrett
        product of row j - 1 and xq = t^q mod P.  For q < n, t^q is a
        monomial, so row j is row j - 1 shifted by q slots with only the
        top q slots reduced; the rows' slots then stay unreduced but
        correct mod p, so the rows are only good for products that reduce
        mod p after them.  Normalising them as well costs 1.1-1.4x per call,
        and one loop for both routes about 1% (BENCH_forks.json)."""
        n, w, q = self.n, self.w, self.p**self.m
        if q >= n:
            x = self.pack(xq)
            rows = [1, x]
            for _ in range(2, n):
                c = self.reduce(rows[-1] * x, self.vr, n - 1)
                rows.append(self._stack(self._digits(c, n), n))
            return rows
        vr = self.reversed_v(q)
        low = self.low
        over = ~low
        row, rows = 1, [1]
        for _ in range(1, n):
            row <<= w * q
            if row & over:
                row = self.reduce(row, vr, q) & low
            rows.append(row)
        return rows

    def frobenius(self, img, rows) -> list:
        """img^q mod P as n codes, for img a list of codes and rows from
        frobenius_rows: the sum of img_i * row_i, one sum of products per
        digit plane of img."""
        if self.m == 1:
            return self.unpack(sum(map(mul, img, rows)), self.n)
        c, bits = 0, self.w * self.stride
        for j, d in enumerate(self.digit):
            c += sum(map(mul, map(d.__getitem__, img), rows)) << (bits * j)
        return self.unpack(self.fold(c), self.n)


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
        # XOR never carries; the base-4 walk below takes 1.7-2.1x as long
        # on GF(2^16) and GF(2^20) (BENCH_first_irreducible.json, xor_walk)
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
    monic_from_code order."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return (monic_from_code(field, degree, c) for c in range(field.q**degree))


def monic_irreducibles(field: Field, degree: int) -> Iterator[Poly]:
    """All monic irreducibles of exactly this degree, in enumerate_monic
    order; the first is field_core's GF(p^m) modulus and verify's GF(q^n).
    Codes below q^(degree - 1) have constant term 0, so past degree 1,
    where t divides them and they are reducible, the scan skips them."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    codes = range(field.q ** (degree - 1) if degree > 1 else 0, field.q**degree)
    return filter(is_irreducible, (monic_from_code(field, degree, c) for c in codes))


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
        try:
            digits = [int(x) for x in inner.split(",")] if inner else []
        except ValueError:
            raise ValueError(
                f"digit vector {token!r} is not a comma-separated list of integers"
            ) from None
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
