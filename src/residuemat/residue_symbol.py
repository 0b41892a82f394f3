"""Power residue symbols over F_q[t], the reciprocity sign, and residue matrices.

The d-th power residue symbol of a modulo a monic irreducible P (with
gcd(a, P) = 1) is the unique d-th root of unity congruent to
a^((|P| - 1)/d) mod P, where |P| = q^deg(P).  It is returned as a
RootIndex exponent of the fixed primitive root zeta = g^((q-1)/d), so all
downstream arithmetic is integer arithmetic mod d.

symbol() never exponentiates.  It runs the Euclid-reciprocity route of
the d-th power Jacobi symbol (Rosen, Number Theory in Function Fields,
ch. 3), which is multiplicative in both arguments and defined for every
monic modulus b coprime to a:

* (a/b) depends only on a mod b;
* a constant c = g^l has (c/b) = zeta^(l deg b);
* for monic coprime a and b, (a/b) - (b/a) = reciprocity_index(deg a, deg b).

Reducing, stripping the leading coefficient and swapping is Euclid's
algorithm on (a, P), so a symbol costs O(deg(P)^2) field operations.

The route assumes the reciprocity law, so it cannot be what checks that
law.  verify_reciprocity() therefore computes every symbol by the
defining exponentiation instead, carried into one copy
K_n = F_q[t]/(Q_n) of GF(q^n) per degree n, where Q_n is the first
irreducible of degree n.  For a monic irreducible Q of degree n with a
root beta in K_n, t -> beta is an isomorphism F_q[t]/(Q) -> K_n fixing
F_q, so it carries a^((|Q| - 1)/d) mod Q to a(beta)^((q^n - 1)/d).  With
exp/log tables of the smallest generator gamma of K_n^*, walked by
poly_ring._quotient_tables (which builds every GF(p^m) too), that is
zeta^(s * log a(beta)) where zeta^s = gamma^((q^n - 1)/d).  One pass over
the Frobenius orbits {k q^i} of size n finds log beta for every Q (the
orbit's minimal polynomial names Q), and a(beta) is one Horner pass in
logarithms and Zech logarithms, O(deg a) table steps per symbol.  Nothing here uses
reciprocity.

verify_symbol_structure() does call symbol(), on every unit residue mod
every monic irreducible P up to its degree, since those symbols are what
it checks.  It takes the exp/log tables of F_q[t]/(P) from the same
_quotient_tables, so the product of g^i and g^j is g^((i + j) mod
(|P| - 1)): each product is an index sum, and every unordered pair of
units is still compared, one row of pairs per list comparison.

The reciprocity law: for distinct monic irreducibles P and Q,
symbol(P, Q) - symbol(Q, P) = reciprocity_index(deg P, deg Q) mod d,
where the right side is the image of (-1)^((q-1) deg P deg Q / d) with -1
taken in F_q.  In characteristic 2 that value is 1, so the law is
symmetric no matter the parity of the exponent.
"""

from dataclasses import dataclass

from .field_core import Field, RootIndex, _zech, root_index_of
from .matrix_class import CycMatrix
from .poly_ring import (
    Poly,
    _mul_raw,
    _quotient_tables,
    _rem_raw,
    format_poly,
    from_code,
    is_irreducible,
    monic_irreducibles,
)


class SymbolContext:
    """Immutable (field, d) pair with d | q - 1."""

    __slots__ = ("field", "d")

    def __init__(self, field: Field, d: int):
        if d < 1 or (field.q - 1) % d != 0:
            raise ValueError(f"d = {d} does not divide q - 1 = {field.q - 1}")
        self.field = field
        self.d = d

    def __repr__(self):
        return f"SymbolContext({self.field!r}, d={self.d})"


def _check_modulus(ctx: SymbolContext, P: Poly) -> None:
    if P.field != ctx.field:
        raise ValueError("modulus belongs to a different field")
    if P.is_zero() or P.degree < 1 or not P.is_monic():
        raise ValueError(f"modulus must be monic of degree >= 1: {format_poly(P)}")
    if not is_irreducible(P):
        raise ValueError(f"modulus is not irreducible: {format_poly(P)}")


def symbol(ctx: SymbolContext, a: Poly, P: Poly) -> RootIndex:
    """The d-th power residue symbol of a mod P as a RootIndex.

    Equals root_index_of(a^((|P| - 1)/d) mod P), computed by the
    Euclid-reciprocity route.  Errors if a is divisible by P (the symbol is
    undefined, not zero) or P is not monic irreducible.
    """
    _check_modulus(ctx, P)
    if a.field != ctx.field:
        raise ValueError("argument belongs to a different field")
    r = a % P
    if r.is_zero():
        raise ValueError("symbol undefined: a divisible by P")
    return RootIndex(_jacobi(ctx, r, P), ctx.d)


def _jacobi(ctx: SymbolContext, a: Poly, b: Poly) -> int:
    """Index of the Jacobi symbol (a/b)_d for monic b coprime to a, by
    Euclid's algorithm and the reciprocity law."""
    f, d = ctx.field, ctx.d
    log = f.log
    # the reciprocity sign is d/2 exactly when p is odd, (q-1)/d is odd
    # and both degrees are odd (reciprocity_index)
    signed = f.p != 2 and (f.q - 1) // d % 2 == 1
    k = 0
    ra, rb = list(a.coeffs), b.coeffs
    while len(rb) > 1:
        ra = _rem_raw(f, ra, rb)
        deg_b = len(rb) - 1
        lead = ra[-1]
        k += log[lead] * deg_b
        if len(ra) == 1:
            break
        if lead != 1:
            ra = _mul_raw(f, [f.inv(lead)], ra)
        if signed and deg_b % 2 and (len(ra) - 1) % 2:
            k += d // 2
        ra, rb = list(rb), ra
    return k % d


# -- the defining exponentiation, kept as the reciprocity oracle --------------


def _exponent_oracle(ctx: SymbolContext, polys):
    """index(a, Q): the index of a^((|Q| - 1)/d) mod Q for Q in polys
    (distinct monic irreducibles) and a not divisible by Q, by discrete
    logarithms in one copy K_n of GF(q^n) per degree n; no reciprocity.
    The tables live as long as the returned function."""
    f, d = ctx.field, ctx.d
    by_deg = {}
    for Q in polys:
        by_deg.setdefault(Q.degree, []).append(Q)
    fields = {}
    roots = {}
    for n, Qs in by_deg.items():
        _, exp, log = _quotient_tables(f, Qs[0].coeffs)
        zech = _zech(f.p, exp, log)
        M = len(exp)
        # gamma^((q^n - 1)/d) lies in F_q: it is zeta^s
        s = root_index_of(f, d, exp[M // d % M]).k
        fields[n] = (log, zech, M, s)
        roots.update(_root_logs(f, n, Qs, exp, log, zech))
    if len(roots) != len(polys):
        raise ArithmeticError("a modulus has no root in its extension field")

    def index(a, Q):
        log, zech, M, s = fields[len(Q.coeffs) - 1]
        lb = roots[Q.coeffs]
        cs = a.coeffs
        if lb is None:
            # Q = t, whose root is 0: a(0) is the constant coefficient
            lv = log[cs[0]] if cs[0] else None
        else:
            # Horner's rule for a(beta) in logarithms; None stands for 0
            lv = log[cs[-1]]
            for c in cs[-2::-1]:
                if lv is None:
                    lv = log[c] if c else None
                    continue
                lv += lb
                if c:
                    z = zech[(log[c] - lv) % M]
                    lv = lv + z if z >= 0 else None
        if lv is None:
            raise ValueError("symbol undefined: a divisible by Q")
        # d divides M, so lv needs no reduction mod M first
        return s * lv % d

    return index


def _root_logs(f: Field, n: int, Qs, exp, log, zech):
    """Map the coefficients of each Q in Qs (monic irreducibles of degree n)
    to log_gamma of one of its roots in K_n, or None for Q = t (root 0).

    The roots of a degree-n irreducible are one Frobenius orbit
    gamma^(k q^i), i < n, of exact size n; its minimal polynomial
    prod (X - gamma^(k q^i)) has coefficients in F_q and names the Q."""
    q, M = f.q, len(exp)
    lneg = log[f.neg(1)]
    want = {Q.coeffs for Q in Qs}
    out = {}
    if (0, 1) in want:
        want.remove((0, 1))
        out[(0, 1)] = None
    seen = bytearray(M)
    for k in range(M):
        if not want:
            break
        if seen[k]:
            continue
        orbit = [k]
        j = k * q % M
        while j != k:
            orbit.append(j)
            j = j * q % M
        for j in orbit:
            seen[j] = 1
        if len(orbit) != n:
            continue
        # coefficient logs, constant first, None for 0; times (X - root) each
        c = [0]
        for j in orbit:
            lr = j + lneg
            nxt = [None] + c
            for i, lc in enumerate(c):
                if lc is None:
                    continue
                x = lc + lr
                y = nxt[i]
                if y is None:
                    nxt[i] = x
                else:
                    z = zech[(x - y) % M]
                    nxt[i] = y + z if z >= 0 else None
            c = nxt
        key = tuple(0 if lc is None else exp[lc % M] for lc in c)
        if key in want:
            want.remove(key)
            out[key] = k
    return out


def reciprocity_index(ctx: SymbolContext, deg_p: int, deg_q: int) -> RootIndex:
    """Index of the reciprocity sign phi((-1)^((q-1) deg_p deg_q / d)).

    Zero in characteristic 2 (where -1 = 1) and whenever the exponent is
    even; d/2 otherwise, which is well defined since an odd exponent forces
    (q-1)/d odd with q odd, hence d even.
    """
    if deg_p < 1 or deg_q < 1:
        raise ValueError("degrees must be >= 1")
    f, d = ctx.field, ctx.d
    if f.p == 2:
        return RootIndex(0, d)
    e = (f.q - 1) // d * deg_p * deg_q
    return RootIndex(0 if e % 2 == 0 else d // 2, d)


def residue_matrix(ctx: SymbolContext, polys) -> CycMatrix:
    """CycMatrix with entry (i, j) = symbol(P_i, P_j) for i != j."""
    polys = list(polys)
    if not polys:
        raise ValueError("at least one polynomial required")
    if len(set(polys)) != len(polys):
        raise ValueError("duplicate polynomials in residue matrix input")
    for P in polys:
        _check_modulus(ctx, P)
    n = len(polys)
    entries = [[None] * n for _ in range(n)]
    for j, Pj in enumerate(polys):
        for i, Pi in enumerate(polys):
            if i != j:
                entries[i][j] = symbol(ctx, Pi, Pj).k
    return CycMatrix(n, ctx.d, entries)


# -- exhaustive self-checks (the verification front ends) ---------------------


@dataclass(frozen=True)
class ReciprocityReport:
    """Exhaustive reciprocity check over all ordered pairs of distinct monic
    irreducibles of degree <= max_deg; failures hold (P, Q, got, expected)."""

    q: int
    d: int
    max_deg: int
    pairs: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_reciprocity(ctx: SymbolContext, max_deg: int) -> ReciprocityReport:
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    f, d = ctx.field, ctx.d
    polys = [
        P for deg in range(1, max_deg + 1) for P in monic_irreducibles(f, deg)
    ]
    index = _exponent_oracle(ctx, polys)
    # the law's right side depends only on the two degrees
    sign = {
        (a, b): reciprocity_index(ctx, a, b).k
        for a in range(1, max_deg + 1)
        for b in range(1, max_deg + 1)
    }
    degs = [len(P.coeffs) - 1 for P in polys]
    pairs = 0
    failures = []
    for i, P in enumerate(polys):
        dp = degs[i]
        for Q, dq in zip(polys[i + 1 :], degs[i + 1 :]):
            expected = sign[dp, dq]
            s_pq = index(P, Q)
            s_qp = index(Q, P)
            pairs += 2
            if (s_pq - s_qp) % d != expected:
                failures.append((P, Q, (s_pq - s_qp) % d, expected))
            if (s_qp - s_pq) % d != expected:
                failures.append((Q, P, (s_qp - s_pq) % d, expected))
    return ReciprocityReport(
        q=f.q, d=d, max_deg=max_deg, pairs=pairs, failures=tuple(failures)
    )


@dataclass(frozen=True)
class SymbolStructureReport:
    """Exhaustive multiplicativity + surjectivity check of the symbol map on
    the unit residues mod every monic irreducible of degree <= max_deg."""

    q: int
    d: int
    max_deg: int
    moduli: int
    residues: int
    products: int
    mult_failures: tuple
    surjectivity_failures: tuple

    @property
    def ok(self) -> bool:
        return not self.mult_failures and not self.surjectivity_failures


def verify_symbol_structure(ctx: SymbolContext, max_deg: int = 2) -> SymbolStructureReport:
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    f, d = ctx.field, ctx.d
    moduli = residues = products = 0
    mult_failures = []
    surj_failures = []
    for deg in range(1, max_deg + 1):
        for P in monic_irreducibles(f, deg):
            moduli += 1
            # the units are exp[i] = g^i, and g^i * g^j = g^((i + j) mod M)
            _, exp, _ = _quotient_tables(f, P.coeffs)
            M = len(exp)
            kl = [symbol(ctx, from_code(f, code), P).k for code in exp]
            residues += M
            if set(kl) != set(range(d)):
                surj_failures.append(P)
            # row i compares every unordered pair {g^i, g^j}, j >= i, at once
            kk = kl + kl
            found = []
            for i, ki in enumerate(kl):
                products += M - i
                if kk[2 * i : i + M] == [(ki + x) % d for x in kl[i:]]:
                    continue
                for j in range(i, M):
                    if kk[i + j] != (ki + kl[j]) % d:
                        a, b = exp[i], exp[j]
                        found.append((min(a, b), max(a, b)))
            mult_failures += [(P, ca, cb) for ca, cb in sorted(found)]
    return SymbolStructureReport(
        q=f.q,
        d=d,
        max_deg=max_deg,
        moduli=moduli,
        residues=residues,
        products=products,
        mult_failures=tuple(mult_failures),
        surjectivity_failures=tuple(surj_failures),
    )
