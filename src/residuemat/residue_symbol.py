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
defining exponentiation instead, through the residue-field norm
N(a) = a^(1 + q + ... + q^(deg P - 1)) mod P down to F_q raised to
(q - 1)/d.  That is exactly a^((|P| - 1)/d), since
((q^n - 1)/(q - 1)) * ((q - 1)/d) = (q^n - 1)/d, and the norm is cheap
because the q-power Frobenius is F_q-linear, so its matrix is built once
per modulus (by poly_ring._frobenius_rows, which Ben-Or's irreducibility
test shares; it is ring arithmetic only).  It costs O(deg(P)^3) and uses
no reciprocity.

The reciprocity law: for distinct monic irreducibles P and Q,
symbol(P, Q) - symbol(Q, P) = reciprocity_index(deg P, deg Q) mod d,
where the right side is the image of (-1)^((q-1) deg P deg Q / d) with -1
taken in F_q.  In characteristic 2 that value is 1, so the law is
symmetric no matter the parity of the exponent.
"""

from dataclasses import dataclass

from .field_core import Field, RootIndex, index_to_element, root_index_of
from .matrix_class import CycMatrix
from .poly_ring import (
    Poly,
    _frobenius_rows,
    _mul_raw,
    _pow_raw,
    _rem_raw,
    format_poly,
    from_code,
    is_irreducible,
    monic_irreducibles,
)


class SymbolContext:
    """Immutable (field, d) pair with d | q - 1 and the zeta power table."""

    __slots__ = ("field", "d", "zeta_powers")

    def __init__(self, field: Field, d: int):
        if d < 1 or (field.q - 1) % d != 0:
            raise ValueError(f"d = {d} does not divide q - 1 = {field.q - 1}")
        self.field = field
        self.d = d
        self.zeta_powers = tuple(index_to_element(field, d, k) for k in range(d))

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


def _norm_index(ctx: SymbolContext, a, P: Poly) -> int:
    """Index of (a/P)_d from the raw coefficients of a by the defining
    exponentiation a^((|P| - 1)/d) = N(a)^((q - 1)/d), with no reciprocity."""
    f = ctx.field
    r = _rem_raw(f, list(a), P.coeffs)
    c = _residue_norm(r, P)
    return root_index_of(f, ctx.d, f.pow(c, (f.q - 1) // ctx.d)).k


def _frobenius_basis(P: Poly):
    """Images t^(iq) mod P for i < deg P, cached on the modulus instance."""
    if P._frob is None:
        f, mod = P.field, P.coeffs
        P._frob = _frobenius_rows(f, _pow_raw(f, [0, 1], f.q, mod), mod)
    return P._frob


def _residue_norm(r, P: Poly) -> int:
    """Norm of the nonzero residue r (raw coefficients) into F_q:
    r^((|P| - 1)/(q - 1)) mod P."""
    n = len(P.coeffs) - 1
    if n == 1:
        return r[0]
    f = P.field
    mod = P.coeffs
    basis = _frobenius_basis(P)
    out = list(r)
    fr = out
    for _ in range(n - 1):
        fr = _mul_raw(f, fr, basis, rows=True)
        out = _mul_raw(f, out, fr, mod)
    if len(out) > 1:
        raise ArithmeticError("norm computation left the base field")
    return out[0]


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
    pairs = 0
    failures = []
    for i, P in enumerate(polys):
        dp = P.degree
        for Q in polys[i + 1 :]:
            expected = reciprocity_index(ctx, dp, Q.degree).k
            s_pq = _norm_index(ctx, P.coeffs, Q)
            s_qp = _norm_index(ctx, Q.coeffs, P)
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
        size = f.q**deg
        raws = [list(from_code(f, code).coeffs) for code in range(size)]
        for P in monic_irreducibles(f, deg):
            moduli += 1
            mod = P.coeffs
            ks = [0] * size
            for code in range(1, size):
                ks[code] = symbol(ctx, from_code(f, code), P).k
            residues += size - 1
            if set(ks[1:]) != set(range(d)):
                surj_failures.append(P)
            q = f.q
            for ca in range(1, size):
                ka = ks[ca]
                ra = raws[ca]
                for cb in range(ca, size):
                    prod = _mul_raw(f, ra, raws[cb], mod)
                    code = 0
                    for c in reversed(prod):
                        code = code * q + c
                    products += 1
                    if ks[code] != (ka + ks[cb]) % d:
                        mult_failures.append((P, ca, cb))
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
