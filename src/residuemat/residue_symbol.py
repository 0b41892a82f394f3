"""Power residue symbols over F_q[t], the reciprocity sign, and residue matrices.

The d-th power residue symbol of a modulo a monic irreducible P (with
gcd(a, P) = 1) is the unique d-th root of unity congruent to
a^((|P| - 1)/d) mod P, where |P| = q^deg(P).  It is returned as a
RootIndex exponent of the fixed primitive root zeta = g^((q-1)/d), so all
downstream arithmetic is integer arithmetic mod d.

Rather than exponentiating by (|P| - 1)/d directly, symbol() first takes
the residue-field norm N(a) = a^(1 + q + ... + q^(deg P - 1)) mod P down
to F_q — cheap because the q-power Frobenius is F_q-linear, so its matrix
is precomputed once per modulus — and then raises the norm to (q - 1)/d
inside F_q, where exponentiation is a table lookup.  The two routes agree
because ((q^n - 1)/(q - 1)) * ((q - 1)/d) = (q^n - 1)/d exactly.

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
    _mulmod_raw,
    _pow_raw,
    _trim,
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

    Equals root_index_of(a^((|P| - 1)/d) mod P).  Errors if a is divisible
    by P (the symbol is undefined, not zero) or P is not monic irreducible.
    """
    _check_modulus(ctx, P)
    if a.field != ctx.field:
        raise ValueError("argument belongs to a different field")
    r = a % P
    if r.is_zero():
        raise ValueError("symbol undefined: a divisible by P")
    f = ctx.field
    c = _residue_norm(r, P)
    return root_index_of(f, ctx.d, f.pow(c, (f.q - 1) // ctx.d))


def _frobenius_basis(P: Poly):
    """Images t^(iq) mod P for i < deg P, cached on the modulus instance."""
    if P._frob is None:
        f = P.field
        mod = P.coeffs
        xq = _pow_raw(f, [0, 1], f.q, mod)
        basis = [[1], xq]
        for _ in range(2, len(mod) - 1):
            basis.append(_mulmod_raw(f, basis[-1], xq, mod))
        P._frob = basis
    return P._frob


def _apply_frobenius(f: Field, a, basis, n):
    out = [0] * n
    add, mul = f.add, f.mul
    for i, c in enumerate(a):
        if c:
            bi = basis[i]
            if c == 1:
                for j, y in enumerate(bi):
                    if y:
                        out[j] = add(out[j], y)
            else:
                for j, y in enumerate(bi):
                    if y:
                        out[j] = add(out[j], mul(c, y))
    return _trim(out)


def _residue_norm(r: Poly, P: Poly) -> int:
    """Norm of the nonzero residue r into F_q: r^((|P| - 1)/(q - 1)) mod P."""
    n = len(P.coeffs) - 1
    if n == 1:
        return r.coeffs[0]
    f = P.field
    mod = P.coeffs
    basis = _frobenius_basis(P)
    out = list(r.coeffs)
    fr = out
    for _ in range(n - 1):
        fr = _apply_frobenius(f, fr, basis, n)
        out = _mulmod_raw(f, out, fr, mod)
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
            s_pq = symbol(ctx, P, Q).k
            s_qp = symbol(ctx, Q, P).k
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
                    prod = _mulmod_raw(f, ra, raws[cb], mod)
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
