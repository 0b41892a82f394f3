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

Reducing and swapping is Euclid's algorithm on (a, P), so a symbol costs
O(deg(P)^2) field operations.  The remainders are never made monic:
dividing by c*b leaves the same remainder as dividing by b, so only the
leading coefficient of each new numerator enters the index, once per
swap.

The route assumes the reciprocity law, so it cannot be what checks that
law.  verify_reciprocity() therefore computes every symbol by the
defining exponentiation instead, carried into one copy
K_n = F_q[t]/(Q_n) of GF(q^n) per degree n, built by
poly_ring._quotient_tables with Q_n the first irreducible of degree n.
For a monic irreducible Q of degree n with a root beta in K_n,
t -> beta is an isomorphism F_q[t]/(Q) -> K_n fixing F_q, so it carries
a^((|Q| - 1)/d) mod Q to a(beta)^((q^n - 1)/d).  With exp/log tables of
the smallest generator gamma of K_n^*, that is zeta^(s * log a(beta))
where zeta^s = gamma^((q^n - 1)/d).  One pass over the Frobenius orbits
{k q^i} of size n lists the Q's themselves: each orbit's minimal
polynomial is one Q, and its k is log beta.  So the check takes its
moduli from the orbits, not from the irreducibility test.  Each Q gets
one evaluation table at its root, t's root 0 taking the zero log -2M
(_step_tables): log v(beta) for every monic v of degree below max_deg,
level by level, one Zech logarithm step per entry, then at the top-degree
irreducibles only: sum_{j<max_deg} q^j + N table steps per modulus for
the N irreducibles, one lookup per ordered pair, and no reciprocity.

verify_symbol_structure() does call symbol(), once on every unit a mod
every such Q of degree <= its max_deg, and checks it against the same
definition in the same K_n (_orbit_moduli): symbol(a, Q) = s * log a(beta)
mod d, where log a(beta) for a = t*h + c is one Zech step from
log h(beta).  Every root of Q gives the same index, as q = 1 mod d.  As s
is a unit mod d, agreement makes symbol(., Q) a homomorphism onto Z/d, so
it covers every product of two units without forming one.

Before building any table, verify_reciprocity refuses more than
VERIFY_MAX_PAIRS ordered pairs, so the largest K_n is GF(2^12), and
verify_symbol_structure more than VERIFY_MAX_SYMBOLS symbol calls.
verify() checks both caps, then runs both checks.

The reciprocity law: for distinct monic irreducibles P and Q,
symbol(P, Q) - symbol(Q, P) = reciprocity_index(deg P, deg Q) mod d,
where the right side is the image of (-1)^((q-1) deg P deg Q / d) with -1
taken in F_q.  In characteristic 2 that value is 1, so the law is
symmetric no matter the parity of the exponent.
"""

from array import array
from dataclasses import dataclass

from .field_core import (
    Field,
    RootIndex,
    _check_d,
    _odd_law,
    _zech,
    root_index_of,
)
from .matrix_class import CycMatrix
from .poly_ring import (
    Poly,
    _code_raw,
    _quotient_tables,
    _rem_raw,
    count_monic_irreducibles,
    format_poly,
    from_code,
    is_irreducible,
)


class SymbolContext:
    """(field, d) pair with d | q - 1; both are fixed for its lifetime.

    _sieve is a cache and starts empty: realize puts its candidate sieve's
    one copy of GF(q^2) or GF(q) there on first use (realize._sieve_tables)."""

    __slots__ = ("field", "d", "_sieve")

    def __init__(self, field: Field, d: int):
        _check_d(field, d)
        self.field = field
        self.d = d
        self._sieve = None

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
    return RootIndex(_jacobi(ctx, a, P), ctx.d)


def _jacobi(ctx: SymbolContext, a: Poly, b: Poly) -> int:
    """Index of the Jacobi symbol (a/b)_d for monic b, by Euclid's
    algorithm and the reciprocity law; a need not be reduced mod b.  From
    the second step on the modulus rb stands for the monic rb / lead(rb).
    Raises ValueError if b | a; every caller's b is irreducible, so no
    later remainder can vanish."""
    f, d = ctx.field, ctx.d
    log = f.log
    # the reciprocity sign is d/2 on two odd degrees (reciprocity_index)
    signed = _odd_law(f.q, d)
    k = 0
    ra, rb = list(a.coeffs), b.coeffs
    while len(rb) > 1:
        ra = _rem_raw(f, ra, rb)
        if not ra:
            raise ValueError("symbol undefined: a divisible by P")
        deg_b = len(rb) - 1
        lead = ra[-1]
        k += log[lead] * deg_b
        if len(ra) == 1:
            break
        if signed and deg_b % 2 and (len(ra) - 1) % 2:
            k += d // 2
        # the law swaps the monic sides, but the next numerator is rb
        # itself: take out (lead(rb)/ra), the index log lead(rb) * deg ra
        k -= log[rb[-1]] * (len(ra) - 1)
        ra, rb = list(rb), ra
    return k % d


# -- the defining exponentiation, the oracle of both verify checks ------------


def _orbit_moduli(ctx: SymbolContext, max_deg: int):
    """(polys, roots, fields) for both verify checks: polys is every monic
    irreducible of degree <= max_deg in enumerate_monic order, read off the
    Frobenius orbits of K_n (_root_logs); roots[i] is (n, log beta), beta a
    root of polys[i] in K_n (the zero log -2M for t); fields[n] is K_n's
    _step_tables, logs of 1..q-1, M = q^n - 1 and s, zeta^s = gamma^(M/d)."""
    f, d, q = ctx.field, ctx.d, ctx.field.q
    polys, roots, fields = [], [], {}
    for n in range(1, max_deg + 1):
        _, _, exp, log = _quotient_tables(f, n)
        zech = _zech(f.p, exp, log)
        M = len(exp)
        # gamma^((q^n - 1)/d) lies in F_q: it is zeta^s
        s = root_index_of(f, d, exp[M // d % M]).k
        # the constant c of F_q has code c in K_n
        fields[n] = (*_step_tables(M, zech), log[1:q], M, s)
        found = _root_logs(f, n, exp, log, zech)
        if len(found) != count_monic_irreducibles(f, n):
            raise ArithmeticError(f"the orbits of K_{n} missed an irreducible")
        ordered = sorted(found)
        polys += [Poly._make(f, list(c)) for c in ordered]
        roots += [(n, found[c]) for c in ordered]
    return polys, roots, fields


def _exponent_oracle(ctx: SymbolContext, max_deg: int):
    """(polys, cols): polys is _orbit_moduli's; cols[j][i] is the index of
    P_i^((|P_j| - 1)/d) mod P_j for i != j (0 for i = j), by discrete
    logarithms in K_n; no reciprocity.

    Column j is one evaluation table at a root beta of P_j.  Level l holds
    log v(beta) for every monic v of degree l < max_deg, in monic_from_code
    order, where v = t*u + c sits at c*q^(l-1) + code(u): so each level
    comes from the one below by one Zech step per entry, log(beta*u(beta)
    + c).  The top degree is evaluated only at its irreducibles.  A column
    costs sum_{l<max_deg} q^l + N table steps for the N irreducibles, and
    a pair one lookup; each column is an array of indices mod d."""
    d, q = ctx.d, ctx.field.q
    polys, roots, fields = _orbit_moduli(ctx, max_deg)
    # each irreducible's monic code, constant most significant, by degree
    codes = [[] for _ in range(max_deg)]
    for P in polys:
        codes[P.degree - 1].append(_code_raw(q, P.coeffs[-2::-1]))
    # the top degree's irreducibles t*u + c, as code(u), grouped by c
    top = [[] for _ in range(q)]
    for code in codes.pop():
        c, r = divmod(code, q ** (max_deg - 1))
        top[c].append(r)
    typecode = "B" if d <= 1 << 8 else "H" if d <= 1 << 16 else "L"
    cols = []
    for pos, (n, lb) in enumerate(roots):
        T, R, lcs, M, s = fields[n]
        shifts = [(lc, _shift(lb, lc, M)) for lc in lcs]
        level = [0]
        col = []
        # codes now holds the irreducibles below the top degree
        for low in codes:
            nxt = [R[x + lb] for x in level]
            for lc, sh in shifts:
                nxt += [lc + T[x + sh] for x in level]
            level = nxt
            col += [level[r] for r in low]
        col += [R[level[r] + lb] for r in top[0]]
        for (lc, sh), rs in zip(shifts, top[1:]):
            col += [lc + T[level[r] + sh] for r in rs]
        # P_pos vanishes at its own root, and no other irreducible may
        col[pos] = 0
        if min(col) < 0:
            raise ValueError("symbol undefined: a divisible by Q")
        # d divides M, so the logs need no reduction mod M first
        cols.append(array(typecode, [s * x % d for x in col]))
    return polys, cols


def _step_tables(M: int, zech):
    """(T, R) for one K_n with M = q^n - 1 units.  A log x lies in
    [0, 2M - 1); 0 is coded by any x in [-2M, -M), and the root beta = 0 by
    lb = -2M, so a zero-coded sum lies in [-4M, 0), the tails.  Then
    R[x + lb] is log(beta * v) and, for c != 0 with lc = log c,
    lc + T[x + _shift(lb, lc, M)] is log(beta * v + c), for x = log v."""
    zero = -2 * M
    T = [z if z >= 0 else zero for z in zech] * 3 + [0] * (4 * M)
    R = list(range(M)) * 3 + [zero] * (4 * M)
    return T, R


def _shift(lb: int, lc: int, M: int) -> int:
    """(lb - lc) % M, or -2M at the root 0, where T's tail reads log 1."""
    return lb if lb < 0 else (lb - lc) % M


def _root_logs(f: Field, n: int, exp, log, zech):
    """Map the coefficients of every monic irreducible Q of degree n to
    log_gamma of one of its roots in K_n; at n = 1, t's root 0 has log -2M.

    The roots of a degree-n irreducible are one Frobenius orbit
    gamma^(k q^i), i < n, of exact size n; its minimal polynomial
    prod (X - gamma^(k q^i)) has coefficients in F_q and is that Q."""
    q, M = f.q, len(exp)
    lneg = log[f.neg(1)]
    out = {(0, 1): -2 * M} if n == 1 else {}
    seen = bytearray(M)
    for k in range(M):
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
        out[tuple(0 if lc is None else exp[lc % M] for lc in c)] = k
    return out


def reciprocity_index(ctx: SymbolContext, deg_p: int, deg_q: int) -> RootIndex:
    """Index of the reciprocity sign phi((-1)^((q-1) deg_p deg_q / d)): d/2
    when -1 is not a d-th power (field_core._odd_law) and both degrees are
    odd, else 0."""
    if deg_p < 1 or deg_q < 1:
        raise ValueError("degrees must be >= 1")
    d = ctx.d
    odd = _odd_law(ctx.field.q, d) and deg_p % 2 == 1 and deg_q % 2 == 1
    return RootIndex(d // 2 if odd else 0, d)


def residue_matrix(ctx: SymbolContext, polys) -> CycMatrix:
    """CycMatrix with entry (i, j) = symbol(P_i, P_j) for i != j.

    One symbol is computed per unordered pair: entry (j, i) follows from
    (i, j) by the reciprocity law, since the transposed Euclid run would
    repeat the same remainders from its second step on."""
    polys = list(polys)
    if not polys:
        raise ValueError("at least one polynomial required")
    if len(set(polys)) != len(polys):
        raise ValueError("duplicate polynomials in residue matrix input")
    for P in polys:
        _check_modulus(ctx, P)
    n, d = len(polys), ctx.d
    entries = [[None] * n for _ in range(n)]
    for i, Pi in enumerate(polys):
        for j in range(i + 1, n):
            Pj = polys[j]
            k = symbol(ctx, Pi, Pj).k
            entries[i][j] = k
            entries[j][i] = (k - reciprocity_index(ctx, Pi.degree, Pj.degree).k) % d
    return CycMatrix(n, d, entries)


# -- exhaustive self-checks (the verification front ends) ---------------------

VERIFY_MAX_PAIRS = 1_000_000
# the structure check makes one symbol() call per unit; its slowest run
# under 10^5 is GF(3)/2 to degree 6 (97,742 calls), 1.0-1.6 s on a 2-vCPU Xeon
VERIFY_MAX_SYMBOLS = 100_000
# verify() runs the structure check to at most this degree
VERIFY_STRUCTURE_DEG = 2


def _check_pairs(f: Field, max_deg: int) -> None:
    """Refuse max_deg < 1, or N(N - 1) > VERIFY_MAX_PAIRS for the N monic
    irreducibles of degree <= max_deg, counting only until past the cap."""
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    n = 0
    for k in range(1, max_deg + 1):
        n += count_monic_irreducibles(f, k)
        if n * (n - 1) > VERIFY_MAX_PAIRS:
            raise ValueError(
                f"reciprocity check to max_deg {max_deg} needs at least "
                f"{n * (n - 1)} ordered pairs, above the bound {VERIFY_MAX_PAIRS}"
            )


def _check_symbols(f: Field, max_deg: int) -> None:
    """Refuse max_deg < 1, or more than VERIFY_MAX_SYMBOLS symbol calls,
    |P| - 1 per monic irreducible P of degree <= max_deg."""
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    total = 0
    for k in range(1, max_deg + 1):
        total += count_monic_irreducibles(f, k) * (f.q**k - 1)
        if total > VERIFY_MAX_SYMBOLS:
            raise ValueError(
                f"structure check to max_deg {max_deg} needs at least {total} "
                f"symbol calls, above the bound {VERIFY_MAX_SYMBOLS}"
            )


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
    """Check symbol(P, Q) - symbol(Q, P) = reciprocity_index(deg P, deg Q)
    on every ordered pair of distinct monic irreducibles of degree <=
    max_deg, reported in enumerate_monic order.  Never calls symbol(): each
    side is the defining exponentiation, by logarithms in GF(q^deg Q), and
    the irreducibles are the minimal polynomials of its Frobenius orbits.
    Each modulus costs one evaluation table at one of its roots, and each
    ordered pair one lookup in it (_exponent_oracle).  Capped by
    VERIFY_MAX_PAIRS."""
    _check_pairs(ctx.field, max_deg)
    f, d = ctx.field, ctx.d
    polys, cols = _exponent_oracle(ctx, max_deg)
    degs = [len(P.coeffs) - 1 for P in polys]
    # the law's right side depends only on the two degrees: one row per degree
    signs = {}
    for a in range(1, max_deg + 1):
        by_deg = [reciprocity_index(ctx, a, b).k for b in range(1, max_deg + 1)]
        signs[a] = [by_deg[b - 1] for b in degs]
    found = []
    # row i minus column i: symbol(P_i, P_j) - symbol(P_j, P_i) for every j
    for i, (row, col) in enumerate(zip(zip(*cols), cols)):
        want = signs[degs[i]]
        got = [(a - b) % d for a, b in zip(row, col)]
        got[i] = want[i]
        if got != want:
            found += [(i, j, g, w) for j, (g, w) in enumerate(zip(got, want)) if g != w]
    # each unordered pair once, in order, (P, Q) before (Q, P)
    found.sort(key=lambda e: (min(e[:2]), max(e[:2]), e[0] > e[1]))
    n = len(polys)
    return ReciprocityReport(
        q=f.q,
        d=d,
        max_deg=max_deg,
        pairs=n * (n - 1),
        failures=tuple((polys[i], polys[j], g, w) for i, j, g, w in found),
    )


@dataclass(frozen=True)
class SymbolStructureReport:
    """Exhaustive check of the symbol against its definition at the unit
    residues mod every monic irreducible of degree <= max_deg.  products
    counts the unordered unit pairs it covers, |P|(|P| - 1)/2 per modulus;
    failures hold (P, a, got, expected)."""

    q: int
    d: int
    max_deg: int
    moduli: int
    residues: int
    products: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_symbol_structure(
    ctx: SymbolContext, max_deg: int = VERIFY_STRUCTURE_DEG
) -> SymbolStructureReport:
    """Check symbol(a, P) = s * log a(beta) mod d (module docstring) at every
    unit a mod every monic irreducible P of degree <= max_deg, one symbol()
    call per unit.  Failures are in enumeration order of P, then by residue
    code of a.  Capped by VERIFY_MAX_SYMBOLS."""
    _check_symbols(ctx.field, max_deg)
    f, d = ctx.field, ctx.d
    polys, roots, fields = _orbit_moduli(ctx, max_deg)
    residues = products = 0
    failures = []
    for P, (n, lb) in zip(polys, roots):
        T, R, lcs, M, s = fields[n]
        shifts = [(lc, _shift(lb, lc, M)) for lc in lcs]
        # log a(beta) for the residues a = c + q*h in from_code order, one
        # step from log h(beta) each; log 0 is -2M (_step_tables)
        logs = [-2 * M]
        for _ in range(n):
            by_c = [[R[x + lb] for x in logs]]
            by_c += [[lc + T[x + sh] for x in logs] for lc, sh in shifts]
            logs = [y for ys in zip(*by_c) for y in ys]
        residues += M
        products += M * (M + 1) // 2
        want = [s * x % d for x in logs]
        got = [symbol(ctx, from_code(f, c), P).k for c in range(1, M + 1)]
        bad = [c for c, k in enumerate(got, 1) if k != want[c]]
        failures += [(P, from_code(f, c), got[c - 1], want[c]) for c in bad]
    return SymbolStructureReport(
        q=f.q,
        d=d,
        max_deg=max_deg,
        moduli=len(polys),
        residues=residues,
        products=products,
        failures=tuple(failures),
    )


def verify(ctx: SymbolContext, max_deg: int):
    """verify_reciprocity to max_deg and verify_symbol_structure to
    min(max_deg, VERIFY_STRUCTURE_DEG), both caps checked before either runs."""
    struct_deg = min(max_deg, VERIFY_STRUCTURE_DEG)
    _check_pairs(ctx.field, max_deg)
    _check_symbols(ctx.field, struct_deg)
    return verify_reciprocity(ctx, max_deg), verify_symbol_structure(ctx, struct_deg)
