"""Constructive realization of admissible matrices by tuples of irreducibles.

realize() inverts classify(): given a matrix the classification accepts, it
produces distinct monic irreducible polynomials whose residue matrix equals
the input exactly.  The construction is inductive.  Working in the
permuted order from the classification, each new polynomial P_{k+1} must
show prescribed symbols over the earlier ones, so for each j <= k a
nonzero residue u_j mod P_j with the target symbol is chosen, the
congruences are merged by the Chinese Remainder Theorem into
u0 mod Q = P_1 ... P_k, and candidates P = Q h + u0 are scanned for an
irreducible — which exists at a large enough degree by the function-field
analogue of Dirichlet's theorem on primes in arithmetic progressions.
Position 1 runs the same step with no congruence: its class is 0 mod 1,
so the scan starts at degree 1 and returns t.
The entries on the other side of the diagonal are then forced to be
correct by the reciprocity law together with the block structure of the
input matrix.

Before Ben-Or, a sieve skips every candidate of degree >= 4 with a monic
irreducible factor l of degree <= 2 and q^deg l <= SIEVE_MAX_NORM
(_ClassSieve): roots and quadratic factors for q <= 16, roots alone for
q <= 256.  Below degree 4 Ben-Or is a root test anyway.  At a root beta
of l, P(beta) = 0 iff h(beta) = -u0(beta)/Q(beta).  Q and u0 are
evaluated at the betas once per position, for every degree it scans, and
one step per beta then rejects constant coefficients of h at once.
All betas, t's root 0 among them as the zero log, lie in verify's copy of
GF(q^2) or GF(q) (_sieve_tables), built once per SymbolContext.
The sieve only rejects, and a rejected candidate still counts as tested.
A survivor goes to Ben-Or started past the factor degrees the sieve
excluded (poly_ring._ben_or's past), so every Realization is the one
is_irreducible alone would give.

Each position reuses the earlier ones' CRT work: Garner's mixed-radix
fold (_garner, shared with crt_combine) keeps the prefix products
P_1 ... P_(j-1) and their inverses mod P_j, each computed once per
realization, on first use.  The deterministic residue scan reads a
constant's index off the log table.

On the odd-law branch the first s positions (permuted order) take odd
degrees and the rest even degrees; the symmetric branch needs no parity
control.  The final matrix equality is rechecked, never trusted.

Everything is reproducible: deterministic mode scans residues and
candidates in enumeration order, and random mode draws from a
random.Random seeded by the options (position 1 keeps the enumeration
order in both modes), so a fixed option set always yields the identical
Realization.
"""

import random
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

from .matrix_class import ODD_LAW, CycMatrix, classify
from .poly_ring import (
    MAX_POLY_DEGREE,
    Poly,
    _ben_or,
    _inv_raw,
    format_poly,
    from_code,
    is_irreducible,
    monic_from_code,
    norm,
    one,
    zero,
)
from .residue_symbol import SymbolContext, _jacobi, _orbit_moduli, _shift, residue_matrix


class RealizeError(Exception):
    """Base class for realization failures."""


class NotRealizableError(RealizeError):
    """The input matrix fails the classification, so no tuple exists."""


class ResourceExhaustedError(RealizeError):
    """The degree cutoff was hit before an irreducible appeared."""


@dataclass(frozen=True)
class RealizeOptions:
    """Search-strategy knobs.

    deterministic=True scans residues and candidate polynomials in
    enumeration order; otherwise both are sampled via seed.  Degrees are
    not configurable: each position starts at deg Q + 1 for the CRT modulus
    Q of the earlier polynomials (so at 1 for the first), raised by one
    where the odd law needs the other parity, and climbs to max_degree.
    """

    seed: int = 0
    max_degree: int = 40
    deterministic: bool = True

    def __post_init__(self):
        if self.max_degree < 2:
            raise ValueError("max_degree must be >= 2")
        if self.max_degree > MAX_POLY_DEGREE:
            raise ValueError(
                f"max_degree {self.max_degree} exceeds the degree bound {MAX_POLY_DEGREE}"
            )


@dataclass(frozen=True)
class ResidueChoice:
    """One congruence condition: symbol(residue, modulus) = target index."""

    modulus: Poly
    target: int
    residue: Poly
    trials: int


@dataclass(frozen=True)
class RealizeStep:
    """Record of the construction of the polynomial at one permuted position."""

    position: int  # 1-based position in the permuted order
    residues: tuple
    crt_residue: Optional[Poly]
    crt_modulus: Optional[Poly]
    degrees_tried: tuple
    candidates_tested: int
    chosen: Poly


@dataclass(frozen=True)
class Realization:
    """A realizing tuple in the original matrix order, plus its transcript."""

    polys: tuple
    branch: str
    s: Optional[int]
    sigma: tuple
    transcript: tuple

    def to_json_dict(self) -> dict:
        """Every field under its own name, sigma 1-based (_json_value)."""
        out = _json_value(self)
        out["sigma"] = [i + 1 for i in self.sigma]
        return out


def _json_value(x):
    """x as JSON data: a dataclass as the dict of its fields, a tuple as a
    list and a Poly as its format_poly text; anything else is itself."""
    if isinstance(x, Poly):
        return format_poly(x)
    if isinstance(x, tuple):
        return [_json_value(v) for v in x]
    if is_dataclass(x):
        return {f.name: _json_value(getattr(x, f.name)) for f in fields(x)}
    return x


# -- the three building blocks ------------------------------------------------


def _choose_residue(ctx: SymbolContext, P: Poly, target_k: int, rng):
    """(residue, trials) with symbol(residue, P) = target_k, by _jacobi: each
    code below |P| is a reduced unit.  rng=None scans the codes in order,
    reading the index log c * deg P mod d of each constant c < q off the
    log table, as _jacobi computes it; otherwise max(1000, 200 d) seeded
    draws come first, and past them the scan's residue is returned with the
    draws' count."""
    f = ctx.field
    size = norm(P)
    if rng is None:
        e, d, log = P.degree, ctx.d, f.log
        for c in range(1, f.q):
            if log[c] * e % d == target_k:
                return from_code(f, c), c
        # the scan's trials count is its code
        first, codes = f.q, range(f.q, size)
    else:
        first = 1
        codes = (rng.randrange(1, size) for _ in range(max(1000, 200 * ctx.d)))
    for trials, code in enumerate(codes, first):
        u = from_code(f, code)
        if _jacobi(ctx, u, P) == target_k:
            return u, trials
    if rng is None:
        raise RealizeError(
            "no residue with the requested symbol; surjectivity violated "
            "(implementation bug)"
        )
    return _choose_residue(ctx, P, target_k, None)[0], trials


def crt_combine(pairs):
    """Merge congruences u = u_j mod P_j into (u0, Q) with Q the product.

    The moduli must be pairwise distinct monic irreducibles and each u_j
    already reduced (deg u_j < deg P_j); u0 is the unique representative
    with deg u0 < deg Q.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("at least one congruence required")
    f = pairs[0][1].field
    moduli = [P for _, P in pairs]
    if len(set(moduli)) != len(moduli):
        raise ValueError("repeated moduli in CRT input")
    for u, P in pairs:
        if u.field != f or P.field != f:
            raise ValueError("mixed fields in CRT input")
        if not P.is_monic() or P.degree < 1 or not is_irreducible(P):
            raise ValueError(f"modulus must be monic irreducible: {format_poly(P)}")
        if not u.degree < P.degree:
            raise ValueError(
                f"residue {format_poly(u)} not reduced mod {format_poly(P)}"
            )
    return _garner(f, pairs, [one(f)], [])


def _garner(f, pairs, prods, invs):
    """crt_combine's (u0, Q) by Garner's mixed-radix fold: one congruence
    at a time into u0 mod Q, starting from 0 mod 1.  prods[j] is
    P_1 ... P_j (prods[0] = 1) and invs[j] is prods[j]^(-1) mod P_(j+1);
    both are extended in place on first use, so realize, whose positions
    share their leading moduli, computes each once per realization."""
    u0 = zero(f)
    for j, (u, P) in enumerate(pairs):
        if j == len(invs):
            g, inv = _inv_raw(f, (prods[j] % P).coeffs, P.coeffs)
            if g != [1]:
                raise ValueError("moduli are not coprime")  # unreachable for primes
            invs.append(Poly._make(f, inv))
            prods.append(prods[j] * P)
        u0 = u0 + prods[j] * ((u - u0) * invs[j] % P)
    return u0, prods[len(pairs)]


def _find_irreducible(ctx: SymbolContext, u0: Poly, Q: Poly, degrees, rng):
    """(P, candidates_tested, degrees_tried): the first monic irreducible
    P = Q h + u0 over monic h, at each degree of the sequence degrees in
    turn, in enumeration order (rng=None) or an rng-shuffled order; P is
    None if none has one.

    One _ClassSieve serves every degree.  A candidate it rejects has a
    root or a quadratic factor and counts as tested without being built.
    Every other candidate takes its verdict from is_irreducible; where the
    sieve ran, Ben-Or (_ben_or) is started past the factor degrees it
    excluded and its verdict cached on P first, so the result is what
    is_irreducible alone would give.

    Search only: Q must be monic, u0 reduced mod Q and coprime to it, and
    every degree >= deg Q.  realize meets all three through Garner's fold
    over nonzero residues and starts at degree deg Q + 1."""
    f = Q.field
    sieve = _ClassSieve(ctx, u0, Q)
    tested = 0
    for k, degree in enumerate(degrees, 1):
        hdeg = degree - Q.degree
        space = f.q**hdeg
        if rng is None:
            codes = range(space)
        elif space <= (1 << 16):
            codes = list(range(space))
            rng.shuffle(codes)
        else:
            codes = _random_codes(space, rng)
        # with hdeg = 0 the class has the one candidate Q + u0, and below
        # degree 4 Ben-Or is a root test anyway
        past = sieve.past if hdeg >= 1 and degree >= 4 else 0
        low, masks = f.q ** max(hdeg - 1, 0), {}
        for code in codes:
            tested += 1
            if past:
                c0, r = divmod(code, low)
                mask = masks.get(r)
                if mask is None:
                    mask = masks[r] = sieve.mask(r, hdeg - 1)
                if mask >> c0 & 1:
                    continue
            P = Q * monic_from_code(f, hdeg, code) + u0
            if past:
                P._irred = _ben_or(f, P.coeffs, past)
            if is_irreducible(P):
                return P, tested, tuple(degrees[:k])
    return None, tested, tuple(degrees)


def _random_codes(space: int, rng):
    seen = set()
    while len(seen) < space:
        code = rng.randrange(space)
        if code not in seen:
            seen.add(code)
            yield code


# -- the small-factor sieve ---------------------------------------------------

# The sieve tests candidates against the monic irreducibles l of degree <= 2
# with norm(l) = q^deg l at most this (BENCH_sieve.json, limit).
SIEVE_MAX_NORM = 256


def _sieve_tables(ctx: SymbolContext):
    """The sieve's record for one copy K_e of GF(q^e), built on first use
    and cached on ctx: e = 2 when q^2 <= SIEVE_MAX_NORM, e = 1 when q is,
    and () above; read off residue_symbol._orbit_moduli(ctx, e).

    The record is (e, M, T, R, steps, lbs, bits).  M = q^e - 1 and T, R
    are K_e's step tables (_step_tables).  lbs holds log beta for the
    q - 1 roots beta of the factors t - c, c != 0, then for e = 2 one root
    of each monic irreducible quadratic, and t's root 0 as the zero log
    -2M.  On a log x of v(beta), v -> beta v + c is R[x + lb] for c = 0
    and lc + T[x + shs[i]] otherwise, with (lc, shs) = steps[c].  bits[z]
    is 1 << c where z is a log of -c for a constant c, 0 included, and 0
    off F_q."""
    if ctx._sieve is None:
        f = ctx.field
        e = 2 if f.q**2 <= SIEVE_MAX_NORM else 1 if f.q <= SIEVE_MAX_NORM else 0
        ctx._sieve = ()
        if e:
            _, roots, fields = _orbit_moduli(ctx, e)
            T, R, lcs, M, _ = fields[e]
            lbs = lcs + [lb for n, lb in roots if n == 2] + [-2 * M]
            steps = [None] + [(lc, [_shift(lb, lc, M) for lb in lbs]) for lc in lcs]
            bits = [0] * M
            for c, lc in enumerate(lcs, 1):
                bits[lc] = 1 << f.neg(c)
            # a log lies in [0, 2M - 1), and 0 is coded by [-2M, -M)
            bits += bits + [1] * (2 * M)
            ctx._sieve = (e, M, T, R, steps, lbs, bits)
    return ctx._sieve


def _horner(T, R, steps, lbs, xs, digits):
    """The logs of v(beta) after v -> beta v + c for each c of digits in
    turn, at every beta of lbs, from the logs xs of v(beta)."""
    for c in digits:
        if c:
            lc, shs = steps[c]
            xs = [lc + T[x + sh] for x, sh in zip(xs, shs)]
        else:
            xs = [R[x + lb] for x, lb in zip(xs, lbs)]
    return xs


class _ClassSieve:
    """One class P = Q h + u0, set up once for all its degrees: which
    candidates have a monic irreducible factor l of degree <= 2 that
    _sieve_tables covers (_find_irreducible asks only from degree 4 up).

    Write h = t w + c0 with w monic.  At a root beta of l,
    P(beta) = Q(beta) h(beta) + u0(beta).  Where Q(beta) = 0 that is
    u0(beta) != 0, as u0 is coprime to Q.  At the other, live betas
    P(beta) = 0 iff -c0 = beta w(beta) - tau, tau = -u0(beta)/Q(beta):
    one Horner step from log w(beta) that adds -tau (adds), or only
    multiplies by beta where tau = 0 (scales), gives log(-c0).  So the
    set-up takes a Horner pass over Q and one over u0, and keeps each live
    beta's step by its index into the record's lbs.

    c0 is the most significant digit of h's code (monic_from_code) and the
    rest r is w's code.  So mask(r, n), for w of degree n, is one Horner
    pass over w's digits at every beta and one step per live beta: the
    bitmask of the c0 to reject for every code that shares r.  t's root 0
    takes the same steps in the zero log.

    past is the largest factor degree excluded for every candidate, for
    _ben_or: e for the record's K_e, or 0 where there is none."""

    def __init__(self, ctx: SymbolContext, u0: Poly, Q: Poly):
        self.q = Q.field.q
        self.past = 0
        record = _sieve_tables(ctx)
        if not record:
            return
        self.past, M, T, R, steps, lbs, _ = self.record = record
        zero = [-2 * M] * len(lbs)
        lq = _horner(T, R, steps, lbs, zero, reversed(Q.coeffs))
        lu = _horner(T, R, steps, lbs, zero, reversed(u0.coeffs))
        live = [i for i, x in enumerate(lq) if x >= 0]
        lts = [(i, (lu[i] - lq[i]) % M) for i in live if lu[i] >= 0]
        self.adds = [(i, lt, _shift(lbs[i], lt, M)) for i, lt in lts]
        self.scales = [(i, lbs[i]) for i in live if lu[i] < 0]

    def mask(self, r: int, n: int) -> int:
        q = self.q
        digits = []
        for _ in range(n):
            r, c = divmod(r, q)
            digits.append(c)
        _, _, T, R, steps, lbs, bits = self.record
        xs = _horner(T, R, steps, lbs, [0] * len(lbs), digits)
        mask = 0
        for i, lt, sh in self.adds:
            mask |= bits[lt + T[xs[i] + sh]]
        for i, lb in self.scales:
            mask |= bits[R[xs[i] + lb]]
        return mask


# -- the inductive construction ----------------------------------------------


def realize(ctx: SymbolContext, M: CycMatrix, opts: Optional[RealizeOptions] = None) -> Realization:
    """A tuple of distinct monic irreducibles with residue matrix exactly M.

    Each position picks its residues with _choose_residue, merges them with
    _garner (crt_combine's fold, without its checks of the moduli, which
    hold by construction) and scans the class with _find_irreducible.  The
    residue matrix of the result is recomputed and compared with M before
    it is returned.

    Raises NotRealizableError when classify rejects M and
    ResourceExhaustedError if the degree schedule passes opts.max_degree
    (not expected mathematically; the cutoff bounds the computation).
    """
    if opts is None:
        opts = RealizeOptions()
    if M.d != ctx.d:
        raise ValueError(f"matrix has d = {M.d} but context has d = {ctx.d}")
    cls = classify(M, ctx.field.q)
    if not cls.realizable:
        detail = (
            f"pair {tuple(i + 1 for i in cls.witness_pair)}"
            if cls.witness_pair is not None
            else f"M Mbar diagonal {list(cls.witness_diagonal or ())}"
        )
        raise NotRealizableError(
            f"matrix is not realizable ({cls.branch} branch): witness {detail}"
        )
    f = ctx.field
    n = M.n
    if cls.branch == ODD_LAW:
        sigma, s = cls.sigma, cls.s
        # permuted position i needs odd degree iff i < s
        parity = [1 if i < s else 0 for i in range(n)]
    else:
        sigma, s = tuple(range(n)), None
        parity = [None] * n
    rng = None if opts.deterministic else random.Random(opts.seed)

    polys_p = []
    steps = []
    # Garner's prefix products and inverses: each earlier modulus enters
    # them once, on first use
    prods, invs = [one(f)], []
    for k in range(n):
        choices = []
        for j in range(k):
            target = M.entries[sigma[k]][sigma[j]]
            u, trials = _choose_residue(ctx, polys_p[j], target, rng)
            choices.append(
                ResidueChoice(
                    modulus=polys_p[j], target=target, residue=u, trials=trials
                )
            )
        # each u_j is a nonzero residue, so u0 is coprime to Q and no
        # candidate P = u_j mod P_j can repeat an earlier P_j
        pairs = [(c.residue, c.modulus) for c in choices]
        u0, Q = _garner(f, pairs, prods, invs)
        req = parity[k]
        D = Q.degree + 1
        if req is not None and D % 2 != req:
            D += 1
        # position 1 scans in enumeration order in either mode: t comes first
        scan = rng if pairs else None
        degrees = range(D, opts.max_degree + 1, 1 if req is None else 2)
        chosen, tested, tried = _find_irreducible(ctx, u0, Q, degrees, scan)
        if chosen is None:
            raise ResourceExhaustedError(
                f"no irreducible in the class up to max_degree = {opts.max_degree} "
                f"at position {k + 1}"
            )
        polys_p.append(chosen)
        steps.append(
            RealizeStep(
                position=k + 1,
                residues=tuple(choices),
                crt_residue=u0 if pairs else None,
                crt_modulus=Q if pairs else None,
                degrees_tried=tried,
                candidates_tested=tested,
                chosen=chosen,
            )
        )
    polys = [None] * n
    for i, P in enumerate(polys_p):
        polys[sigma[i]] = P
    if residue_matrix(ctx, polys) != M:
        raise RealizeError(
            "internal error: recomputed residue matrix differs from the input"
        )
    return Realization(
        polys=tuple(polys),
        branch=cls.branch,
        s=s,
        sigma=sigma,
        transcript=tuple(steps),
    )
