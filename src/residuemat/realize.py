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
from dataclasses import dataclass
from typing import Optional

from .matrix_class import (
    ODD_LAW,
    CycMatrix,
    classify,
    conjugate_by_permutation,
)
from .poly_ring import (
    Poly,
    _xgcd_raw,
    format_poly,
    from_code,
    is_irreducible,
    monic_from_code,
    norm,
    one,
    zero,
)
from .residue_symbol import SymbolContext, residue_matrix, symbol


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
        return {
            "polys": [format_poly(P) for P in self.polys],
            "branch": self.branch,
            "s": self.s,
            "sigma": [i + 1 for i in self.sigma],
            "transcript": [
                {
                    "position": st.position,
                    "residues": [
                        {
                            "modulus": format_poly(c.modulus),
                            "target": c.target,
                            "residue": format_poly(c.residue),
                            "trials": c.trials,
                        }
                        for c in st.residues
                    ],
                    "crt_residue": None
                    if st.crt_residue is None
                    else format_poly(st.crt_residue),
                    "crt_modulus": None
                    if st.crt_modulus is None
                    else format_poly(st.crt_modulus),
                    "degrees_tried": list(st.degrees_tried),
                    "candidates_tested": st.candidates_tested,
                    "chosen": format_poly(st.chosen),
                }
                for st in self.transcript
            ],
        }


# -- the three building blocks ------------------------------------------------


def _choose_residue(ctx: SymbolContext, P: Poly, target_k: int, rng):
    """(residue, trials) with symbol(residue, P) = target_k; rng=None scans."""
    f = ctx.field
    size = norm(P)
    if rng is None:
        for code in range(1, size):
            u = from_code(f, code)
            if symbol(ctx, u, P).k == target_k:
                return u, code
        raise RealizeError(
            "no residue with the requested symbol; surjectivity violated "
            "(implementation bug)"
        )
    cutoff = max(1000, 200 * ctx.d)
    trials = 0
    while trials < cutoff:
        trials += 1
        u = from_code(f, rng.randrange(1, size))
        if symbol(ctx, u, P).k == target_k:
            return u, trials
    u, _ = _choose_residue(ctx, P, target_k, None)
    return u, trials


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
    # fold one congruence at a time into u0 mod Q, starting from 0 mod 1
    u0, Q = zero(f), one(f)
    for u, P in pairs:
        g, inv, _ = _xgcd_raw(f, (Q % P).coeffs, P.coeffs)
        if g != [1]:
            raise ValueError("moduli are not coprime")  # unreachable for primes
        u0 = u0 + Q * ((u - u0) * Poly._make(f, inv) % P)
        Q = Q * P
    return u0, Q


def _find_irreducible(u0: Poly, Q: Poly, degree: int, rng):
    """(P, candidates_tested): the first monic irreducible P = Q h + u0 of
    the given degree over monic h, in enumeration order (rng=None) or an
    rng-shuffled order, or (None, tested) when the degree has none.

    Search only: Q must be monic, u0 reduced mod Q and coprime to it, and
    degree >= deg Q.  realize meets all three through crt_combine over
    nonzero residues and starts at degree deg Q + 1."""
    f = Q.field
    hdeg = degree - Q.degree
    space = f.q**hdeg
    if rng is None:
        codes = range(space)
    elif space <= (1 << 16):
        codes = list(range(space))
        rng.shuffle(codes)
    else:
        codes = _random_codes(space, rng)
    tested = 0
    for code in codes:
        P = Q * monic_from_code(f, hdeg, code) + u0
        tested += 1
        if is_irreducible(P):
            return P, tested
    return None, tested


def _random_codes(space: int, rng):
    seen = set()
    while len(seen) < space:
        code = rng.randrange(space)
        if code not in seen:
            seen.add(code)
            yield code


# -- the inductive construction ----------------------------------------------


def realize(ctx: SymbolContext, M: CycMatrix, opts: Optional[RealizeOptions] = None) -> Realization:
    """A tuple of distinct monic irreducibles with residue matrix exactly M.

    Each position picks its residues with _choose_residue, merges them with
    crt_combine (which checks the moduli and residues) and scans the class
    with _find_irreducible.  The residue matrix of the result is recomputed
    and compared with M before it is returned.

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
    Mp = conjugate_by_permutation(M, sigma)
    rng = None if opts.deterministic else random.Random(opts.seed)

    polys_p = []
    steps = []
    for k in range(n):
        choices = []
        for j in range(k):
            target = Mp.entries[k][j]
            u, trials = _choose_residue(ctx, polys_p[j], target, rng)
            choices.append(
                ResidueChoice(
                    modulus=polys_p[j], target=target, residue=u, trials=trials
                )
            )
        # each u_j is a nonzero residue, so u0 is coprime to Q and no
        # candidate P = u_j mod P_j can repeat an earlier P_j
        pairs = [(c.residue, c.modulus) for c in choices]
        u0, Q = crt_combine(pairs) if pairs else (zero(f), one(f))
        req = parity[k]
        D = Q.degree + 1
        if req is not None and D % 2 != req:
            D += 1
        # position 1 scans in enumeration order in either mode: t comes first
        scan = rng if pairs else None
        degrees_tried = []
        tested_total = 0
        chosen = None
        while chosen is None and D <= opts.max_degree:
            degrees_tried.append(D)
            chosen, tested = _find_irreducible(u0, Q, D, scan)
            tested_total += tested
            D += 2 if req is not None else 1
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
                degrees_tried=tuple(degrees_tried),
                candidates_tested=tested_total,
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
