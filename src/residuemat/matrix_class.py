"""Cyclotomic sign matrices and the realizability classification.

A CycMatrix is an n x n array of residue-symbol indices mod d with an
undefined diagonal.  Whether such a matrix can be realized by a tuple of
distinct monic irreducibles depends only on (q - 1)/d:

* symmetric law (q even, or (q - 1)/d even): realizable iff symmetric;
* odd law (q odd and (q - 1)/d odd, forcing d even): realizable iff every
  entry pair is equal or negated (epsilon(j, k) well defined) and the
  diagonal of M Mbar is, as a multiset, s copies of n + 1 - 2s together
  with n - s copies of n - 1 for some 1 <= s <= n.  The s = 1 case is
  exactly the symmetric matrices (a 1 x 1 skew block is vacuous).

The second branch is equivalent to the existence of a permutation putting
the matrix into block form [[A, B], [B^t, S]] with A an s x s
skew-symmetric block (entry pairs negated: m_jk - m_kj = d/2 mod d),
S symmetric, and the lower-left block the exact transpose of B.
classify() picks the law by field_core._odd_law, and one scan over the
entry pairs decides either: it yields the first bad pair or else the
M Mbar diagonal, from which the multiset condition and the permutation
follow.  The block form itself is only used by the brute-force
cross-check, which generates every block-form matrix per (s, sigma).

The text format: first line "n d", then n rows of n whitespace-separated
entries with "." on the diagonal.
"""

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .field_core import _check_int, _is_prime_power, _odd_law

SYMMETRIC_LAW = "symmetric"
ODD_LAW = "odd"
# criteria_equiv_bruteforce walks each matrix once; 10^6 admits (3, 10) and
# (2, 1000) exactly, 6.5 s and 5.6 s on a 2-vCPU Xeon, and refuses (5, 2)
EQUIV_MAX_MATRICES = 1_000_000


class CycMatrix:
    """Immutable n x n matrix of indices mod d, diagonal undefined."""

    __slots__ = ("n", "d", "entries")

    def __init__(self, n: int, d: int, entries):
        _check_int("n", n)
        _check_int("d", d)
        if n < 1:
            raise ValueError("matrix size must be >= 1")
        if d < 1:
            raise ValueError("d must be >= 1")
        rows = [list(r) for r in entries]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected {n} rows of {n} entries")
        for i in range(n):
            for j in range(n):
                if i == j:
                    rows[i][j] = None
                else:
                    v = rows[i][j]
                    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < d:
                        raise ValueError(
                            f"entry ({i + 1},{j + 1}) = {v!r} not an index in [0, {d})"
                        )
        self.n = n
        self.d = d
        self.entries = tuple(tuple(r) for r in rows)

    @classmethod
    def _make(cls, n: int, d: int, entries: tuple) -> "CycMatrix":
        # trusted constructor: entries is already n row tuples of indices
        # in [0, d) with None on the diagonal
        self = object.__new__(cls)
        self.n, self.d, self.entries = n, d, entries
        return self

    def entry(self, i: int, j: int) -> int:
        """Off-diagonal entry, 0-based."""
        if i == j:
            raise ValueError("diagonal entries are undefined")
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, CycMatrix)
            and self.n == other.n
            and self.d == other.d
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.n, self.d, self.entries))

    def __repr__(self):
        return f"CycMatrix({self.n}, {self.d}, {self.entries!r})"


def parse_matrix(text: str) -> CycMatrix:
    """Parse the text format; inverse of format_matrix."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    try:
        n, d = map(int, head)
    except ValueError:
        raise ValueError(
            f"header must be two integers 'n d', got {lines[0]!r}"
        ) from None
    if n < 1:
        raise ValueError(f"matrix size n must be >= 1, got {n}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, got {len(lines) - 1}")
    entries = []
    for i, ln in enumerate(lines[1:]):
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"row {i + 1} has {len(toks)} entries, expected {n}")
        row = []
        for j, tok in enumerate(toks):
            if i == j:
                if tok != ".":
                    raise ValueError(f"diagonal entry ({i + 1},{i + 1}) must be '.'")
                row.append(None)
            else:
                if tok == ".":
                    raise ValueError(
                        f"off-diagonal entry ({i + 1},{j + 1}) must be an integer"
                    )
                try:
                    row.append(int(tok))
                except ValueError:
                    raise ValueError(
                        f"entry ({i + 1},{j + 1}) = {tok!r} is not an integer"
                    ) from None
        entries.append(row)
    return CycMatrix(n, d, entries)


def format_matrix(M: CycMatrix) -> str:
    lines = [f"{M.n} {M.d}"]
    for i in range(M.n):
        lines.append(
            " ".join("." if i == j else str(M.entries[i][j]) for j in range(M.n))
        )
    return "\n".join(lines) + "\n"


def epsilon(M: CycMatrix, j: int, k: int) -> Optional[int]:
    """Value of zeta^(m_jk) * conj(zeta^(m_kj)) when it is real: +1 for equal
    indices, -1 for indices differing by exactly d/2 mod d, None otherwise.
    Indices j, k are 0-based and must differ."""
    if j == k:
        raise ValueError("epsilon is undefined on the diagonal")
    a, b = M.entries[j][k], M.entries[k][j]
    if a == b:
        return 1
    d = M.d
    if d % 2 == 0 and (a - b) % d == d // 2:
        return -1
    return None


def mmbar_diagonal(M: CycMatrix) -> list:
    """Diagonal of M Mbar (zeta^k entries, undefined diagonal read as 0).

    Entry j is the sum over k != j of zeta^(m_jk) * conj(zeta^(m_kj)), which
    is epsilon(M, j, k): +1 for an equal pair, -1 for a negated one.  Any
    other pair gives a non-real summand, which no realizable matrix has, so
    that case raises ValueError.
    """
    bad, diag = _pair_scan(M, M.d % 2 == 0)
    if bad is not None:
        j, k = bad
        raise ValueError(
            f"entries ({j + 1},{k + 1}) and ({k + 1},{j + 1}) are neither "
            "equal nor conjugate; M Mbar diagonal is not an integer vector"
        )
    return diag


def _pair_scan(M: CycMatrix, negated_ok: bool) -> tuple:
    """(bad, diag) from one pass over the entry pairs i < j, row-major.  A
    pair is good when its entries are equal or, with negated_ok, differ by
    d/2 mod d.  bad is the first other pair, or None; then diag is the
    M Mbar diagonal: n - 1, less 2 at both ends of each negated pair."""
    n, d, e = M.n, M.d, M.entries
    diag = [n - 1] * n
    for i in range(n):
        row = e[i]
        for j in range(i + 1, n):
            a, b = row[j], e[j][i]
            if a == b:
                continue
            if not negated_ok or (a - b) % d != d // 2:
                return (i, j), None
            diag[i] -= 2
            diag[j] -= 2
    return None, diag


@dataclass(frozen=True)
class Classification:
    """Outcome of classify(): verdict plus the data needed to act on it.

    s and sigma are set only on the odd-law branch of a realizable matrix:
    sigma permutes positions so that the s rows carrying a -1 partner come
    first (for s = 1, where no row is distinguished, row 1 is designated),
    and a realizing tuple must use odd-degree polynomials exactly at those
    leading positions.  witness_pair (0-based) is set for symmetry and
    epsilon failures; witness_diagonal carries the sorted M Mbar diagonal
    when no admissible s exists.
    """

    realizable: bool
    branch: str
    s: Optional[int] = None
    sigma: Optional[tuple] = None
    witness_pair: Optional[tuple] = None
    witness_diagonal: Optional[tuple] = None

    def to_json_dict(self) -> dict:
        out = {
            "verdict": "realizable" if self.realizable else "not_realizable",
            "branch": self.branch,
            "s": self.s,
            "sigma": list(x + 1 for x in self.sigma) if self.sigma else None,
        }
        if self.witness_pair is not None:
            out["witness"] = {"pair": [self.witness_pair[0] + 1, self.witness_pair[1] + 1]}
        elif self.witness_diagonal is not None:
            out["witness"] = {"mmbar_diagonal": list(self.witness_diagonal)}
        else:
            out["witness"] = None
        return out


def classify(M: CycMatrix, q: int) -> Classification:
    """Decide realizability of M over F_q[t] for its own d."""
    if not _is_prime_power(q):
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    if (q - 1) % M.d != 0:
        raise ValueError(f"d = {M.d} does not divide q - 1 = {q - 1}")
    if _odd_law(q, M.d):
        return _odd_law_decision(M)
    bad, _ = _pair_scan(M, False)
    return Classification(bad is None, SYMMETRIC_LAW, witness_pair=bad)


def _odd_law_decision(M: CycMatrix) -> Classification:
    n = M.n
    bad, diag = _pair_scan(M, M.d % 2 == 0)
    if bad is not None:
        return Classification(realizable=False, branch=ODD_LAW, witness_pair=bad)
    # D_j = n + 1 - 2s at the s skew positions and n - 1 elsewhere, and
    # n + 1 - 2s = n - 1 only for s = 1.  So the skew rows are the rows off
    # n - 1, their count is s (none means s = 1), and they must all read
    # n + 1 - 2s; sigma puts them first.
    skew = [j for j in range(n) if diag[j] != n - 1]
    s = len(skew) or 1
    if all(diag[j] == n + 1 - 2 * s for j in skew):
        sigma = tuple(skew + [j for j in range(n) if diag[j] == n - 1])
        return Classification(realizable=True, branch=ODD_LAW, s=s, sigma=sigma)
    return Classification(
        realizable=False, branch=ODD_LAW, witness_diagonal=tuple(sorted(diag))
    )


def iter_all_matrices(n: int, d: int) -> Iterator[CycMatrix]:
    """All d^(n(n-1)) matrices, in row-major lexicographic entry order."""
    # row i is combo[i k : i k + k] with None put in at column i
    k = n - 1
    cuts = [(i * k, i * k + i, i * k + k) for i in range(n)]
    for combo in itertools.product(range(d), repeat=n * k):
        entries = tuple(combo[a:b] + (None,) + combo[b:c] for a, b, c in cuts)
        yield CycMatrix._make(n, d, entries)


@dataclass(frozen=True)
class EquivReport:
    """Brute-force comparison of the block-form and diagonal criteria."""

    n: int
    d: int
    total: int
    admissible: int
    mismatches: tuple

    @property
    def equivalent(self) -> bool:
        return not self.mismatches


def criteria_equiv_bruteforce(n: int, d: int) -> EquivReport:
    """Check (block form exists) == (diagonal criterion) over every matrix.

    The left side is the definition, independent of the shortcut in
    classify(): for every (s, sigma), each filling of the n(n-1)/2 entries
    above the diagonal of the conjugated matrix gives exactly one block-form
    matrix (its lower entries follow from the upper ones), and its index in
    iter_all_matrices order is marked.  Then every matrix is walked once
    and its mark compared with _odd_law_decision.  Capped by
    EQUIV_MAX_MATRICES matrices.
    """
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got n = {n}")
    if d < 2 or d % 2 != 0:
        raise ValueError(f"the odd law requires d even and >= 2, got d = {d}")
    # d >= 2, so the product passes the cap within log2(cap) + 1 steps
    total = 1
    for _ in range(n * (n - 1)):
        if total > EQUIV_MAX_MATRICES:
            break
        total *= d
    if total > EQUIV_MAX_MATRICES:
        raise ValueError(f"{d}^{n * (n - 1)} matrices exceed the bound {EQUIV_MAX_MATRICES}")
    # weight[i][j] = d^(number of slots after (i, j)), so that a matrix's
    # index is sum(M[i][j] * weight[i][j]) over the off-diagonal slots
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    weight = [[0] * n for _ in range(n)]
    for t, (i, j) in enumerate(reversed(slots)):
        weight[i][j] = d**t
    half = d // 2
    blocks = bytearray(total)
    for sigma in itertools.permutations(range(n)):
        for s in range(1, n + 1):
            # M[sigma(i)][sigma(j)] = a above the diagonal, and below it
            # a + d/2 inside the skew block (j < s), a outside it
            found = [0]
            for j in range(1, n):
                shift = half if j < s else 0
                for i in range(j):
                    up, down = weight[sigma[i]][sigma[j]], weight[sigma[j]][sigma[i]]
                    adds = [a * up + (a + shift) % d * down for a in range(d)]
                    found = [x + y for y in adds for x in found]
            for x in found:
                blocks[x] = 1
    admissible = 0
    mismatches = []
    for M, by_blocks in zip(iter_all_matrices(n, d), blocks):
        by_diag = _odd_law_decision(M).realizable
        if by_blocks:
            admissible += 1
        if by_blocks != by_diag:
            mismatches.append(M)
    return EquivReport(
        n=n, d=d, total=total, admissible=admissible, mismatches=tuple(mismatches)
    )
