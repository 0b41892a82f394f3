"""Every small admissible matrix, realized and checked against the definition.

The sweep takes one matrix per orbit of the admissible n x n matrices
under simultaneous permutation of rows and columns, since permuting a
realization realizes the permuted matrix.  The matrices come from the
block form, as in criteria_equiv_bruteforce: on the odd law (-1 not a
d-th power in F_q) the first s rows hold a skew block whose pairs differ
by d/2, and every other pair is equal; on the symmetric law every pair
is equal.  Each orbit is represented by its least conjugate, read row by
row.  realize builds each one with default options, or in seeded mode
with RealizeOptions(seed=seed + i, deterministic=False) for orbit i, and
every ordered entry is compared with the defining index of
P_i^((|P_j| - 1)/d) mod P_j, never with symbol or the reciprocity law.
Where it is fast enough (the sweeps in NAIVE) that index comes from
naive.naive_symbol_index, on schoolbook lists and digit arithmetic.
Elsewhere it is poly_ring.mod_pow followed by root_index_of, as
naive_symbol_index would take 5-7 times as long as realize itself there.

Shared by the tier-1 test and the CI step that runs a larger sweep;
pytest does not collect this module.  Run as a script to sweep one
(q, d, n) and print its orbit count and largest degree, in seeded mode
with --seed:

    python tests/realize_sweep.py 5 4 4
    python tests/realize_sweep.py 5 4 4 --seed 1
"""

import argparse
import itertools

from residuemat import CycMatrix, RealizeOptions, mod_pow, realize, root_index_of

from conftest import get_context
from naive import naive_symbol_index

# orbits of the admissible matrices per (q, d, n); filtering all
# d^(n(n - 1)) matrices through classify gives the same representatives
# (checked once for every row but (5, 4, 4), whose count came from an
# earlier generator of the same kind)
ORBITS = {
    (5, 2, 3): 4,
    (5, 4, 3): 64,
    (7, 6, 3): 202,
    (13, 4, 3): 64,
    (4, 3, 3): 10,
    (9, 8, 3): 464,
    (5, 2, 4): 11,
    (4, 3, 4): 66,
    (5, 4, 4): 2228,
}

# the sweeps whose entries naive_symbol_index checks in well under a second
NAIVE = {(5, 2, 3), (5, 4, 3), (4, 3, 3), (5, 2, 4)}


def orbit_representatives(q: int, d: int, n: int) -> list:
    """The least conjugate of every block-form matrix, as the tuple of its
    off-diagonal entries in row-major order, sorted."""
    odd = q % 2 == 1 and (q - 1) // d % 2 == 1
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    upper = [(i, j) for i, j in off if i < j]
    perms = list(itertools.permutations(range(n)))
    reps = set()
    for s in range(1, n + 1) if odd else (0,):
        for values in itertools.product(range(d), repeat=len(upper)):
            rows = [[None] * n for _ in range(n)]
            for (i, j), a in zip(upper, values):
                rows[i][j] = a
                rows[j][i] = (a + d // 2) % d if j < s else a
            reps.add(min(tuple(rows[p[i]][p[j]] for i, j in off) for p in perms))
    return sorted(reps)


def defining_index(ctx, a, P, naive: bool) -> int:
    """The k with a^((|P| - 1)/d) mod P = zeta^k."""
    if naive:
        return naive_symbol_index(ctx, a, P)
    c = mod_pow(a, (ctx.field.q**P.degree - 1) // ctx.d, P)
    assert c.degree == 0, "the symbol power is not a nonzero constant"
    return root_index_of(ctx.field, ctx.d, c.coeffs[0]).k


def sweep(q: int, d: int, n: int, seed=None) -> tuple:
    """(orbits, largest degree) after realizing one matrix per orbit, with
    default options or, given a seed, orbit i in random mode at seed + i,
    and checking every entry against the definition; AssertionError on the
    first entry that differs."""
    ctx = get_context(q, d)
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    reps = orbit_representatives(q, d, n)
    naive = (q, d, n) in NAIVE
    top = 0
    for orbit, key in enumerate(reps):
        rows = [[None] * n for _ in range(n)]
        for (i, j), a in zip(off, key):
            rows[i][j] = a
        M = CycMatrix(n, d, rows)
        opts = None if seed is None else RealizeOptions(seed=seed + orbit, deterministic=False)
        polys = realize(ctx, M, opts).polys
        assert len(set(polys)) == n and all(P.is_monic() for P in polys), M
        for (i, j), a in zip(off, key):
            assert defining_index(ctx, polys[i], polys[j], naive) == a, (M, i, j)
        top = max(top, max(P.degree for P in polys))
    return len(reps), top


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Sweep one (q, d, n).")
    for name in ("q", "d", "n"):
        parser.add_argument(name, type=int)
    parser.add_argument("--seed", type=int, help="realize orbit i in random mode at seed + i")
    args = parser.parse_args()
    q, d, n = args.q, args.d, args.n
    orbits, top = sweep(q, d, n, args.seed)
    print(f"q={q} d={d} n={n}: orbits={orbits}, max_degree={top}")
