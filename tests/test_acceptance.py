"""Acceptance suite: eight end-to-end checks, one test (= one pass/fail
line under pytest -v) per criterion.

1. reciprocity law, exhaustive over pairs of irreducibles of degree <= 3;
2. the symbol against its definition, exhaustive at degree <= 2;
3. random 4-tuples, their matrices built from symbol() on every ordered
   pair: symmetric on the even branch, classify recovering
   s = #odd-degree polynomials on the odd branch;
4. brute-force equivalence of the block-form and diagonal criteria, with
   independently derived admissible counts;
5. constructive realization round-trips exactly (all 2x2, sampled 3x3);
6. verdicts invariant under unit rescaling of indices; rescaled residue
   matrices realize;
7. irreducible enumeration reproduces the necklace-count formula;
8. deterministic realize output is byte-identical across runs and matches
   the committed golden files.
"""

import random
import time
from pathlib import Path

from residuemat import (
    ODD_LAW,
    CycMatrix,
    classify,
    count_monic_irreducibles,
    criteria_equiv_bruteforce,
    iter_all_matrices,
    monic_irreducibles,
    realize,
    residue_matrix,
    symbol,
    verify_reciprocity,
    verify_symbol_structure,
)
from residuemat.cli import main

from conftest import get_context, get_field
from naive import scale_indices, unit_scalings

FIXTURES = Path(__file__).parent / "fixtures"

QD_LIST = [
    (3, 2), (5, 2), (5, 4), (7, 2), (7, 3), (7, 6),
    (9, 2), (9, 4), (9, 8), (4, 3), (8, 7),
]


def test_criterion_1_reciprocity_exhaustive_deg3():
    start = time.monotonic()
    for q, d in QD_LIST:
        ctx = get_context(q, d)
        rep = verify_reciprocity(ctx, 3)
        assert rep.failures == (), f"(q={q}, d={d}): {rep.failures[:3]}"
        count = sum(count_monic_irreducibles(ctx.field, deg) for deg in (1, 2, 3))
        assert rep.pairs == count * (count - 1)
    assert time.monotonic() - start < 60


def test_criterion_2_symbol_structure_exhaustive_deg2():
    for q, d in QD_LIST:
        ctx = get_context(q, d)
        rep = verify_symbol_structure(ctx, 2)
        assert rep.ok, f"(q={q}, d={d}): {rep.failures[:3]}"
        assert rep.moduli == sum(
            count_monic_irreducibles(ctx.field, deg) for deg in (1, 2)
        )
        assert rep.products > 0


def _random_tuples(field, rng, count, size=4, max_deg=3):
    pools = {deg: list(monic_irreducibles(field, deg)) for deg in range(1, max_deg + 1)}
    for _ in range(count):
        chosen, seen = [], set()
        while len(chosen) < size:
            P = rng.choice(pools[rng.randint(1, max_deg)])
            if P not in seen:
                seen.add(P)
                chosen.append(P)
        yield chosen


def _symbol_matrix(ctx, polys):
    """The residue matrix from symbol() on every ordered pair, so that no
    entry is filled in by a law; residue_matrix must equal it."""
    n = len(polys)
    M = CycMatrix(n, ctx.d, [
        [None if i == j else symbol(ctx, polys[i], polys[j]).k for j in range(n)]
        for i in range(n)
    ])
    assert residue_matrix(ctx, polys) == M, polys
    return M


def test_criterion_3_random_tuples_obey_the_two_laws():
    rng = random.Random(20250819)
    for q, d in ((5, 2), (9, 4), (7, 3)):
        assert ((q - 1) // d) % 2 == 0
        ctx = get_context(q, d)
        for polys in _random_tuples(ctx.field, rng, 200):
            M = _symbol_matrix(ctx, polys)
            for i in range(M.n):
                for j in range(i + 1, M.n):
                    assert M.entries[i][j] == M.entries[j][i], (q, d, polys)
    for q, d in ((5, 4), (7, 2), (9, 8)):
        assert q % 2 == 1 and ((q - 1) // d) % 2 == 1
        ctx = get_context(q, d)
        for polys in _random_tuples(ctx.field, rng, 200):
            M = _symbol_matrix(ctx, polys)
            res = classify(M, q)
            assert res.realizable and res.branch == ODD_LAW, (q, d, polys)
            odd_count = sum(P.degree % 2 for P in polys)
            assert res.s == max(odd_count, 1), (q, d, polys, res.s)


# Admissible counts derived with a standalone brute-force script (direct
# block-form search over all (s, sigma), no shared code) and frozen here.
ORACLE_COUNTS = {
    (2, 2): (4, 4),
    (2, 4): (16, 8),
    (2, 6): (36, 12),
    (3, 2): (64, 40),
    (3, 4): (4096, 320),
}


def test_criterion_4_block_and_diagonal_criteria_equivalent():
    for (n, d), (total, admissible) in sorted(ORACLE_COUNTS.items()):
        rep = criteria_equiv_bruteforce(n, d)
        assert rep.equivalent, f"(n={n}, d={d}): {rep.mismatches[:3]}"
        assert (rep.total, rep.admissible) == (total, admissible)


def _admissible(n, d, q):
    return [M for M in iter_all_matrices(n, d) if classify(M, q).realizable]


def test_criterion_5_realize_round_trips_exactly():
    # every admissible 2x2 over q = 5, both branches
    for d, expected in ((2, 2), (4, 8)):
        ctx = get_context(5, d)
        matrices = _admissible(2, d, 5)
        assert len(matrices) == expected
        for M in matrices:
            assert residue_matrix(ctx, realize(ctx, M).polys) == M
    # 3x3: 50 sampled admissible matrices per configuration; (5, 2) has
    # only 8 admissible matrices in total, so all of them are realized
    rng = random.Random(5151)
    for q, d in ((5, 4), (13, 4), (5, 2)):
        ctx = get_context(q, d)
        matrices = _admissible(3, d, q)
        sample = matrices if len(matrices) <= 50 else rng.sample(matrices, 50)
        assert len(sample) in (50, 8)
        for M in sample:
            res = realize(ctx, M)
            assert residue_matrix(ctx, res.polys) == M, (q, d, M)


def test_criterion_6_index_scaling_invariance():
    units = unit_scalings(4)
    assert units == [1, 3]
    for n in (2, 3):
        for q in (5, 9):
            for M in iter_all_matrices(n, 4):
                base = classify(M, q)
                for c in units:
                    scaled = classify(scale_indices(M, c), q)
                    assert scaled.realizable == base.realizable, (n, q, c, M)
                    assert scaled.s == base.s
    # rescaled residue matrices are again realizable, constructively
    ctx = get_context(5, 4)
    rng = random.Random(909)
    for polys in _random_tuples(ctx.field, rng, 20, size=3):
        M2 = scale_indices(residue_matrix(ctx, polys), 3)
        assert residue_matrix(ctx, realize(ctx, M2).polys) == M2


def test_criterion_7_necklace_counts_reproduced():
    for q in (2, 3, 4, 5, 9):
        f = get_field(q)
        for deg in range(1, 6):
            found = sum(1 for _ in monic_irreducibles(f, deg))
            assert found == count_monic_irreducibles(f, deg), (q, deg)


GOLDEN_CASES = [
    ("skew_q5_d4", ["--q", "5"]),
    ("sym_q5_d2", ["--q", "5"]),
    ("s2_q13_d4", ["--q", "13"]),
    ("skew_q9_d8", ["--p", "3", "--m", "2"]),
    ("mixed_q7_d6", ["--q", "7"]),
]


def test_criterion_8_deterministic_realize_is_byte_stable(capsys):
    for name, field in GOLDEN_CASES:
        matrix = str(FIXTURES / f"{name}.mat")
        golden = (FIXTURES / "golden" / f"{name}.json").read_text(encoding="utf-8")
        runs = []
        for _ in range(2):
            code = main(["realize", *field, "--matrix", matrix])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            runs.append(captured.out)
        assert runs[0] == runs[1] == golden, name
