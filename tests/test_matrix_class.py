import itertools
import time

import pytest

from residuemat import (
    ODD_LAW,
    SYMMETRIC_LAW,
    Classification,
    CycMatrix,
    classify,
    criteria_equiv_bruteforce,
    epsilon,
    format_matrix,
    iter_all_matrices,
    mmbar_diagonal,
    parse_matrix,
)
from residuemat import matrix_class

from naive import (
    check_block_form,
    classify_reference,
    conjugate_by_permutation,
    mmbar_reference,
    scale_indices,
)


def mat(n, d, *rows):
    return CycMatrix(n, d, [list(r) for r in rows])


SKEW22 = mat(2, 4, (None, 1), (3, None))
SYM22 = mat(2, 4, (None, 1), (1, None))
# one skew pair (rows 0ized 1 and 2), everything else symmetric
SKEW_AT_12 = mat(
    3, 4, (None, 2, 2), (2, None, 1), (2, 3, None)
)


# -- text format ---------------------------------------------------------


def test_parse_matrix():
    M = parse_matrix("2 4\n. 1\n3 .\n")
    assert M == SKEW22
    assert M.n == 2 and M.d == 4
    # blank lines and stray spaces are tolerated
    assert parse_matrix("\n 2 4 \n\n.  1\n3   .\n\n") == SKEW22


def test_format_matrix_round_trip():
    text = format_matrix(SKEW_AT_12)
    assert text == "3 4\n. 2 2\n2 . 1\n2 3 .\n"
    assert parse_matrix(text) == SKEW_AT_12


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "2\n. 1\n1 .",
        "2 4\n. 1",
        "2 4\n. 1 1\n1 .",
        "2 4\n0 1\n1 .",
        "2 4\n. .\n1 .",
        "2 4\n. 9\n1 .",
        "2 4\n. x\n1 .",
    ],
)
def test_parse_matrix_rejects(bad):
    with pytest.raises(ValueError):
        parse_matrix(bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("2 x\n. 1\n1 .", r"header must be two integers 'n d', got '2 x'"),
        ("2 4 1\n. 1\n1 .", r"header must be two integers 'n d', got '2 4 1'"),
        ("-1 2\n", r"matrix size n must be >= 1, got -1"),
        ("0 2\n", r"matrix size n must be >= 1, got 0"),
        ("2 4\n. a\n1 .", r"entry \(1,2\) = 'a' is not an integer"),
        ("2 4\n. 1\n1.5 .", r"entry \(2,1\) = '1.5' is not an integer"),
    ],
)
def test_parse_matrix_names_the_bad_token(bad, message):
    with pytest.raises(ValueError, match=message):
        parse_matrix(bad)


# -- CycMatrix basics ----------------------------------------------------


def test_entry_access():
    assert SKEW22.entry(0, 1) == 1
    assert SKEW22.entry(1, 0) == 3
    with pytest.raises(ValueError):
        SKEW22.entry(1, 1)


def test_constructor_normalizes_diagonal():
    M = CycMatrix(2, 2, [[7, 1], [0, "x"]])  # diagonal values are discarded
    assert M.entries == ((None, 1), (0, None))


def test_constructor_rejects():
    with pytest.raises(ValueError):
        CycMatrix(0, 2, [])
    with pytest.raises(ValueError):
        CycMatrix(2, 0, [[None, 0], [0, None]])
    with pytest.raises(ValueError):
        CycMatrix(2, 2, [[None, 2], [0, None]])  # entry out of range
    with pytest.raises(ValueError):
        CycMatrix(2, 2, [[None, None], [0, None]])  # None off the diagonal
    with pytest.raises(ValueError):
        CycMatrix(2, 2, [[None, 0]])  # wrong shape


@pytest.mark.parametrize(
    "rows",
    [
        [[None, True], [1, None]],
        [[None, 1], [False, None]],
        [[None, False, 0], [0, None, True], [1, 0, None]],
    ],
)
def test_constructor_rejects_bool_indices(rows):
    # bool is an int subclass, but True is no index: format_matrix would
    # print it as "True"
    with pytest.raises(ValueError, match="not an index"):
        CycMatrix(len(rows), 2, rows)


def test_equality_and_hash():
    assert mat(2, 2, (None, 1), (1, None)) == mat(2, 2, (None, 1), (1, None))
    assert hash(SKEW22) == hash(mat(2, 4, (None, 1), (3, None)))
    assert SKEW22 != SYM22
    assert mat(2, 2, (None, 1), (1, None)) != mat(2, 4, (None, 1), (1, None))


# -- epsilon and the M Mbar diagonal --------------------------------------


def test_epsilon():
    assert epsilon(SYM22, 0, 1) == 1
    assert epsilon(SKEW22, 0, 1) == -1  # 1 - 3 = -2 = d/2 mod 4
    assert epsilon(mat(2, 4, (None, 0), (2, None)), 0, 1) == -1
    assert epsilon(mat(2, 4, (None, 0), (1, None)), 0, 1) is None
    assert epsilon(mat(2, 2, (None, 0), (1, None)), 0, 1) == -1
    # odd d has no element of order 2, so unequal pairs are never real
    assert epsilon(mat(2, 3, (None, 0), (1, None)), 0, 1) is None
    with pytest.raises(ValueError):
        epsilon(SYM22, 1, 1)


def test_mmbar_diagonal():
    assert mmbar_diagonal(SYM22) == [1, 1]
    assert mmbar_diagonal(SKEW22) == [-1, -1]
    assert mmbar_diagonal(SKEW_AT_12) == [2, 0, 0]
    all_sym = mat(3, 2, (None, 1, 0), (1, None, 1), (0, 1, None))
    assert mmbar_diagonal(all_sym) == [2, 2, 2]
    with pytest.raises(ValueError, match=r"\(1,2\)"):
        mmbar_diagonal(mat(2, 4, (None, 0), (1, None)))


@pytest.mark.parametrize("n,d", [(3, 3), (3, 4)])
def test_mmbar_diagonal_matches_reference(n, d):
    for M in iter_all_matrices(n, d):
        diag, bad = mmbar_reference(M)
        if bad is None:
            assert mmbar_diagonal(M) == diag, M
            continue
        j, k = bad
        with pytest.raises(ValueError) as err:
            mmbar_diagonal(M)
        assert str(err.value) == (
            f"entries ({j + 1},{k + 1}) and ({k + 1},{j + 1}) are neither "
            "equal nor conjugate; M Mbar diagonal is not an integer vector"
        ), M


# -- classify -------------------------------------------------------------


def test_classify_validates_arguments():
    with pytest.raises(ValueError):
        classify(SYM22, 1)
    with pytest.raises(ValueError):
        classify(SYM22, 7)  # 4 does not divide 6


def test_classify_rejects_q_not_a_prime_power():
    # each d divides q - 1, so only the prime-power check can refuse these;
    # the large q would take minutes by trial division
    big = (2**31 - 1) * (2**61 - 1)
    for q, d in ((6, 5), (10, 3), (12, 11), (15, 2), (big, 2)):
        with pytest.raises(ValueError, match="prime power"):
            classify(mat(2, d, (None, 1), (d - 1, None)), q)
    # below 2, where Newton's root iteration would reach 0
    for q in (-9, -8, -1, 0, 1):
        with pytest.raises(ValueError, match="prime power"):
            classify(mat(2, 2, (None, 1), (1, None)), q)
    for q, d in ((4, 3), (8, 7), (9, 8), (2**61 - 1, 2), ((2**31 - 1) ** 2, 2)):
        assert classify(mat(2, d, (None, 1), (1, None)), q).realizable


def test_classify_refuses_a_strong_pseudoprime_q():
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to every
    # prime base through 37, and psi_13 to every one through 41, past which
    # primality is refused rather than guessed
    M = parse_matrix("2 2\n. 1\n1 .\n")
    for q in (318665857834031151167461, 3317044064679887385961981):
        with pytest.raises(ValueError, match="prime power"):
            classify(M, q)
    # large powers of small primes are tested at their root only
    for q in (3**60, 1021**10):
        assert classify(M, q).realizable


def test_classify_branch_selection():
    assert classify(SYM22, 5).branch == ODD_LAW  # (5-1)/4 odd
    assert classify(SYM22, 13).branch == ODD_LAW  # (13-1)/4 = 3 odd
    assert classify(SYM22, 9).branch == SYMMETRIC_LAW  # (9-1)/4 = 2 even
    M2 = mat(2, 2, (None, 1), (1, None))
    assert classify(M2, 3).branch == ODD_LAW
    assert classify(M2, 5).branch == SYMMETRIC_LAW
    M3 = mat(2, 3, (None, 1), (2, None))
    assert classify(M3, 4).branch == SYMMETRIC_LAW  # q even
    assert classify(M3, 7).branch == SYMMETRIC_LAW  # (7-1)/3 = 2 even


def test_classify_symmetric_law():
    res = classify(SYM22, 9)
    assert res.realizable and res.branch == SYMMETRIC_LAW
    assert res.s is None and res.sigma is None
    assert res.to_json_dict() == {
        "verdict": "realizable",
        "branch": "symmetric",
        "s": None,
        "sigma": None,
        "witness": None,
    }
    bad = classify(SKEW22, 9)
    assert not bad.realizable
    assert bad.witness_pair == (0, 1)
    assert bad.to_json_dict()["witness"] == {"pair": [1, 2]}


def test_classify_odd_law_one_by_one():
    res = classify(CycMatrix(1, 2, [[None]]), 3)
    assert res.realizable and res.branch == ODD_LAW
    assert res.s == 1 and res.sigma == (0,)
    assert res.to_json_dict()["sigma"] == [1]


def test_classify_odd_law_symmetric_is_s1():
    res = classify(SYM22, 5)
    assert res.realizable and res.s == 1 and res.sigma == (0, 1)


def test_classify_odd_law_skew_block():
    res = classify(SKEW22, 5)
    assert res.realizable and res.s == 2 and res.sigma == (0, 1)
    res = classify(SKEW_AT_12, 5)
    assert res.realizable and res.s == 2
    assert res.sigma == (1, 2, 0)  # the skew rows move to the front


def test_classify_odd_law_all_skew():
    M = mat(3, 2, (None, 1, 1), (0, None, 1), (0, 0, None))
    res = classify(M, 3)
    assert res.realizable and res.s == 3 and res.sigma == (0, 1, 2)


def test_classify_odd_law_epsilon_failure():
    M = mat(2, 4, (None, 0), (1, None))
    res = classify(M, 5)
    assert not res.realizable and res.branch == ODD_LAW
    assert res.witness_pair == (0, 1)
    assert res.s is None and res.sigma is None


def test_classify_odd_law_diagonal_failure():
    # two skew pairs out of three: diagonal [-2, 0, 0] fits no s
    M = mat(3, 4, (None, 0, 0), (2, None, 0), (2, 0, None))
    res = classify(M, 5)
    assert not res.realizable and res.branch == ODD_LAW
    assert res.witness_diagonal == (-2, 0, 0)
    assert res.to_json_dict()["witness"] == {"mmbar_diagonal": [-2, 0, 0]}


def test_classify_smallest_s_is_reported():
    # diagonal (n-1, ..., n-1) matches only s = 1 even though the matrix is
    # also trivially block-form for no other s
    M = mat(3, 2, (None, 0, 0), (0, None, 0), (0, 0, None))
    assert classify(M, 3).s == 1


# each (n, d) under the smallest q of every law that applies: the odd law,
# the symmetric law in odd characteristic and in characteristic 2
@pytest.mark.parametrize(
    "n,d,q",
    [
        (2, 4, 5), (2, 4, 9),
        (3, 4, 5), (3, 4, 9),
        (3, 2, 3), (3, 2, 5),
        (2, 6, 7), (2, 6, 13),
        (4, 2, 3), (4, 2, 5),
        (3, 3, 4), (3, 3, 7),
        (2, 8, 9), (2, 8, 17),
    ],
)
def test_classify_matches_reference(n, d, q):
    for M in iter_all_matrices(n, d):
        c = classify(M, q)
        got = (c.realizable, c.branch, c.s, c.sigma, c.witness_pair, c.witness_diagonal)
        assert got == classify_reference(M, q), M


# -- block form ------------------------------------------------------------


def test_check_block_form():
    assert check_block_form(SKEW22, 2, (0, 1))
    assert not check_block_form(SKEW22, 1, (0, 1))
    assert check_block_form(SYM22, 1, (0, 1))
    assert check_block_form(SYM22, 1, (1, 0))
    assert not check_block_form(SYM22, 2, (0, 1))
    assert check_block_form(SKEW_AT_12, 2, (1, 2, 0))
    assert not check_block_form(SKEW_AT_12, 2, (0, 1, 2))
    with pytest.raises(ValueError):
        check_block_form(SKEW22, 0, (0, 1))
    with pytest.raises(ValueError):
        check_block_form(SKEW22, 3, (0, 1))
    for sigma in ((0, 0), (0,), (0, 1, 2)):
        with pytest.raises(ValueError):
            check_block_form(SKEW22, 1, sigma)


def test_check_block_form_odd_d():
    M = mat(2, 3, (None, 1), (1, None))
    assert check_block_form(M, 1, (0, 1))
    assert not check_block_form(M, 2, (0, 1))  # no order-2 root for odd d


def test_classified_sigma_passes_block_check():
    for M in iter_all_matrices(3, 4):
        res = classify(M, 5)
        if res.realizable:
            assert check_block_form(M, res.s, res.sigma)


# -- transformations --------------------------------------------------------


def test_conjugate_by_permutation():
    Mp = conjugate_by_permutation(SKEW_AT_12, (1, 2, 0))
    assert Mp.entries == ((None, 1, 2), (3, None, 2), (2, 2, None))
    # conjugating back by the inverse is the identity
    inv = (2, 0, 1)
    assert conjugate_by_permutation(Mp, inv) == SKEW_AT_12
    with pytest.raises(ValueError):
        conjugate_by_permutation(SKEW_AT_12, (0, 0, 1))
    with pytest.raises(ValueError):
        conjugate_by_permutation(SKEW_AT_12, (0, 1))


def test_scale_indices():
    M = scale_indices(SKEW22, 3)
    assert M.entries == ((None, 3), (1, None))
    assert scale_indices(SKEW22, 1) == SKEW22
    with pytest.raises(ValueError):
        scale_indices(SKEW22, 2)
    with pytest.raises(ValueError):
        scale_indices(SKEW22, 0)


def test_scaling_preserves_classification():
    for M in iter_all_matrices(2, 4):
        for q in (5, 9):
            base = classify(M, q)
            scaled = classify(scale_indices(M, 3), q)
            assert base.realizable == scaled.realizable
            assert base.s == scaled.s


# -- enumeration and the brute-force equivalence --------------------------


def test_iter_all_matrices():
    all22 = list(iter_all_matrices(2, 2))
    assert len(all22) == 4 == len(set(all22))
    assert all22[0] == mat(2, 2, (None, 0), (0, None))
    assert len(list(iter_all_matrices(2, 3))) == 9
    assert len(list(iter_all_matrices(3, 2))) == 64
    # each matrix is what the checking constructor builds, and the
    # off-diagonal entries read row by row count up in base d
    slots = [(i, j) for i in range(3) for j in range(3) if i != j]
    for code, M in enumerate(iter_all_matrices(3, 3)):
        assert M == CycMatrix(3, 3, M.entries)
        assert [M.entries[i][j] for i, j in slots] == [
            code // 3 ** (5 - k) % 3 for k in range(6)
        ]


@pytest.mark.parametrize(
    "n,d,total,admissible",
    [(2, 2, 4, 4), (2, 4, 16, 8), (2, 6, 36, 12), (3, 2, 64, 40), (3, 4, 4096, 320)],
)
def test_criteria_equivalence(n, d, total, admissible):
    rep = criteria_equiv_bruteforce(n, d)
    assert rep.equivalent
    assert rep.total == total
    assert rep.admissible == admissible
    assert rep.mismatches == ()


def _searched_decision(M):
    # the block form by search over every (s, sigma), in place of the
    # diagonal criterion, so the generated left side meets the definition
    perms = list(itertools.permutations(range(M.n)))
    found = any(
        check_block_form(M, s, sigma) for s in range(1, M.n + 1) for sigma in perms
    )
    return Classification(realizable=found, branch=ODD_LAW)


@pytest.mark.parametrize("n,d", [(2, 2), (2, 4), (2, 6), (3, 2), (3, 4)])
def test_generated_block_forms_equal_the_searched_ones(n, d, monkeypatch):
    monkeypatch.setattr(matrix_class, "_odd_law_decision", _searched_decision)
    rep = criteria_equiv_bruteforce(n, d)
    assert rep.mismatches == ()
    assert rep.total == d ** (n * (n - 1))


@pytest.mark.parametrize("n,d,k", [(2, 4, 6), (3, 2, 37), (3, 4, 1234)])
def test_criteria_equivalence_reports_one_flipped_verdict(n, d, k, monkeypatch):
    flipped = list(iter_all_matrices(n, d))[k]
    true_decision = matrix_class._odd_law_decision

    def decision(M):
        res = true_decision(M)
        if M == flipped:
            return Classification(realizable=not res.realizable, branch=ODD_LAW)
        return res

    monkeypatch.setattr(matrix_class, "_odd_law_decision", decision)
    assert criteria_equiv_bruteforce(n, d).mismatches == (flipped,)


def test_criteria_equivalence_guards():
    with pytest.raises(ValueError):
        criteria_equiv_bruteforce(2, 3)
    # no check is run, so none may be reported
    for d in (0, -2):
        with pytest.raises(ValueError, match="d even"):
            criteria_equiv_bruteforce(2, d)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n = "):
            criteria_equiv_bruteforce(n, 2)
    # the bound is decided without computing d^(n(n-1)) in full
    start = time.perf_counter()
    with pytest.raises(ValueError, match="2\\^9999900000 matrices exceed the bound 1000000"):
        criteria_equiv_bruteforce(10**5, 2)
    assert time.perf_counter() - start < 0.1


def test_criteria_equivalence_cap_is_inclusive(monkeypatch):
    # EQUIV_MAX_MATRICES is the only limit: 4^6 = 4096 matrices for (3, 4)
    assert matrix_class.EQUIV_MAX_MATRICES == 1_000_000
    monkeypatch.setattr(matrix_class, "EQUIV_MAX_MATRICES", 4096)
    assert criteria_equiv_bruteforce(3, 4).total == 4096
    monkeypatch.setattr(matrix_class, "EQUIV_MAX_MATRICES", 4095)
    with pytest.raises(ValueError, match="^4\\^6 matrices exceed the bound 4095$"):
        criteria_equiv_bruteforce(3, 4)
