import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from residuemat import (
    CycMatrix,
    NotRealizableError,
    RealizeError,
    RealizeOptions,
    ResourceExhaustedError,
    SymbolContext,
    crt_combine,
    format_poly,
    from_code,
    is_irreducible,
    monic_irreducibles,
    one,
    parse_matrix,
    parse_poly,
    realize,
    residue_matrix,
    symbol,
    variable,
    zero,
)
from residuemat.realize import _choose_residue, _find_irreducible

from conftest import get_context, get_field

FIXTURES = Path(__file__).parent / "fixtures"


def mat(n, d, *rows):
    return CycMatrix(n, d, [list(r) for r in rows])


# -- residue selection ---------------------------------------------------


def test_choose_residue_deterministic():
    ctx = get_context(3, 2)
    f = ctx.field
    t1 = parse_poly("t+1", f)
    assert _choose_residue(ctx, t1, 1, None)[0] == parse_poly("2", f)
    assert _choose_residue(ctx, t1, 0, None)[0] == parse_poly("1", f)
    ctx54 = get_context(5, 4)
    f5 = ctx54.field
    assert _choose_residue(ctx54, variable(f5), 1, None)[0] == parse_poly("2", f5)


def test_choose_residue_target_zero_is_one():
    # 1 has symbol 0 everywhere and is the first residue scanned
    for q, d in ((3, 2), (5, 4), (9, 8)):
        ctx = get_context(q, d)
        t = variable(ctx.field)
        assert _choose_residue(ctx, t, 0, None) == (parse_poly("1", ctx.field), 1)


@pytest.mark.parametrize("q,d", [(5, 4), (9, 2), (13, 6)])
def test_choose_residue_hits_every_target(q, d):
    ctx = get_context(q, d)
    f = ctx.field
    for P in (variable(f), parse_poly("t+1", f)):
        for k in range(d):
            u, _ = _choose_residue(ctx, P, k, None)
            assert symbol(ctx, u, P).k == k
            assert u.degree < P.degree


def test_choose_residue_random_mode():
    ctx = get_context(5, 4)
    t = variable(ctx.field)
    u, _ = _choose_residue(ctx, t, 3, random.Random(7))
    assert symbol(ctx, u, t).k == 3
    # same seed, same draw
    assert _choose_residue(ctx, t, 3, random.Random(7))[0] == u


def test_choose_residue_rejection_rate():
    # symbols are equidistributed, so trials are geometric with mean d
    ctx = get_context(5, 4)
    t = variable(ctx.field)
    rng = random.Random(2024)
    trials = [_choose_residue(ctx, t, i % 4, rng)[1] for i in range(1000)]
    mean = sum(trials) / len(trials)
    assert 2.0 < mean < 6.0


# -- CRT -------------------------------------------------------------------


def test_crt_combine_example(f3):
    t = variable(f3)
    t1 = parse_poly("t+1", f3)
    u0, Q = crt_combine([(parse_poly("1", f3), t), (parse_poly("2", f3), t1)])
    assert u0 == parse_poly("2*t+1", f3)
    assert Q == t * t1


def test_crt_combine_single(f3):
    u0, Q = crt_combine([(parse_poly("2", f3), variable(f3))])
    assert u0 == parse_poly("2", f3) and Q == variable(f3)


def test_crt_combine_reconstructs(f5, f9):
    # over GF(9), moduli of degrees 1, 1, 2, 3: the fold's products run
    # through the Zech kernels
    gf9_moduli = list(itertools.islice(monic_irreducibles(f9, 1), 2))
    gf9_moduli += [next(monic_irreducibles(f9, deg)) for deg in (2, 3)]
    cases = [
        ([parse_poly(s, f5) for s in ("t", "t+1", "t^2+2")], (3, 2, 9)),
        (gf9_moduli, (5, 0, 40, 700)),
    ]
    for moduli, residue_codes in cases:
        f = moduli[0].field
        residues = [from_code(f, c) for c in residue_codes]
        u0, Q = crt_combine(list(zip(residues, moduli)))
        product = one(f)
        for P in moduli:
            product = product * P
        assert Q == product
        assert u0.degree < Q.degree
        for u, P in zip(residues, moduli):
            assert u0 % P == u


def test_crt_combine_zero_residues_allowed(f3):
    u0, Q = crt_combine(
        [(zero(f3), variable(f3)), (parse_poly("1", f3), parse_poly("t+1", f3))]
    )
    assert u0 % variable(f3) == zero(f3)
    assert u0 % parse_poly("t+1", f3) == parse_poly("1", f3)


def test_crt_combine_errors(f3, f5):
    t = variable(f3)
    t1 = parse_poly("t+1", f3)
    with pytest.raises(ValueError, match="at least one"):
        crt_combine([])
    with pytest.raises(ValueError, match="repeated"):
        crt_combine([(parse_poly("1", f3), t), (parse_poly("2", f3), t)])
    with pytest.raises(ValueError, match="not reduced"):
        crt_combine([(t, t)])
    with pytest.raises(ValueError, match="irreducible"):
        crt_combine([(parse_poly("1", f3), parse_poly("t^2+2*t+1", f3))])
    with pytest.raises(ValueError, match="mixed fields"):
        crt_combine([(parse_poly("1", f3), t), (parse_poly("1", f5), variable(f5))])


# -- irreducible search in a residue class --------------------------------


def test_find_irreducible_examples(f3):
    t = variable(f3)
    got, _ = _find_irreducible(parse_poly("1", f3), t, 1, None)
    assert got == parse_poly("t+1", f3)
    got, tested = _find_irreducible(parse_poly("2", f3), t, 2, None)
    assert got == parse_poly("t^2+t+2", f3)  # t^2+2 comes first but has root 1
    assert tested == 2


def test_find_irreducible_respects_class_and_degree(f5):
    Q = parse_poly("t^2+2", f5)
    u0 = parse_poly("t+1", f5)
    for deg in (3, 4, 5):
        P, _ = _find_irreducible(u0, Q, deg, None)
        assert P.degree == deg and P.is_monic() and is_irreducible(P)
        assert P % Q == u0


def test_find_irreducible_none_at_degree():
    f2 = get_field(2)
    Q = parse_poly("t^2+t+1", f2)
    u0 = variable(f2)
    # the only degree-2 candidate is Q + t = t^2 + 1 = (t+1)^2
    assert _find_irreducible(u0, Q, 2, None) == (None, 1)
    assert _find_irreducible(u0, Q, 3, None)[0] == parse_poly("t^3+t+1", f2)


def test_find_irreducible_random_mode(f5):
    Q = variable(f5)
    u0 = parse_poly("2", f5)
    P, _ = _find_irreducible(u0, Q, 4, random.Random(11))
    assert P.degree == 4 and is_irreducible(P) and P % Q == u0
    assert _find_irreducible(u0, Q, 4, random.Random(11))[0] == P


# -- options ---------------------------------------------------------------


def test_realize_options_validation():
    RealizeOptions(seed=5, max_degree=10)
    with pytest.raises(ValueError):
        RealizeOptions(max_degree=1)


# -- realize ----------------------------------------------------------------


def check_realization(ctx, M, res):
    assert len(res.polys) == M.n == len(set(res.polys))
    for P in res.polys:
        assert P.is_monic() and is_irreducible(P)
    assert residue_matrix(ctx, res.polys) == M
    assert len(res.transcript) == M.n
    for i, st in enumerate(res.transcript):
        assert st.position == i + 1
        assert st.chosen == res.polys[res.sigma[i]]
        for choice in st.residues:
            assert st.chosen % choice.modulus == choice.residue
            assert symbol(ctx, choice.residue, choice.modulus).k == choice.target
        assert st.degrees_tried[-1] == st.chosen.degree


def test_realize_one_by_one():
    ctx = get_context(3, 2)
    res = realize(ctx, CycMatrix(1, 2, [[None]]))
    assert res.polys == (variable(ctx.field),)
    assert res.branch == "odd" and res.s == 1 and res.sigma == (0,)
    check_realization(ctx, CycMatrix(1, 2, [[None]]), res)


def test_realize_one_by_one_symmetric_branch():
    ctx = get_context(5, 2)
    res = realize(ctx, CycMatrix(1, 2, [[None]]))
    assert res.branch == "symmetric" and res.s is None
    assert res.polys == (variable(ctx.field),)


def test_realize_symmetric_pair():
    ctx = get_context(5, 2)
    M = mat(2, 2, (None, 1), (1, None))
    res = realize(ctx, M)
    check_realization(ctx, M, res)
    assert res.branch == "symmetric"


def test_realize_skew_pair_odd_degrees():
    ctx = get_context(5, 4)
    M = mat(2, 4, (None, 1), (3, None))
    res = realize(ctx, M)
    check_realization(ctx, M, res)
    assert res.s == 2
    assert all(P.degree % 2 == 1 for P in res.polys)


def test_realize_parity_follows_s():
    # over q = 13, d = 4 the odd law applies; each admissible matrix takes
    # odd degrees at its s skew positions and even degrees elsewhere
    ctx = get_context(13, 4)
    cases = {
        1: mat(3, 4, (None, 1, 0), (1, None, 2), (0, 2, None)),
        2: mat(3, 4, (None, 3, 0), (1, None, 2), (0, 2, None)),
        3: mat(3, 4, (None, 3, 1), (1, None, 2), (3, 0, None)),
    }
    for s, M in cases.items():
        res = realize(ctx, M)
        check_realization(ctx, M, res)
        assert res.s == s
        for i in range(M.n):
            want_odd = 1 if i < s else 0
            assert res.polys[res.sigma[i]].degree % 2 == want_odd


def test_realize_all_two_by_two():
    from residuemat import classify, iter_all_matrices

    for q, d in ((5, 2), (5, 4), (9, 4), (13, 4)):
        ctx = get_context(q, d)
        for M in iter_all_matrices(2, d):
            if classify(M, q).realizable:
                check_realization(ctx, M, realize(ctx, M))


def test_realize_not_realizable():
    ctx = get_context(9, 4)
    with pytest.raises(NotRealizableError, match="witness"):
        realize(ctx, mat(2, 4, (None, 1), (2, None)))
    ctx54 = get_context(5, 4)
    with pytest.raises(NotRealizableError, match="pair"):
        realize(ctx54, mat(2, 4, (None, 0), (1, None)))
    with pytest.raises(NotRealizableError, match="diagonal"):
        realize(ctx54, mat(3, 4, (None, 0, 0), (2, None, 0), (2, 0, None)))


def test_realize_resource_exhausted():
    ctx = get_context(3, 2)
    M = mat(2, 2, (None, 1), (0, None))  # skew: position 2 needs odd degree >= 3
    with pytest.raises(ResourceExhaustedError):
        realize(ctx, M, RealizeOptions(max_degree=2))
    res = realize(ctx, M)  # the default cutoff is fine
    check_realization(ctx, M, res)
    assert res.polys[res.sigma[1]].degree == 3


def test_realize_d_mismatch():
    ctx = get_context(5, 2)
    with pytest.raises(ValueError, match="d = 4"):
        realize(ctx, mat(2, 4, (None, 1), (1, None)))


def test_realize_deterministic_reproducible():
    ctx = get_context(5, 4)
    M = mat(2, 4, (None, 1), (3, None))
    assert realize(ctx, M) == realize(ctx, M)


def test_realize_random_mode():
    ctx = get_context(5, 4)
    M = mat(3, 4, (None, 1, 2), (3, None, 0), (2, 0, None))
    opts = RealizeOptions(seed=42, deterministic=False)
    res = realize(ctx, M, opts)
    check_realization(ctx, M, res)
    assert realize(ctx, M, opts) == res
    # a different seed still realizes the same matrix
    res2 = realize(ctx, M, RealizeOptions(seed=43, deterministic=False))
    check_realization(ctx, M, res2)


# sha256 of the realization JSON, as the CLI prints it, for seed 7 in random
# mode on each committed fixture; no golden file pins random mode
RANDOM_MODE_DIGESTS = {
    ("skew_q5_d4", 5): "ad744e6e15e63ff16e989ef7602e7be8b5e51a74315ab00afb21ad0fe508d7c2",
    ("sym_q5_d2", 5): "1c75a1f67da96d7f37e30cac65e7dd285e0f3493ed2c0ded810dfc00bbb32209",
    ("s2_q13_d4", 13): "92ff8f390cceda149930ca75c9ceb45f41fc6c86343652702512516da27f4547",
    ("skew_q9_d8", 9): "c0dbccdb9abb3e88e032ccf0ee26bd2d3657d0daeeee9ed9effbf4a110ecf626",
    ("mixed_q7_d6", 7): "495f67405d097eda26d974eea1bde4631c99ef92db99a3d831c5d6b9bae2d472",
}


@pytest.mark.parametrize("name,q", sorted(RANDOM_MODE_DIGESTS))
def test_realize_random_mode_is_pinned(name, q):
    M = parse_matrix((FIXTURES / f"{name}.mat").read_text(encoding="utf-8"))
    ctx = get_context(q, M.d)
    res = realize(ctx, M, RealizeOptions(seed=7, deterministic=False))
    check_realization(ctx, M, res)
    # position 1 scans in enumeration order in either mode
    assert res.transcript[0].chosen == variable(ctx.field)
    assert res.transcript[0].crt_residue is None
    blob = json.dumps(res.to_json_dict(), indent=2, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == RANDOM_MODE_DIGESTS[name, q]


def test_realization_json_shape():
    ctx = get_context(5, 4)
    M = mat(2, 4, (None, 1), (3, None))
    res = realize(ctx, M)
    out = res.to_json_dict()
    assert set(out) == {"polys", "branch", "s", "sigma", "transcript"}
    assert out["polys"] == [format_poly(P) for P in res.polys]
    assert out["sigma"] == [i + 1 for i in res.sigma]
    assert out["s"] == 2
    step = out["transcript"][1]
    assert step["position"] == 2
    assert step["residues"][0]["modulus"] == format_poly(res.transcript[1].residues[0].modulus)
    assert isinstance(step["degrees_tried"], list)
    first = out["transcript"][0]
    assert first["crt_residue"] is None and first["crt_modulus"] is None
