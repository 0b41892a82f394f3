import hashlib
import importlib
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
    field_build,
    format_poly,
    from_code,
    gcd,
    is_irreducible,
    monic_from_code,
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
from residuemat import residue_symbol
from residuemat.poly_ring import MAX_POLY_DEGREE, _ben_or
from residuemat.realize import (
    SIEVE_MAX_NORM,
    _choose_residue,
    _ClassSieve,
    _find_irreducible,
    _random_codes,
    _sieve_tables,
)

import realize_sweep
from conftest import forced_route, get_context, get_field, sieve_at_degree, sympy_oracle
from naive import (
    has_monic_factor,
    poly_divmod_lists,
    poly_mul_lists,
    trial_division_irreducible,
)

# the module: the package exports its function realize under the same name
realize_mod = importlib.import_module("residuemat.realize")

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


def test_choose_residue_falls_back_to_the_scan_after_the_cutoff():
    # an rng that draws only a residue of the wrong symbol: after
    # max(1000, 200 d) draws the scan's residue comes back, with the draws
    # counted as the trials
    for q, d in ((5, 4), (9, 8)):
        ctx = get_context(q, d)
        f = ctx.field
        P = parse_poly("t+1", f)
        target = 1
        wrong = next(c for c in range(1, q) if symbol(ctx, from_code(f, c), P).k != target)

        class Stuck:
            draws = 0

            def randrange(self, lo, hi):
                assert (lo, hi) == (1, q)
                self.draws += 1
                return wrong

        rng = Stuck()
        u, trials = _choose_residue(ctx, P, target, rng)
        assert u == _choose_residue(ctx, P, target, None)[0]
        assert symbol(ctx, u, P).k == target
        assert trials == rng.draws == max(1000, 200 * d)


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
    ctx = get_context(3, 2)
    t = variable(f3)
    got, _, _ = _find_irreducible(ctx, parse_poly("1", f3), t, [1], None)
    assert got == parse_poly("t+1", f3)
    got, tested, _ = _find_irreducible(ctx, parse_poly("2", f3), t, [2], None)
    assert got == parse_poly("t^2+t+2", f3)  # t^2+2 comes first but has root 1
    assert tested == 2


def test_find_irreducible_respects_class_and_degree(f5):
    Q = parse_poly("t^2+2", f5)
    u0 = parse_poly("t+1", f5)
    for deg in (3, 4, 5):
        P, _, _ = _find_irreducible(get_context(5, 4), u0, Q, [deg], None)
        assert P.degree == deg and P.is_monic() and is_irreducible(P)
        assert P % Q == u0


def test_find_irreducible_none_at_degree():
    ctx = get_context(2, 1)
    f2 = ctx.field
    Q = parse_poly("t^2+t+1", f2)
    u0 = variable(f2)
    # the only degree-2 candidate is Q + t = t^2 + 1 = (t+1)^2
    assert _find_irreducible(ctx, u0, Q, [2], None) == (None, 1, (2,))
    assert _find_irreducible(ctx, u0, Q, [3], None)[0] == parse_poly("t^3+t+1", f2)
    # one scan over both degrees counts the candidates of each: t^3 + t^2
    # comes before t^3 + t + 1
    assert _find_irreducible(ctx, u0, Q, [2, 3], None) == (parse_poly("t^3+t+1", f2), 3, (2, 3))
    assert _find_irreducible(ctx, u0, Q, [], None) == (None, 0, ())


def test_find_irreducible_random_mode(f5):
    Q = variable(f5)
    u0 = parse_poly("2", f5)
    ctx = get_context(5, 4)
    P, _, _ = _find_irreducible(ctx, u0, Q, [4], random.Random(11))
    assert P.degree == 4 and is_irreducible(P) and P % Q == u0
    assert _find_irreducible(ctx, u0, Q, [4], random.Random(11))[0] == P


def test_find_irreducible_random_mode_above_two_to_the_sixteen_codes():
    # 13^5 candidates h of degree 5 exceed 2^16, so the seeded search draws
    # codes without replacement instead of shuffling them all
    ctx = get_context(13, 4)
    f13 = ctx.field
    Q, u0 = variable(f13), one(f13)
    P, tested, _ = _find_irreducible(ctx, u0, Q, [6], random.Random(5))
    assert P.degree == 6 and P.is_monic() and P.coeffs[0] == 1  # P = 1 mod t
    assert _find_irreducible(ctx, u0, Q, [6], random.Random(5)) == (P, tested, (6,))
    # the sieve only skips: trial division alone picks the same candidate
    assert _trial_division_scan(u0, Q, [6], random.Random(5)) == (P, tested, (6,))
    _, rejects = sieve_at_degree(_ClassSieve(_sieve_tables(ctx), u0, Q), Q, 5)
    for code in itertools.islice(_random_codes(13**5, random.Random(5)), 40):
        C = Q * monic_from_code(f13, 5, code) + u0
        assert rejects(code) == has_monic_factor(C, 2), format_poly(C)


# -- the small-factor sieve ------------------------------------------------

# (q, d) of the realize-stream benchmark workload
REALIZE_STREAM_FIELDS = ((5, 2), (5, 4), (7, 6), (13, 4), (4, 3), (9, 8))


def _sieve_degree(q, degree):
    """The largest degree of factor the sieve looks for in a candidate:
    none below degree 4."""
    if degree < 4:
        return 0
    return max(e for e in range(3) if q**e <= SIEVE_MAX_NORM)


def _trial_division_scan(u0, Q, degrees, rng):
    """_find_irreducible's (P, tested, tried), with trial division as the
    only test."""
    f = Q.field
    tested = 0
    tried = []
    for degree in degrees:
        tried.append(degree)
        hdeg = degree - Q.degree
        space = f.q**hdeg
        if rng is None:
            codes = range(space)
        elif space <= 1 << 16:
            codes = list(range(space))
            rng.shuffle(codes)
        else:
            codes = _random_codes(space, rng)
        for code in codes:
            tested += 1
            P = Q * monic_from_code(f, hdeg, code) + u0
            if trial_division_irreducible(P):
                return P, tested, tuple(tried)
    return None, tested, tuple(tried)


def _rng(state):
    if state is None:
        return None
    rng = random.Random()
    rng.setstate(state)
    return rng


def _scanned_classes(monkeypatch, ctx, seed):
    """(u0, Q, degrees, rng state) of every class realize scans for a
    seeded symmetric 3x3 matrix (admissible on either law, with s = 1 on
    the odd law), deterministic when seed is None; degrees are the ones
    the scan tried."""
    n, d = 3, ctx.d
    draw = random.Random(f"sieve:{ctx.field.q}:{d}:{seed}")
    rows = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rows[j][i] = draw.randrange(d)
    classes = []
    scan = realize_mod._find_irreducible

    def record(ctx, u0, Q, degrees, rng):
        state = None if rng is None else rng.getstate()
        got = scan(ctx, u0, Q, degrees, rng)
        classes.append((u0, Q, got[2], state))
        return got

    monkeypatch.setattr(realize_mod, "_find_irreducible", record)
    opts = RealizeOptions(seed=seed or 0, deterministic=seed is None)
    realize(ctx, CycMatrix(n, d, rows), opts)
    monkeypatch.undo()
    return classes


@pytest.mark.parametrize("seed", [None, 3])
# plus the largest field with quadratic factors and the smallest with roots alone
@pytest.mark.parametrize("q,d", REALIZE_STREAM_FIELDS + ((16, 5), (17, 4)))
def test_sieve_rejects_exactly_the_candidates_with_a_small_factor(monkeypatch, q, d, seed):
    ctx = get_context(q, d)
    f = ctx.field
    classes = _scanned_classes(monkeypatch, ctx, seed)
    assert len(classes) >= 3
    for u0, Q, degrees, state in classes:
        sieve = _ClassSieve(_sieve_tables(ctx), u0, Q)
        # the scanned degrees and two above them, where h has more digits
        for hdeg in range(degrees[0] - Q.degree, degrees[-1] - Q.degree + 3):
            past, rejects = sieve_at_degree(sieve, Q, hdeg)
            top = _sieve_degree(q, Q.degree + hdeg)
            space = q**hdeg
            draw = random.Random(hdeg)
            codes = range(space) if space <= 16 else draw.sample(range(space), 16)
            for code in codes:
                P = Q * monic_from_code(f, hdeg, code) + u0
                assert rejects(code) == has_monic_factor(P, top), format_poly(P)
                # what _ben_or may assume of a survivor
                if not rejects(code):
                    assert not has_monic_factor(P, past), format_poly(P)
        # the sieve only skips: the scan picks what trial division alone picks
        got = _find_irreducible(ctx, u0, Q, degrees, _rng(state))
        assert got == _trial_division_scan(u0, Q, degrees, _rng(state))


@pytest.mark.parametrize("q,d", [(2, 1), (4, 3), (16, 5), (17, 4)])
def test_sieve_does_not_run_below_degree_four(monkeypatch, q, d):
    # Ben-Or is a root test there: every class of degree 2 or 3 keeps past 0
    # and rejects nothing, reducible candidates included
    ctx = get_context(q, d)
    f = ctx.field
    for Q, u0 in ((one(f), zero(f)), (variable(f), one(f))):
        sieve = _ClassSieve(_sieve_tables(ctx), u0, Q)
        for degree in (2, 3):
            hdeg = degree - Q.degree
            past, rejects = sieve_at_degree(sieve, Q, hdeg)
            assert past == 0
            codes = range(q**hdeg)
            assert not any(rejects(code) for code in codes)
            assert any(has_monic_factor(Q * monic_from_code(f, hdeg, c) + u0, 1) for c in codes)
        # _find_irreducible's own gate: no sieve is set up and no Ben-Or is
        # started past the sieve at these degrees
        built = []
        with monkeypatch.context() as mp:
            mp.setattr(realize_mod, "_ClassSieve", lambda *args: built.append(args))
            mp.setattr(realize_mod, "_ben_or", None)
            got = _find_irreducible(ctx, u0, Q, (2, 3), None)
        assert got == _trial_division_scan(u0, Q, (2, 3), None)
        assert not built
    assert _ClassSieve(_sieve_tables(ctx), one(f), variable(f)).record[0] == (2 if q <= 16 else 1)


@pytest.mark.parametrize("q,d", [(3, 2), (4, 3), (5, 4)])
def test_sieve_on_classes_of_degree_above_q_squared(q, d):
    ctx = get_context(q, d)
    f = ctx.field
    draw = random.Random(q)
    Q = monic_from_code(f, q * q + 2, draw.randrange(q ** (q * q + 2)))
    u0 = from_code(f, draw.randrange(q ** (q * q + 2)))
    while gcd(u0, Q).degree:
        u0 = from_code(f, draw.randrange(q ** (q * q + 2)))
    sieve = _ClassSieve(_sieve_tables(ctx), u0, Q)
    for hdeg in (1, 2, 3):
        _, rejects = sieve_at_degree(sieve, Q, hdeg)
        for code in draw.sample(range(q**hdeg), min(8, q**hdeg)):
            P = Q * monic_from_code(f, hdeg, code) + u0
            assert rejects(code) == has_monic_factor(P, 2), format_poly(P)


@pytest.mark.parametrize("q,d", [(4, 3), (9, 8), (13, 4), (17, 4)])
def test_sieve_on_constructed_classes(q, d):
    # Q = (t - 1) L vanishes at the constant 1 and, for q <= 16, at a
    # quadratic root, so those roots are dead; one class has tau = 0 at t's
    # root 0 and at the constant 2, the other tau = 0 at the roots of a
    # second quadratic L2 and a live root 0 with tau != 0, which realize
    # never builds: t | Q from position 2 on
    ctx = get_context(q, d)
    f = ctx.field
    t = variable(f)
    quadratics = monic_irreducibles(f, 2)
    L, L2 = next(quadratics), next(quadratics)
    Q = (t - one(f)) * L
    lbs = _sieve_tables(ctx)[5]
    quad = 1 if q <= 16 else 0
    classes = (
        # tau = 0 at t's root 0 and at the constant 2
        (t * (t - from_code(f, 2)), 2, "scales"),
        # tau = 0 at L2's listed root, tau != 0 at t's root 0
        (L2, quad, "adds"),
    )
    for u0, scaled, zero_root in classes:
        assert gcd(u0, Q).degree == 0
        sieve = _ClassSieve(_sieve_tables(ctx), u0, Q)
        # one constant and one quadratic root dead, the others live
        assert len(sieve.adds) + len(sieve.scales) == len(lbs) - 1 - quad
        assert len(sieve.scales) == scaled
        # t's root 0 comes last in the record
        assert len(lbs) - 1 in [entry[0] for entry in getattr(sieve, zero_root)]
        for hdeg in (1, 2):
            past, rejects = sieve_at_degree(sieve, Q, hdeg)
            top = _sieve_degree(q, Q.degree + hdeg)
            assert past == top
            for code in range(q**hdeg):
                P = Q * monic_from_code(f, hdeg, code) + u0
                assert rejects(code) == has_monic_factor(P, top), format_poly(P)
        got = _find_irreducible(ctx, u0, Q, (4, 5), None)
        assert got == _trial_division_scan(u0, Q, (4, 5), None)


@pytest.mark.parametrize(
    "q,seed,text",
    [
        (9, 5, "5 8\n. 3 5 1 6\n3 . 2 7 4\n5 2 . 0 5\n1 7 0 . 2\n6 4 5 2 .\n"),
        (17, None, "5 4\n. 1 2 3 1\n1 . 0 2 3\n2 0 . 1 2\n3 2 1 . 0\n1 3 2 0 .\n"),
    ],
)
def test_realize_sets_up_one_sieve_per_position(monkeypatch, q, seed, text):
    # at most one set-up per position, however many degrees it tries: the
    # positions whose scan reaches a degree >= 4 with deg h >= 1 set their
    # class up once, the others not at all
    M = parse_matrix(text)
    built = []

    class Counted(_ClassSieve):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(realize_mod, "_ClassSieve", Counted)
    opts = RealizeOptions(seed=seed or 0, deterministic=seed is None)
    ctx = get_context(q, M.d)
    R = realize(ctx, M, opts)
    assert max(len(step.degrees_tried) for step in R.transcript) >= 2
    moduli = [step.crt_modulus or one(ctx.field) for step in R.transcript]
    sieved = [
        Q for Q, step in zip(moduli, R.transcript)
        if any(deg >= 4 and deg > Q.degree for deg in step.degrees_tried)
    ]
    assert [args[2] for args in built] == sieved
    assert len(built) == 3


def test_realize_above_the_sieve_limit_sets_up_no_sieve(monkeypatch):
    # GF(1021) has no sieve record, so no class is set up, although
    # positions 3 and 4 scan degrees 4 and 8 past their moduli
    built = []
    monkeypatch.setattr(realize_mod, "_ClassSieve", lambda *args: built.append(args))
    ctx = get_context(1021, 2)
    M = mat(4, 2, [None, 1, 0, 1], [1, None, 1, 0], [0, 1, None, 1], [1, 0, 1, None])
    R = realize(ctx, M)
    assert residue_matrix(ctx, R.polys) == M
    assert [step.degrees_tried for step in R.transcript] == [(1,), (2,), (4,), (8,)]
    assert ctx._sieve == () and not built


@pytest.mark.parametrize("p,m", [(5, 1), (1021, 1), (2, 16)])
def test_symbol_context_builds_no_sieve_table(monkeypatch, p, m):
    f = field_build(p, m)
    built = []
    monkeypatch.setattr(residue_symbol, "_quotient_tables", lambda *args: built.append(args))
    ctx = SymbolContext(f, 1)
    assert ctx._sieve is None and not built


def test_sieve_above_the_limit_builds_no_copy_of_gf_q_squared(monkeypatch):
    # 31^2 is above SIEVE_MAX_NORM, so the sieve looks for roots only
    assert 31 <= SIEVE_MAX_NORM < 31**2
    degrees = []
    quotient_tables = residue_symbol._quotient_tables

    def record(f, n):
        degrees.append(n)
        return quotient_tables(f, n)

    monkeypatch.setattr(residue_symbol, "_quotient_tables", record)
    ctx = SymbolContext(field_build(31), 2)
    M = CycMatrix(3, 2, [[None, 1, 0], [1, None, 1], [0, 1, None]])
    R = realize(ctx, M)
    assert residue_matrix(ctx, R.polys) == M
    # one record, K_1's: e = 1 and M = q - 1
    assert degrees == [1] and ctx._sieve[:2] == (1, 30)
    realize(ctx, M, RealizeOptions(seed=1, deterministic=False))
    assert degrees == [1]


# -- options ---------------------------------------------------------------


def test_realize_options_validation():
    RealizeOptions(seed=5, max_degree=10)
    with pytest.raises(ValueError):
        RealizeOptions(max_degree=1)
    # the search's degree cutoff obeys the polynomial degree bound
    assert RealizeOptions(max_degree=MAX_POLY_DEGREE).max_degree == 256
    with pytest.raises(ValueError, match="max_degree 257 exceeds the degree bound 256"):
        RealizeOptions(max_degree=MAX_POLY_DEGREE + 1)


@pytest.mark.parametrize("max_degree", [3.0, "40", True])
def test_realize_options_refuse_a_non_int_max_degree(max_degree):
    # 3.0 passed both range checks, and realize then raised a TypeError
    # from range(); "40" raised a bare TypeError from the comparison
    with pytest.raises(ValueError, match=f"^max_degree must be an int, got {max_degree!r}$"):
        RealizeOptions(max_degree=max_degree)


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


# n = 3 over realize-stream's six (q, d), n = 4 where it stays quick, in
# deterministic mode and at seed 1; the CI runs n = 4 over GF(5)/4 (2,228
# orbits) as a script in both modes
@pytest.mark.parametrize(
    "q,d,n", [(q, d, 3) for q, d in REALIZE_STREAM_FIELDS] + [(5, 2, 4), (4, 3, 4)]
)
def test_realize_every_orbit_matches_the_definition(q, d, n):
    for seed in (None, 1):
        assert realize_sweep.sweep(q, d, n, seed)[0] == realize_sweep.ORBITS[q, d, n]


@pytest.mark.parametrize("q,d", REALIZE_STREAM_FIELDS)
def test_realize_steps_match_their_oracles(q, d):
    # realize folds its congruences with Garner's cached prefix products and
    # tests candidates past the sieve; each step is checked by definition,
    # with none of that code: (u0, Q) with tests/naive.py's digit
    # arithmetic, and each chosen P by sympy over a prime field, or over
    # GF(4) and GF(9) by _ben_or from its root test on the list route, which
    # realize's packed survivors did not take
    ctx = get_context(q, d)
    f = ctx.field
    if f.m == 1:
        sympy_irreducible = sympy_oracle()[0]

        def irreducible(P):
            return sympy_irreducible(list(P.coeffs), q)

    else:

        def irreducible(P):
            with forced_route(packed=False):
                return _ben_or(f, list(P.coeffs))

    draw = random.Random(f"oracles:{q}:{d}")
    for n in (5, 6):
        # symmetric: admissible on either law, with s = 1 on the odd law
        rows = [[None] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            rows[i][j] = rows[j][i] = draw.randrange(d)
        M = CycMatrix(n, d, rows)
        for opts in (None, RealizeOptions(seed=draw.randrange(1 << 31), deterministic=False)):
            R = realize(ctx, M, opts)
            for step in R.transcript:
                assert irreducible(step.chosen), format_poly(step.chosen)
                if not step.residues:
                    continue
                # Q = P_1 ... P_k, deg u0 < deg Q and u0 = u_j mod P_j
                Q, u0 = [1], list(step.crt_residue.coeffs)
                for c in step.residues:
                    P_j = list(c.modulus.coeffs)
                    Q = poly_mul_lists(f, Q, P_j)
                    assert poly_divmod_lists(f, u0, P_j)[1] == list(c.residue.coeffs)
                assert list(step.crt_modulus.coeffs) == Q
                assert len(u0) < len(Q)


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
