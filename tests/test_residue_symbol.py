import random

import pytest

from residuemat import (
    DEFAULT_MAX_Q,
    CycMatrix,
    Poly,
    RootIndex,
    SymbolContext,
    constant,
    count_monic_irreducibles,
    from_code,
    index_to_element,
    is_irreducible,
    mod_pow,
    monic_from_code,
    monic_irreducibles,
    norm,
    one,
    parse_poly,
    reciprocity_index,
    residue_matrix,
    symbol,
    variable,
    verify,
    verify_reciprocity,
    verify_symbol_structure,
    zero,
)
from residuemat import poly_ring, residue_symbol
from residuemat.cli import main

from conftest import get_context, get_field
from naive import definition_failures, naive_symbol_index, structure_failures


def test_context_validates_d(f5):
    SymbolContext(f5, 4)
    with pytest.raises(ValueError):
        SymbolContext(f5, 3)
    with pytest.raises(ValueError):
        SymbolContext(f5, 0)


# Values below were computed with the defining power map
# a^((|P|-1)/d) mod P followed by a generator-power scan (see naive.py),
# then frozen.


def test_symbol_small_prime_fields():
    ctx32 = get_context(3, 2)
    f3 = ctx32.field
    t = variable(f3)
    t1 = parse_poly("t+1", f3)
    # t = -1 mod t+1 and (-1)^1 = zeta^1 for d = 2
    assert symbol(ctx32, t, t1) == RootIndex(1, 2)
    assert symbol(ctx32, parse_poly("2", f3), t1) == RootIndex(1, 2)
    assert symbol(ctx32, t1, t) == RootIndex(0, 2)
    # t^2 + 1 = (-1)^2 + 1 = 2 = -1 mod t+1
    assert symbol(ctx32, parse_poly("t^2+1", f3), t1) == RootIndex(1, 2)

    ctx54 = get_context(5, 4)
    f5 = ctx54.field
    assert symbol(ctx54, variable(f5), parse_poly("t+2", f5)) == RootIndex(3, 4)
    assert symbol(ctx54, parse_poly("t+2", f5), variable(f5)) == RootIndex(1, 4)
    assert symbol(ctx54, parse_poly("2", f5), variable(f5)) == RootIndex(1, 4)


def test_symbol_extension_field():
    ctx = get_context(9, 4)
    f9 = ctx.field
    P = parse_poly("t^2 + {0,1}*t + {1,1}", f9)
    assert is_irreducible(P)
    expected = {"t": 1, "t + 1": 0, "{0,1}": 0, "t + {1,1}": 1}
    for text, k in expected.items():
        assert symbol(ctx, parse_poly(text, f9), P) == RootIndex(k, 4)
    Q = parse_poly("t + {0,1}", f9)
    assert symbol(ctx, variable(f9), Q) == RootIndex(2, 4)
    assert symbol(ctx, parse_poly("{1,1}", f9), Q) == RootIndex(1, 4)


@pytest.mark.parametrize(
    "q,d",
    [(3, 2), (5, 2), (5, 4), (7, 3), (7, 6), (9, 4), (9, 8), (4, 3), (8, 7), (13, 4)],
)
def test_symbol_matches_defining_computation(q, d):
    # exhaustive over residues, against the schoolbook power map; a handful
    # of moduli per degree keeps the cross product affordable
    ctx = get_context(q, d)
    f = ctx.field
    for deg in (1, 2):
        moduli = []
        for P in monic_irreducibles(f, deg):
            moduli.append(P)
            if len(moduli) == 3:
                break
        for P in moduli:
            for code in range(1, q**deg):
                a = from_code(f, code)
                assert symbol(ctx, a, P).k == naive_symbol_index(ctx, a, P)


@pytest.mark.parametrize(
    "q,d",
    [(3, 2), (5, 2), (5, 4), (7, 3), (7, 6), (9, 4), (9, 8), (4, 3), (8, 7), (13, 4)],
)
def test_symbol_matches_defining_exponentiation_at_high_degree(q, d):
    # the Euclid-reciprocity route against a^((|P|-1)/d) mod P, at degrees
    # where Euclid's algorithm takes many reduce-strip-swap steps
    ctx = get_context(q, d)
    f = ctx.field
    rng = random.Random(q * 100 + d)
    for n in (3, 8, 17, 32):
        P = Poly(f, [rng.randrange(q) for _ in range(n)] + [1])
        while not is_irreducible(P):
            P = Poly(f, [rng.randrange(q) for _ in range(n)] + [1])
        # constants, then monic and (for q > 2) non-monic arguments below,
        # at and above deg P
        args = [constant(f, 1), constant(f, q - 1)]
        for deg_a in (1, n - 1, n, n + 1, 2 * n):
            for lead in (1, q - 1):
                args.append(Poly(f, [rng.randrange(q) for _ in range(deg_a)] + [lead]))
        e = (norm(P) - 1) // d
        for a in args:
            if (a % P).is_zero():
                continue
            r = mod_pow(a, e, P)
            assert r.degree == 0
            k = symbol(ctx, a, P).k
            assert index_to_element(f, d, k) == r.coeffs[0], (n, a)


@pytest.mark.parametrize("q,d", [(5, 4), (9, 8), (4, 3), (8, 7), (2, 1)])
def test_verify_reciprocity_does_not_use_the_symbol_route(q, d, monkeypatch):
    # the fast route assumes reciprocity, so the check of that law must
    # compute its symbols some other way
    def refuse(*args):
        raise AssertionError("verify_reciprocity reached the reciprocity route")

    monkeypatch.setattr(residue_symbol, "symbol", refuse)
    monkeypatch.setattr(residue_symbol, "_jacobi", refuse)
    rep = verify_reciprocity(get_context(q, d), 2)
    assert rep.ok and rep.pairs > 0


def test_symbol_depends_only_on_residue_class():
    ctx = get_context(9, 8)
    f = ctx.field
    P = parse_poly("t^2 + {0,1}*t + {1,1}", f)
    for a_code in (1, 5, 17, 40):
        a = from_code(f, a_code)
        base = symbol(ctx, a, P)
        for h_code in (1, 9, 33):
            shifted = a + from_code(f, h_code) * P
            assert symbol(ctx, shifted, P) == base


def test_symbol_multiplicative():
    ctx = get_context(5, 4)
    f = ctx.field
    P = parse_poly("t^2 + 2", f)
    assert is_irreducible(P)
    units = [from_code(f, c) for c in range(1, 25)]
    ks = {u: symbol(ctx, u, P).k for u in units}
    for a in units[:8]:
        for b in units:
            prod = (a * b) % P
            assert ks[prod] == (ks[a] + ks[b]) % 4


def test_symbol_power_residue_criterion():
    # index 0 exactly on the d-th powers of the unit group
    ctx = get_context(5, 4)
    f = ctx.field
    P = parse_poly("t^2 + 2", f)
    units = [from_code(f, c) for c in range(1, 25)]
    powers = {mod_pow(u, 4, P) for u in units}
    zero_set = {u for u in units if symbol(ctx, u, P).k == 0}
    assert zero_set == powers
    assert len(zero_set) == 24 // 4


def test_symbol_agrees_with_direct_mod_pow():
    # the symbol route must equal the textbook exponentiation route
    for q, d in ((9, 2), (13, 6), (8, 7)):
        ctx = get_context(q, d)
        f = ctx.field
        for P in monic_irreducibles(f, 3):
            for code in (1, 2, q + 3, q**2 + 1):
                a = from_code(f, code)
                r = mod_pow(a, (norm(P) - 1) // d, P)
                assert r.degree == 0
                k = symbol(ctx, a, P).k
                assert index_to_element(f, d, k) == r.coeffs[0]
            break  # one modulus per field is plenty at degree 3


def test_symbol_errors(f3, f5):
    ctx = get_context(3, 2)
    t = variable(f3)
    with pytest.raises(ValueError, match="symbol undefined: a divisible by P"):
        symbol(ctx, t, t)
    with pytest.raises(ValueError, match="symbol undefined"):
        symbol(ctx, zero(f3), t)
    with pytest.raises(ValueError, match="not irreducible"):
        symbol(ctx, one(f3), parse_poly("t^2+2*t+1", f3))
    with pytest.raises(ValueError, match="monic"):
        symbol(ctx, one(f3), parse_poly("2*t+1", f3))
    with pytest.raises(ValueError, match="monic"):
        symbol(ctx, t, one(f3))
    with pytest.raises(ValueError, match="different field"):
        symbol(ctx, variable(f5), t)
    with pytest.raises(ValueError, match="different field"):
        symbol(ctx, t, variable(f5))


def test_reciprocity_index_values():
    # characteristic 2: the sign is always trivial
    ctx43 = get_context(4, 3)
    assert reciprocity_index(ctx43, 1, 1) == RootIndex(0, 3)
    assert reciprocity_index(ctx43, 3, 5) == RootIndex(0, 3)
    # (q-1)/d even: trivial again
    assert reciprocity_index(get_context(5, 2), 1, 1) == RootIndex(0, 2)
    assert reciprocity_index(get_context(7, 3), 2, 3) == RootIndex(0, 3)
    # (q-1)/d odd and both degrees odd: index d/2
    assert reciprocity_index(get_context(5, 4), 1, 1) == RootIndex(2, 4)
    assert reciprocity_index(get_context(9, 8), 1, 3) == RootIndex(4, 8)
    assert reciprocity_index(get_context(7, 6), 1, 1) == RootIndex(3, 6)
    # one even degree kills the sign
    assert reciprocity_index(get_context(7, 6), 1, 2) == RootIndex(0, 6)
    assert reciprocity_index(get_context(5, 4), 2, 3) == RootIndex(0, 4)
    with pytest.raises(ValueError):
        reciprocity_index(ctx43, 0, 1)


@pytest.mark.parametrize("q,d", [(3, 2), (4, 3), (5, 4), (9, 8)])
def test_reciprocity_law_small(q, d):
    ctx = get_context(q, d)
    f = ctx.field
    polys = [P for deg in (1, 2) for P in monic_irreducibles(f, deg)]
    for P in polys:
        for Q in polys:
            if P == Q:
                continue
            lhs = (symbol(ctx, P, Q).k - symbol(ctx, Q, P).k) % d
            assert lhs == reciprocity_index(ctx, P.degree, Q.degree).k


def test_verify_reciprocity_counts():
    ctx = get_context(3, 2)
    rep = verify_reciprocity(ctx, 3)
    # 3 + 3 + 8 = 14 irreducibles of degree <= 3, so 14*13 ordered pairs
    assert (rep.q, rep.d, rep.max_deg) == (3, 2, 3)
    assert rep.pairs == 182
    assert rep.failures == ()
    assert rep.ok
    assert verify_reciprocity(ctx, 2).pairs == 30
    with pytest.raises(ValueError):
        verify_reciprocity(ctx, 0)


@pytest.mark.parametrize(
    "q,d,max_deg,count",
    [(2, 1, 4, 8), (5, 1, 2, 15), (4, 1, 2, 10), (8, 7, 2, 36)],
)
def test_verify_reciprocity_edge_fields(q, d, max_deg, count):
    # d = 1 (every symbol trivial), GF(2) (trivial unit group of degree 1)
    # and the modulus t (root 0, no logarithm) all pass through the oracle;
    # count is the number of irreducibles of degree <= max_deg
    rep = verify_reciprocity(get_context(q, d), max_deg)
    assert rep.ok
    assert rep.pairs == count * (count - 1)


@pytest.mark.parametrize(
    "q,d,max_deg",
    [
        (3, 2, 3),
        (5, 4, 3),
        (7, 6, 2),
        (4, 3, 3),
        (8, 7, 2),
        (9, 8, 2),
        (3, 2, 5),
        (13, 4, 2),
    ],
)
def test_reciprocity_oracle_matches_naive_exponentiation(q, d, max_deg, monkeypatch):
    # every ordered pair of distinct irreducibles, entry by entry against the
    # digit-arithmetic power map, with every reciprocity-based route refused;
    # (3, 2, 5) reaches four levels below the top degree, (13, 4, 2) has
    # twelve Zech steps per level
    def refuse(*args):
        raise AssertionError("the oracle reached a reciprocity-based route")

    for name in ("symbol", "_jacobi", "reciprocity_index"):
        monkeypatch.setattr(residue_symbol, name, refuse)
    ctx = get_context(q, d)
    f = ctx.field
    polys, cols = residue_symbol._exponent_oracle(ctx, max_deg)
    assert polys == [P for k in range(1, max_deg + 1) for P in monic_irreducibles(f, k)]
    assert len(cols) == len(polys)
    for j, Q in enumerate(polys):
        assert len(cols[j]) == len(polys)
        for i, P in enumerate(polys):
            if i != j:
                assert cols[j][i] == naive_symbol_index(ctx, P, Q), (P, Q)


def test_reciprocity_oracle_matches_naive_exponentiation_sampled():
    # GF(263) with d = 262: indices past 256, and the column of Q = t,
    # whose root is 0, on a seeded sample of ordered pairs
    ctx = get_context(263, 262)
    polys, cols = residue_symbol._exponent_oracle(ctx, 1)
    n = len(polys)
    assert n == 263 and polys[0] == variable(ctx.field)
    rng = random.Random(263)
    sample = rng.sample([(i, j) for i in range(n) for j in range(n) if i != j], 2000)
    assert any(j == 0 for _, j in sample)
    got = [cols[j][i] for i, j in sample]
    assert max(got) > 256
    for (i, j), k in zip(sample, got):
        assert k == naive_symbol_index(ctx, polys[i], polys[j]), (i, j)


@pytest.mark.parametrize(
    "q,max_deg", [(2, 12), (3, 6), (4, 4), (5, 4), (8, 3), (9, 3)]
)
def test_reciprocity_oracle_lists_every_irreducible(q, max_deg):
    # the Frobenius orbits of K_n give exactly the degree-n irreducibles,
    # in enumeration order, t included at n = 1
    f = get_field(q)
    polys, _ = residue_symbol._exponent_oracle(get_context(q, 1), max_deg)
    by_deg = [list(monic_irreducibles(f, n)) for n in range(1, max_deg + 1)]
    assert polys == [P for Ps in by_deg for P in Ps]
    assert [len(Ps) for Ps in by_deg] == [
        count_monic_irreducibles(f, n) for n in range(1, max_deg + 1)
    ]


# a prime field, an odd extension and characteristic 2, each at K_1 and above
@pytest.mark.parametrize("q,n", [(5, 1), (5, 2), (9, 1), (9, 2), (4, 1), (4, 3)])
def test_step_tables_take_the_root_zero_as_the_zero_log(q, n):
    # t's root 0 is coded lb = -2M, the code of the value 0: then for every
    # x, zero-coded or not, beta * v = 0 and beta * v + c = c
    _, roots, fields = residue_symbol._orbit_moduli(get_context(q, 1), n)
    T, R, lcs, M, _ = fields[n]
    assert roots[0] == (1, -2 * fields[1][3])
    lb = -2 * M
    for x in range(-2 * M, 2 * M - 1):
        assert -2 * M <= R[x + lb] < -M, x
        for lc in lcs:
            assert lc + T[x + residue_symbol._shift(lb, lc, M)] == lc, (x, lc)


def test_verify_reciprocity_tests_one_modulus_per_degree(monkeypatch):
    # the irreducibles come from the orbits; Ben-Or only finds each K_n's
    # modulus, the first irreducible of its degree, scanning from t at n = 1
    # and from code 5^(n-1) past the multiples of t after that, instead of
    # scanning all 5 + 25 + 125 + 625 monics
    ctx = get_context(5, 4)
    f = ctx.field
    expected = []
    for n in range(1, 5):
        first = next(monic_irreducibles(f, n))
        for code in range(5 ** (n - 1) if n > 1 else 0, 5**n):
            P = monic_from_code(f, n, code)
            expected.append(P.coeffs)
            if P == first:
                break
    real = poly_ring._ben_or
    seen = []

    def spy(field, mod):
        seen.append(tuple(mod))
        return real(field, mod)

    monkeypatch.setattr(poly_ring, "_ben_or", spy)
    rep = verify_reciprocity(ctx, 4)
    assert rep.ok
    assert seen == expected
    assert len(seen) == 12


def test_verify_reciprocity_reports_a_wrong_law(monkeypatch):
    # off by one when both degrees are odd: exactly those ordered pairs fail,
    # each reported as (P, Q, got, expected) with the true value as got
    true_index = residue_symbol.reciprocity_index

    def skewed(ctx, deg_p, deg_q):
        k = true_index(ctx, deg_p, deg_q).k + deg_p * deg_q % 2
        return RootIndex(k % ctx.d, ctx.d)

    monkeypatch.setattr(residue_symbol, "reciprocity_index", skewed)
    ctx = get_context(5, 4)
    rep = verify_reciprocity(ctx, 2)
    assert not rep.ok
    polys = [P for k in (1, 2) for P in monic_irreducibles(ctx.field, k)]
    # exactly the odd-degree pairs, in enumeration order: (P, Q) before (Q, P)
    odd = [
        pair
        for i, P in enumerate(polys)
        for Q in polys[i + 1 :]
        if P.degree * Q.degree % 2
        for pair in ((P, Q), (Q, P))
    ]
    assert [(P, Q) for P, Q, _, _ in rep.failures] == odd
    for P, Q, got, expected in rep.failures:
        assert got == (naive_symbol_index(ctx, P, Q) - naive_symbol_index(ctx, Q, P)) % 4
        assert expected == (true_index(ctx, P.degree, Q.degree).k + 1) % 4


def test_verify_reciprocity_reports_a_skew_on_one_degree_pair(monkeypatch):
    # off by one on degrees (1, 2) and (2, 1) only: the failing rows also
    # hold passing pairs of degree 1 or 3, and exactly the (1, 2) pairs are
    # reported, in enumeration order, (P, Q) before (Q, P)
    true_index = residue_symbol.reciprocity_index

    def skewed(ctx, deg_p, deg_q):
        k = true_index(ctx, deg_p, deg_q).k + ({deg_p, deg_q} == {1, 2})
        return RootIndex(k % ctx.d, ctx.d)

    monkeypatch.setattr(residue_symbol, "reciprocity_index", skewed)
    ctx = get_context(5, 4)
    rep = verify_reciprocity(ctx, 3)
    polys = [P for k in (1, 2, 3) for P in monic_irreducibles(ctx.field, k)]
    n = len(polys)
    assert rep.pairs == n * (n - 1)
    skew = [
        pair
        for i, P in enumerate(polys)
        for Q in polys[i + 1 :]
        if {P.degree, Q.degree} == {1, 2}
        for pair in ((P, Q), (Q, P))
    ]
    assert len(skew) == 2 * 5 * 10
    assert [(P, Q) for P, Q, _, _ in rep.failures] == skew
    for P, Q, got, expected in rep.failures:
        assert got == (naive_symbol_index(ctx, P, Q) - naive_symbol_index(ctx, Q, P)) % 4
        assert expected == (true_index(ctx, P.degree, Q.degree).k + 1) % 4


PAIRS_REFUSED = "ordered pairs, above the bound 1000000"
SYMBOLS_REFUSED = "symbol calls, above the bound 100000"


@pytest.mark.parametrize("q,d,max_deg", [(2, 1, 21), (2, 1, 30), (1021, 4, 3)])
def test_verify_checks_refuse_a_max_deg_past_the_field_bound(q, d, max_deg, monkeypatch):
    # q^max_deg > DEFAULT_MAX_Q is past both work caps: refused before any table is built
    assert q**max_deg > DEFAULT_MAX_Q

    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(residue_symbol, "_quotient_tables", refuse)
    ctx = get_context(q, d)
    with pytest.raises(ValueError, match=PAIRS_REFUSED):
        verify_reciprocity(ctx, max_deg)
    with pytest.raises(ValueError, match=SYMBOLS_REFUSED):
        verify_symbol_structure(ctx, max_deg)


@pytest.mark.parametrize("max_deg", [20, 10**9])
def test_verify_checks_refuse_past_their_work_caps(max_deg, monkeypatch):
    # GF(2^20) is a field, but the 111,013 irreducibles of degree <= 20 are
    # not a sweep: each count stops once past its cap, before any is listed
    def refuse(*args):
        raise AssertionError("the check started work")

    monkeypatch.setattr(residue_symbol, "_quotient_tables", refuse)
    ctx = get_context(2, 1)
    with pytest.raises(
        ValueError, match=f"to max_deg {max_deg} needs at least 1894752 {PAIRS_REFUSED}"
    ):
        verify_reciprocity(ctx, max_deg)
    with pytest.raises(
        ValueError, match=f"to max_deg {max_deg} needs at least 140646 {SYMBOLS_REFUSED}"
    ):
        verify_symbol_structure(ctx, max_deg)


@pytest.mark.parametrize(
    "q,d,max_deg,refused",
    [(13, 4, 4, PAIRS_REFUSED), (997, 2, 1, SYMBOLS_REFUSED), (2, 1, 20, PAIRS_REFUSED)],
)
def test_verify_refuses_on_either_cap_before_either_check(q, d, max_deg, refused, monkeypatch):
    def refuse(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(residue_symbol, "verify_reciprocity", refuse)
    monkeypatch.setattr(residue_symbol, "verify_symbol_structure", refuse)
    with pytest.raises(ValueError, match=refused):
        verify(get_context(q, d), max_deg)


def test_verify_runs_both_checks_structure_to_degree_two():
    ctx = get_context(3, 2)
    rec, struct = verify(ctx, 3)
    assert rec == verify_reciprocity(ctx, 3)
    assert struct == verify_symbol_structure(ctx, 2)
    assert (rec.pairs, struct.products) == (182, 117)
    with pytest.raises(ValueError, match="max_deg must be >= 1"):
        verify(ctx, 0)


def test_verify_symbol_structure_counts():
    rep = verify_symbol_structure(get_context(3, 2), 2)
    assert (rep.moduli, rep.residues, rep.products) == (6, 30, 117)
    assert rep.failures == ()
    assert rep.ok
    with pytest.raises(ValueError):
        verify_symbol_structure(get_context(3, 2), 0)


@pytest.mark.parametrize("q,d", [(5, 4), (7, 6), (9, 8), (4, 3)])
def test_verify_symbol_structure_ok(q, d):
    assert verify_symbol_structure(get_context(q, d), 2).ok


@pytest.mark.parametrize("q,d", [(3, 2), (4, 3), (5, 4)])
def test_verify_symbol_structure_matches_naive(q, d):
    # the counts are those of the pairwise oracle, which finds the symbol
    # multiplicative and onto; no unit's symbol differs from the definition
    ctx = get_context(q, d)
    want = structure_failures(ctx, 2)
    assert want[3:] == ((), ())
    rep = verify_symbol_structure(ctx, 2)
    assert (rep.moduli, rep.residues, rep.products) == want[:3]
    assert rep.failures == definition_failures(ctx, 2) == ()


@pytest.mark.parametrize(
    "q,d,max_deg,modulus,residue",
    [
        (9, 8, 1, "t + {1,1}", 5),
        (5, 4, 2, "t^2 + 2", 7),
        (4, 3, 1, "t", 2),
        (8, 7, 2, "t^2 + t + 1", 13),
    ],
)
def test_verify_symbol_structure_reports_a_wrong_residue(
    q, d, max_deg, modulus, residue, monkeypatch
):
    # a symbol off by one at a single residue code of a single modulus is
    # one failure, exactly as the definition finds it
    ctx = get_context(q, d)
    f = ctx.field
    bad_P, bad_a = parse_poly(modulus, f), from_code(f, residue)
    true_symbol = residue_symbol.symbol

    def mutant(ctx, a, P):
        k = true_symbol(ctx, a, P)
        if P == bad_P and a == bad_a:
            return RootIndex((k.k + 1) % k.d, k.d)
        return k

    monkeypatch.setattr(residue_symbol, "symbol", mutant)
    want = definition_failures(ctx, max_deg)
    assert [(P, a) for P, a, _, _ in want] == [(bad_P, bad_a)]
    assert verify_symbol_structure(ctx, max_deg).failures == want


def test_verify_symbol_structure_builds_one_field_per_degree(monkeypatch):
    # the expected indices come from the reciprocity check's copies K_1 and
    # K_2 of GF(5) and GF(25), not from one quotient field per modulus
    real = residue_symbol._quotient_tables
    seen = []

    def spy(f, n):
        seen.append(n)
        return real(f, n)

    monkeypatch.setattr(residue_symbol, "_quotient_tables", spy)
    rep = verify_symbol_structure(get_context(5, 4), 2)
    assert rep.ok and rep.moduli == 15
    assert seen == [1, 2]


def test_verify_symbol_structure_reports_a_constant_symbol(monkeypatch):
    # a constant symbol is multiplicative but onto nothing: it fails at every
    # unit whose defining index is nonzero
    ctx = get_context(5, 4)
    monkeypatch.setattr(residue_symbol, "symbol", lambda ctx, a, P: RootIndex(0, ctx.d))
    want = definition_failures(ctx, 2)
    rep = verify_symbol_structure(ctx, 2)
    assert len({P for P, _, _, _ in want}) == rep.moduli == 15
    assert all(got == 0 != expected for _, _, got, expected in want)
    assert rep.failures == want


@pytest.mark.parametrize("q,d,u", [(5, 4, 3), (7, 6, 5), (9, 8, 3), (9, 8, 5), (9, 8, 7)])
def test_verify_reports_a_unit_multiple_of_the_symbol(q, d, u, capsys, monkeypatch):
    # u * symbol is a homomorphism onto Z/d for every unit u of Z/d, so no
    # pairwise test can tell it from the symbol; u = d - 1 negates it.  It
    # differs from the definition wherever (u - 1) * symbol is not 0 mod d
    ctx = get_context(q, d)
    f = ctx.field
    true_symbol = residue_symbol.symbol

    def mutant(ctx, a, P):
        return RootIndex(u * true_symbol(ctx, a, P).k % d, d)

    monkeypatch.setattr(residue_symbol, "symbol", mutant)
    assert structure_failures(ctx, 1)[3:] == ((), ())
    want = definition_failures(ctx, 2)
    assert want and all(got == u * expected % d for _, _, got, expected in want)
    rec, struct = verify(ctx, 2)
    assert rec.ok and struct.failures == want
    argv = ["verify", "--p", str(f.p), "--m", str(f.m), "--d", str(d), "--max-deg", "2"]
    assert main(argv) == 1
    assert capsys.readouterr().out.endswith(f", failures={len(want)}\n")


def test_residue_matrix_entries():
    ctx = get_context(3, 2)
    f = ctx.field
    t = variable(f)
    t1 = parse_poly("t+1", f)
    M = residue_matrix(ctx, [t, t1])
    assert M == CycMatrix(2, 2, [[None, 1], [0, None]])
    assert M.entry(0, 1) == 1  # symbol(t, t+1)
    assert M.entry(1, 0) == 0  # symbol(t+1, t)
    single = residue_matrix(ctx, [t])
    assert single.n == 1 and single.d == 2


def test_residue_matrix_larger():
    ctx = get_context(5, 4)
    f = ctx.field
    polys = [parse_poly(s, f) for s in ("t", "t+1", "t^2+2")]
    M = residue_matrix(ctx, polys)
    assert M.n == 3 and M.d == 4
    for i in range(3):
        for j in range(3):
            if i != j:
                assert M.entry(i, j) == symbol(ctx, polys[i], polys[j]).k


@pytest.mark.parametrize("q,d", [(5, 4), (7, 6), (9, 8), (13, 4), (5, 2), (4, 3)])
def test_residue_matrix_matches_defining_exponentiation(q, d):
    # both triangles, entry by entry, against a^((|P|-1)/d) mod P, which
    # uses no reciprocity: the odd law over (5, 4) .. (13, 4), the
    # symmetric one over (5, 2) and (4, 3).  Each degree tuple holds pairs
    # of equal degree, odd x odd pairs and pairs with deg P_i > deg P_j for
    # i < j, the triangle that residue_matrix computes.
    ctx = get_context(q, d)
    f = ctx.field
    rng = random.Random(8 * q + d)
    for degs in ((3, 3, 1, 5, 2), (7, 4, 4, 1, 9, 6), (21, 2, 11, 1)):
        polys = []
        for n in degs:
            P = None
            while P is None or P in polys or not is_irreducible(P):
                P = Poly(f, [rng.randrange(q) for _ in range(n)] + [1])
            polys.append(P)
        M = residue_matrix(ctx, polys)
        for i, Pi in enumerate(polys):
            for j, Pj in enumerate(polys):
                if i != j:
                    assert M.entry(i, j) == naive_symbol_index(ctx, Pi, Pj), (degs, i, j)


def test_residue_matrix_computes_one_symbol_per_pair(monkeypatch):
    ctx = get_context(5, 4)
    polys = [P for deg in (1, 2) for P in monic_irreducibles(ctx.field, deg)]
    calls = []
    real = residue_symbol.symbol

    def spy(c, a, P):
        calls.append(frozenset((a, P)))
        return real(c, a, P)

    monkeypatch.setattr(residue_symbol, "symbol", spy)
    for n in range(1, 8):
        calls.clear()
        residue_matrix(ctx, polys[:n])
        assert len(calls) == len(set(calls)) == n * (n - 1) // 2


def test_residue_matrix_errors(f3):
    ctx = get_context(3, 2)
    t = variable(f3)
    with pytest.raises(ValueError, match="duplicate"):
        residue_matrix(ctx, [t, t])
    with pytest.raises(ValueError, match="not irreducible"):
        residue_matrix(ctx, [t, parse_poly("t^2+2*t+1", f3)])
    with pytest.raises(ValueError, match="at least one"):
        residue_matrix(ctx, [])
