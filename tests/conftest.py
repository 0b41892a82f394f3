from contextlib import contextmanager

import pytest

from residuemat import SymbolContext, field_build, poly_ring

_FIELD_PARAMS = {
    2: (2, 1),
    3: (3, 1),
    4: (2, 2),
    5: (5, 1),
    7: (7, 1),
    8: (2, 3),
    9: (3, 2),
    13: (13, 1),
    16: (2, 4),
    17: (17, 1),
    263: (263, 1),
    997: (997, 1),
    1021: (1021, 1),
    25: (5, 2),
    256: (2, 8),
    2187: (3, 7),
}

_FIELDS = {}


def get_field(q):
    if q not in _FIELDS:
        p, m = _FIELD_PARAMS[q]
        _FIELDS[q] = field_build(p, m)
    return _FIELDS[q]


def get_context(q, d):
    return SymbolContext(get_field(q), d)


@contextmanager
def forced_route(packed: bool):
    """Every _ben_or chain inside runs on one route, whatever _packed_width
    would pick: on a _Packed of _slots' width, or on coefficient lists
    (packed=False), so that the crossover hides no degree from n = 4 up."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_ring, "_packed_width", lambda f, mod: packed and poly_ring._slots(f, len(mod) - 1))
        yield


def sieve_at_degree(sieve, Q, hdeg):
    """(past, rejects) of one degree deg Q + hdeg of a class's scan, as
    _find_irreducible reads them off its _ClassSieve: the sieve runs only
    for hdeg >= 1 from degree 4 up, and rejects(code) reads h's constant
    c0, the code's most significant digit, off the mask of w's code r."""
    if hdeg < 1 or Q.degree + hdeg < 4:
        return 0, lambda code: False
    low = sieve.q ** (hdeg - 1)

    def rejects(code):
        c0, r = divmod(code, low)
        return bool(sieve.mask(r, hdeg - 1) >> c0 & 1)

    return sieve.past, rejects


def sympy_oracle():
    """(irreducible, product, random_irreducible) over GF(p), by sympy."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p, gf_mul

    # sympy's galoistools take descending coefficient lists over Z/p
    def irreducible(c, p):
        return gf_irreducible_p(c[::-1], p, ZZ)

    def product(a, b, p):
        return gf_mul(a[::-1], b[::-1], p, ZZ)[::-1]

    def random_irreducible(rng, p, deg):
        while True:
            c = [rng.randrange(p) for _ in range(deg)] + [1]
            if irreducible(c, p):
                return c

    return irreducible, product, random_irreducible


@pytest.fixture(scope="session")
def f3():
    return get_field(3)


@pytest.fixture(scope="session")
def f4():
    return get_field(4)


@pytest.fixture(scope="session")
def f5():
    return get_field(5)


@pytest.fixture(scope="session")
def f9():
    return get_field(9)


@pytest.fixture(scope="session")
def f13():
    return get_field(13)
