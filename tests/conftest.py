import pytest

from residuemat import SymbolContext, field_build

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
