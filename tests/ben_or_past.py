"""Ben-Or started past the sieve, on every monic it can be handed.

realize's sieve proves that a candidate has no irreducible factor of
degree <= past, and _ben_or(f, mod, past) then skips the steps that could
only find such a factor.  This module lists, for past = 1 and 2, every
monic of each degree up to max_deg over GF(q) with no factor of degree
<= past, and checks _ben_or(f, mod, past) == _ben_or(f, mod) on each.
For degrees above past the survivors that pass must be exactly the
count_monic_irreducibles irreducibles, as no factor of an irreducible is
small.

The survivors are found without the sieve, from the field's add and
naive.field_mul_digits alone: level by level over P = t*u + c
(monic_from_code order, c most significant), one byte per monic records
P(beta) for a constant beta, or P mod l as a + b t for a monic
irreducible quadratic l.  A zero byte is a
factor t - beta or l.  Each level is the one below run through one
bytes.translate table per c, so q^2 <= 256 states fit a byte.

Shared by the tier-1 test and the CI step that runs the full sizes;
pytest does not collect this module.  Run as a script to check one
(q, max_deg) and print the survivor counts:

    python tests/ben_or_past.py 5 8
"""

import argparse

from residuemat import count_monic_irreducibles, monic_from_code
from residuemat.poly_ring import _ben_or

from conftest import get_field
from naive import field_mul_digits as mul

ZERO = bytes([1] + [0] * 255)


def _tracks(f):
    """(root tracks, quadratic tracks): per track, the table of
    v -> t*v + c for each c, on byte states; the monic 1 has state 1."""
    q = f.q
    roots = []
    for beta in range(q):
        tables = [bytes(f.add(mul(f, beta, v), c) for v in range(q)) for c in range(q)]
        roots.append([table + bytes(256 - q) for table in tables])
    quads = []
    for l1 in range(q):
        for l0 in range(q):
            # t^2 + l1 t + l0 is irreducible iff it has no root
            if all(f.add(f.add(mul(f, x, x), mul(f, l1, x)), l0) for x in range(q)):
                tables = []
                for c in range(q):
                    # t (a + b t) + c = (c - b l0) + (a - b l1) t mod l
                    row = [
                        f.sub(c, mul(f, b, l0)) + q * f.sub(a, mul(f, b, l1))
                        for b in range(q)
                        for a in range(q)
                    ]
                    tables.append(bytes(row) + bytes(256 - q * q))
                quads.append(tables)
    return roots, quads


def small_factor_flags(f, max_deg: int) -> list:
    """flags[n][past - 1] for n <= max_deg: a bytes of q^n entries, nonzero
    at the codes of the monics of degree n with a factor of degree <= past."""
    q = f.q
    roots, quads = _tracks(f)
    acc = [[0, 0] for _ in range(max_deg + 1)]
    for kind, tracks in ((0, roots), (1, quads)):
        for tables in tracks:
            level = b"\x01"
            for n in range(1, max_deg + 1):
                level = b"".join(level.translate(table) for table in tables)
                acc[n][kind] |= int.from_bytes(level.translate(ZERO), "little")
    return [[a.to_bytes(q**n, "little"), (a | b).to_bytes(q**n, "little")] for n, (a, b) in enumerate(acc)]


def check(q: int, max_deg: int) -> tuple:
    """(survivors at past 1, at past 2) over degrees 1 .. max_deg, after
    checking each; AssertionError on the first verdict that differs."""
    f = get_field(q)
    flags = small_factor_flags(f, max_deg)
    total = [0, 0]
    for n in range(1, max_deg + 1):
        for past in (1, 2):
            found = 0
            for code, hit in enumerate(flags[n][past - 1]):
                if hit:
                    continue
                mod = list(monic_from_code(f, n, code).coeffs)
                want = _ben_or(f, mod)
                assert _ben_or(f, mod, past) == want, (q, past, mod)
                found += want
                total[past - 1] += 1
            if n > past:
                assert found == count_monic_irreducibles(f, n), (q, n, past)
    return tuple(total)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check _ben_or past the sieve over GF(q).")
    parser.add_argument("q", type=int)
    parser.add_argument("max_deg", type=int)
    args = parser.parse_args()
    past1, past2 = check(args.q, args.max_deg)
    print(f"q={args.q} max_deg={args.max_deg}: past1={past1}, past2={past2}")
