"""Unit tests for the benchmark's statistics helpers and tracer.

    python3 -m pytest perfbench -q
"""

import importlib
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import measure

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "n, pct",
    [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_takes_highest_rung_with_ten_beyond(n, pct):
    xs = [float(i) for i in range(n)]
    value, got_pct, beyond = measure.tail(reversed(xs))
    assert got_pct == pct
    rank = math.ceil(Fraction(str(pct)) / 100 * n)
    assert value == xs[rank - 1]
    assert beyond == n - rank >= measure.TAIL_MIN_BEYOND
    higher = [p for p in measure.TAIL_LADDER if p > pct]
    if higher:
        assert n - math.ceil(Fraction(str(min(higher))) / 100 * n) < measure.TAIL_MIN_BEYOND


def test_tail_falls_back_to_the_maximum_below_twenty_samples():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert measure.tail(range(19)) == (18, 100.0, 0)


def test_self_time_subtracts_nested_children():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping, cover [1, 5])
    # and [7, 8]; [1, 3] has a child [1.5, 2]; a second root [11, 12].
    names = ["root", "a", "a.inner", "b", "c", "root"]
    starts = [0.0, 1.0, 1.5, 2.0, 7.0, 11.0]
    ends = [10.0, 3.0, 2.0, 5.0, 8.0, 12.0]
    parents = [-1, 0, 1, 0, 0, -1]
    got = measure.self_times(names, starts, ends, parents)
    assert got == pytest.approx({"root": 5.0 + 1.0, "a": 1.5, "a.inner": 0.5, "b": 3.0, "c": 1.0})


def test_self_time_clips_children_to_their_parent():
    got = measure.self_times(["p", "k"], [0.0, 0.5], [1.0, 2.0], [-1, 0])
    assert got == pytest.approx({"p": 0.5, "k": 1.5})


def test_self_times_sum_to_root_time():
    names = ["r", "x", "y", "z", "y"]
    starts = [0.0, 0.1, 0.2, 0.3, 0.6]
    ends = [1.0, 0.9, 0.5, 0.4, 0.8]
    parents = [-1, 0, 1, 2, 1]
    assert sum(measure.self_times(names, starts, ends, parents).values()) == pytest.approx(1.0)


@pytest.fixture
def library():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        yield importlib.import_module("residuemat.realize")
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_tracer_wraps_every_binding_and_restores_it(library):
    import tracing

    rs = importlib.import_module("residuemat.residue_symbol")
    fc = importlib.import_module("residuemat.field_core")
    mc = importlib.import_module("residuemat.matrix_class")
    originals = (library.realize, library.is_irreducible, rs.is_irreducible, rs.symbol)
    tracer = tracing.Tracer()
    with tracer.install():
        assert library.is_irreducible is not originals[1]
        assert rs.is_irreducible is not originals[2]
        ctx = rs.SymbolContext(fc.field_build(5), 4)
        M = mc.parse_matrix("2 4\n. 1\n3 .\n")
        tracer.op = 0
        R = library.realize(ctx, M)
    assert (library.realize, library.is_irreducible, rs.is_irreducible, rs.symbol) == originals
    names = tracer.span_names()
    assert names[0] == "field_core.field_build" and tracer.parents[0] == -1
    top = names.index("realize.realize")
    assert tracer.parents[top] == -1 and tracer.ops[top] == 0
    for i, name in enumerate(names):
        if name in ("matrix_class.classify", "realize.crt_combine", "residue_symbol.residue_matrix"):
            assert tracer.parents[i] == top
    assert tracer.irreducible_tested >= 1 and tracer.irreducible_true >= len(R.polys)
    self_s = measure.self_times(names, tracer.starts, tracer.ends, tracer.parents)
    total = tracer.ends[top] - tracer.starts[top]
    inside = sum(v for k, v in self_s.items() if k != "field_core.field_build")
    assert inside == pytest.approx(total)
