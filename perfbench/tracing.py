"""Spans around the library's public functions, recorded from outside.

`Tracer.install()` replaces each function in WRAPPED by a recording wrapper
at every module attribute through which the library's upper layers call it
(`is_irreducible` is bound separately in `poly_ring`, `residue_symbol` and
`realize`, for instance) and puts the originals back on exit.  Private
kernels are never wrapped.  Spans stay in memory as parallel arrays and are
written out once, after the traced pass.
"""

import contextlib
import gzip
import importlib
import time
from array import array

# span name -> modules whose attribute of that name is wrapped; the first
# module defines the function, the others import it by name.
WRAPPED = {
    "field_core.field_build": ("field_core",),
    "poly_ring.is_irreducible": ("poly_ring", "residue_symbol", "realize"),
    "poly_ring.gcd": ("poly_ring", "realize"),
    "poly_ring.parse_poly": ("poly_ring",),
    "residue_symbol.symbol": ("residue_symbol", "realize"),
    "residue_symbol.residue_matrix": ("residue_symbol", "realize"),
    "residue_symbol.verify_reciprocity": ("residue_symbol",),
    "residue_symbol.verify_symbol_structure": ("residue_symbol",),
    "matrix_class.classify": ("matrix_class", "realize"),
    "matrix_class.criteria_equiv_bruteforce": ("matrix_class",),
    "realize.realize": ("realize",),
    "realize.crt_combine": ("realize",),
}

IRREDUCIBLE = "poly_ring.is_irreducible"


def _module(name):
    # importlib, not attribute access: the package namespace binds the
    # function realize over the submodule of the same name.
    return importlib.import_module("residuemat." + name)


class Tracer:
    """Span recorder: name, start, end, parent span and op index per span."""

    def __init__(self):
        self.names = list(WRAPPED)
        self.name_ids = array("B")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.op = -1
        self._stack = []
        self.irreducible_tested = 0
        self.irreducible_true = 0

    def _wrap(self, fn, name):
        nid = self.names.index(name)
        clock = time.perf_counter
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        tracer = self

        def enter():
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def leave(idx):
            ends[idx] = clock()
            stack.pop()

        if name == IRREDUCIBLE:
            # A call runs the test only when the per-instance cache is empty;
            # true_ratio is taken over those calls.
            def wrapper(P, *args, **kwargs):
                fresh = getattr(P, "_irred", None) is None
                idx = enter()
                try:
                    result = fn(P, *args, **kwargs)
                finally:
                    leave(idx)
                if fresh:
                    tracer.irreducible_tested += 1
                    tracer.irreducible_true += bool(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                idx = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(idx)

        return wrapper

    @contextlib.contextmanager
    def install(self):
        saved = []
        try:
            for name, module_names in WRAPPED.items():
                attr = name.rsplit(".", 1)[1]
                fn = getattr(_module(module_names[0]), attr)
                wrapper = self._wrap(fn, name)
                for module in map(_module, module_names):
                    if getattr(module, attr, None) is fn:
                        saved.append((module, attr, fn))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def __len__(self):
        return len(self.starts)

    def calls(self):
        counts = [0] * len(self.names)
        for nid in self.name_ids:
            counts[nid] += 1
        return dict(zip(self.names, counts))

    def span_names(self):
        names = self.names
        return [names[nid] for nid in self.name_ids]

    def write_csv_gz(self, path):
        """One line per span: op, name, start, end, parent (span index)."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span,op,name,start,end,parent\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i},{self.ops[i]},{names[self.name_ids[i]]},"
                    f"{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n"
                )
