"""Run one benchmark workload against the residuemat library in this checkout.

    python3 perfbench/run.py --workload realize-stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ./src, and
realize-stream reads the committed fixtures under ./tests/fixtures.  With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 every op runs once untraced and once traced, and
the JSON holds the per-layer metrics.  Any wrong output, or an
output digest that drifts from an earlier run of the same seed, makes the
exit code 1.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import measure
import tracing

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
WORKLOAD_NAMES = ("realize-stream", "matrix-highdeg", "verify-sweep")

# Set-up is timed in two batches, one before the timed pass and one after
# the checks, so that its median spans the run's changes in machine speed.
# A batch repeats the set-up at least SETUP_MIN_REPS times and until it has
# taken SETUP_MIN_SECONDS (at most SETUP_MAX_REPS times).
SETUP_MIN_REPS = 2
SETUP_MAX_REPS = 2500
SETUP_MIN_SECONDS = 0.5


def parse_args(argv):
    ap = argparse.ArgumentParser(description="residuemat benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="target length of the timed run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def timed_setup(build, keys, times):
    """Contexts from build(keys), the set-up, after one batch of timed
    repetitions whose durations are appended to times."""
    start = len(times)
    ctxs = None
    while len(times) - start < SETUP_MIN_REPS or (
        sum(times[start:]) < SETUP_MIN_SECONDS and len(times) - start < SETUP_MAX_REPS
    ):
        ctxs = None  # let the previous tables go before building new ones
        t0 = time.perf_counter()
        ctxs = build(keys)
        times.append(time.perf_counter() - t0)
    return ctxs


class Pass:
    """Per-op status, result and latency of one run through the op list."""

    def __init__(self):
        self.statuses, self.results, self.latencies = [], [], []
        self.wall = 0.0

    def run(self, wl, op, ctxs):
        expected = wl.expected_error(op)
        t0 = time.perf_counter()
        try:
            result, status = wl.run(op, ctxs), "ok"
        except Exception as exc:  # the loop goes on; the op is recorded as failed
            result = exc
            status = "rejected" if expected is not None and isinstance(exc, expected) else "failed"
        self.latencies.append(time.perf_counter() - t0)
        self.statuses.append(status)
        self.results.append(result)

    @property
    def failed(self):
        return self.statuses.count("failed")


def timed_pass(wl, ops, ctxs):
    """The closed loop: each op is issued when the previous one returns."""
    out = Pass()
    gc.collect()
    start = time.perf_counter()
    for op in ops:
        out.run(wl, op, ctxs)
    out.wall = time.perf_counter() - start
    return out


def paired_passes(wl, ops, ctxs, tracer, traced_ctxs):
    """(untraced, traced): every op once without and once with the tracer,
    back to back in alternating order, so that both sides see the same
    machine state and their ratio is the tracing overhead.  Each side's
    wall is the sum of its op latencies."""
    untraced, traced = Pass(), Pass()
    gc.collect()
    for i, op in enumerate(ops):
        tracer.op = i
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                with tracer.install():
                    traced.run(wl, op, traced_ctxs)
            else:
                untraced.run(wl, op, ctxs)
    untraced.wall, traced.wall = sum(untraced.latencies), sum(traced.latencies)
    return untraced, traced


def code_version():
    """Digest of the library and benchmark sources: outputs must repeat only
    while both are unchanged."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(key, record):
    """Compare with the record of an earlier run of the same key; store it."""
    path = RESULTS / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    before = known.get(key)
    if before is not None and before != record:
        return [f"output digest or search counts drifted from an earlier run of {key}"]
    known[key] = record
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return []


def end_to_end(run, setup_s, peak_rss_mb):
    lat = sorted(run.latencies)
    tail_value, tail_pct, beyond = measure.tail(lat)
    metrics = {
        "wall_s": {"value": run.wall, "unit": "s"},
        "p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "tail_ms": {"value": tail_value * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    extra = {"tail_percentile": tail_pct, "tail_samples_beyond": beyond, "samples": len(lat)}
    return metrics, extra


def per_layer(tracer, counts, untraced, traced):
    calls = tracer.calls()
    self_s = measure.self_times(tracer.span_names(), tracer.starts, tracer.ends, tracer.parents)
    metrics = {}
    for name in tracing.WRAPPED:
        metrics[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s.get(name, 0.0), "unit": "s"}
    tested = tracer.irreducible_tested
    metrics["poly_ring.is_irreducible.tested"] = {"value": tested, "unit": "count"}
    metrics["poly_ring.is_irreducible.true_ratio"] = {
        "value": tracer.irreducible_true / tested if tested else 0.0,
        "unit": "ratio",
    }
    for name in ("candidates_tested", "residue_trials", "degrees_tried", "max_chosen_degree"):
        metrics[f"realize.{name}"] = {
            "value": counts.get(name, 0),
            "unit": "degree" if name == "max_chosen_degree" else "count",
        }
    metrics["trace_overhead"] = {"value": traced.wall / untraced.wall, "unit": "ratio"}
    metrics["trace_overhead.traced_wall_s"] = {"value": traced.wall, "unit": "s"}
    metrics["trace_overhead.untraced_wall_s"] = {"value": untraced.wall, "unit": "s"}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import residuemat
        import workloads
    except ImportError as exc:
        print(f"error: cannot load the residuemat library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(residuemat.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: residuemat was imported from {residuemat.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](ROOT)
    info = machine()
    setup_times = []
    ctxs = timed_setup(workloads.build_contexts, wl.fields, setup_times)
    try:
        ops = wl.make_ops(random.Random(f"{args.workload}:{args.seed}"), args.seconds, ctxs)
    except OSError as exc:
        print(f"error: cannot read the workload's inputs: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        tracer = tracing.Tracer()
        with tracer.install():
            traced_ctxs = workloads.build_contexts(wl.fields)
        untraced, traced = paired_passes(wl, ops, ctxs, tracer, traced_ctxs)
    else:
        untraced = timed_pass(wl, ops, ctxs)
    check_rng = random.Random(f"check:{args.workload}:{args.seed}")
    errors = workloads.check_outputs(wl, ops, untraced.statuses, untraced.results, ctxs, check_rng)
    counts = wl.counts(zip(untraced.statuses, untraced.results))
    digest = workloads.outputs_digest(wl, untraced.statuses, untraced.results)

    if args.trace:
        if workloads.outputs_digest(wl, traced.statuses, traced.results) != digest:
            errors.append("the traced pass produced different outputs from the untraced pass")
        metrics = per_layer(tracer, counts, untraced, traced)
        extra = {"spans": len(tracer)}
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write_csv_gz(RESULTS / f"trace-{args.workload}.csv.gz")
    else:
        # read before the second set-up batch, whose tables sit beside the first
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timed_setup(workloads.build_contexts, wl.fields, setup_times)
        metrics, extra = end_to_end(untraced, statistics.median(setup_times), peak_rss_mb)
        extra.update(setup_reps=len(setup_times))

    RESULTS.mkdir(parents=True, exist_ok=True)
    key = f"{args.workload}|seed={args.seed}|seconds={args.seconds:g}|code={code_version()}"
    errors += check_determinism(key, {"outputs": digest, "counts": counts})

    attempted, failed = len(ops), untraced.failed
    failures = dict(
        Counter(type(r).__name__ for s, r in zip(untraced.statuses, untraced.results) if s == "failed")
    )
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "counts": counts,
        "output_digest": digest,
        "errors": errors,
        "metrics": metrics,
        "ops": [
            [op.label, status, latency]
            for op, status, latency in zip(ops, untraced.statuses, untraced.latencies)
        ],
        **extra,
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8"
    )

    print(f"machine: {info['cpu']}, nproc={info['nproc']}, python {info['python']}")
    print(f"workload {args.workload}, seed {args.seed}, {attempted} ops, trace {args.trace}")
    print(f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted}) {failures or ''}".rstrip())
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(
            f"tail_ms is p{extra['tail_percentile']:g} of {extra['samples']} op latencies "
            f"({extra['tail_samples_beyond']} beyond it); setup_s is the median of {len(setup_times)} set-ups"
        )
    for msg in errors:
        print(f"WRONG: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
