"""The benchmark's three workloads: seeded inputs, one op, output checks.

Every workload is a closed loop of ops issued one after another by a
single client.  Inputs reach the library only as text or coefficient
tuples and every op builds its own Poly objects, so no per-instance cache
(`Poly._irred`, `Poly._frob`) carries over between ops or runs.  Library
functions are always looked up on their module at call time, so the
tracer's wrappers see every call.

The amount of work per run is a function of (workload, seed, --seconds)
alone, never of the clock: the op count is sized from --seconds with the
per-unit costs measured at the commit that introduced the benchmark, so
wall_s is the time to finish a fixed op list on every commit.
"""

import hashlib
import importlib
import json
import random
from collections import Counter

import irreducibles

field_core = importlib.import_module("residuemat.field_core")
poly_ring = importlib.import_module("residuemat.poly_ring")
residue_symbol = importlib.import_module("residuemat.residue_symbol")
matrix_class = importlib.import_module("residuemat.matrix_class")
realize_mod = importlib.import_module("residuemat.realize")

# Entries whose modulus has at most this degree are sampled for the
# defining-exponentiation check.
EXPONENTIATION_MAX_DEG = 8


class WrongOutput(Exception):
    """The library returned a result the benchmark's checks reject."""


class Op:
    """One unit of work: a label for reports, field key, payload and flags."""

    __slots__ = ("label", "field", "payload", "planted", "fixture", "options")

    def __init__(self, label, field, payload, planted=False, fixture=None, options=None):
        self.label = label
        self.field = field
        self.payload = payload
        self.planted = planted
        self.fixture = fixture
        self.options = options


def field_label(key):
    p, m, d = key
    return f"GF({p}^{m})/{d}" if m > 1 else f"GF({p})/{d}"


def build_contexts(keys):
    """field_build + SymbolContext for every field key (p, m, d): the set-up."""
    return {
        key: residue_symbol.SymbolContext(field_core.field_build(key[0], key[1]), key[2])
        for key in keys
    }


def odd_law(q, d):
    return q % 2 == 1 and ((q - 1) // d) % 2 == 1


def reciprocity_exponent(p, q, d, deg_a, deg_b):
    """Index of (-1)^((q-1)/d * deg_a * deg_b), written out from the law."""
    if p == 2 or ((q - 1) // d * deg_a * deg_b) % 2 == 0:
        return 0
    return d // 2


def necklace(q, n):
    """Number of monic irreducibles of degree n over F_q (Gauss)."""
    return sum(moebius(n // e) * q**e for e in range(1, n + 1) if n % e == 0) // n


def moebius(n):
    out, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    return -out if n > 1 else out


def poly_text(coeffs, p, m):
    """Library text format for an ascending list of element codes."""
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if not c:
            continue
        if m == 1:
            cs = str(c)
        else:
            digits = []
            for _ in range(m):
                c, digit = divmod(c, p)
                digits.append(str(digit))
            cs = "{" + ",".join(digits) + "}"
        mono = "t" if power == 1 else f"t^{power}"
        if power == 0:
            terms.append(cs)
        elif coeffs[power] == 1:
            terms.append(mono)
        else:
            terms.append(f"{cs}*{mono}")
    return " + ".join(terms)


def check_exponentiation(ctx, a, P, k):
    """Entry k of (a/P)_d against a^((|P| - 1)/d) mod P, not the symbol route."""
    f = ctx.field
    e = (f.q ** P.degree - 1) // ctx.d
    r = poly_ring.mod_pow(a, e, P)
    if r.degree != 0:
        raise WrongOutput(f"a^((|P|-1)/d) mod P is not a constant for P of degree {P.degree}")
    step = (f.q - 1) // ctx.d
    want, rem = divmod(f.log[r.coeffs[0]], step)
    if rem or want != k:
        raise WrongOutput(f"symbol entry {k} disagrees with the defining exponentiation ({want})")


def check_sampled_entries(ctx, polys, M, rng, samples):
    pairs = [
        (i, j)
        for i in range(len(polys))
        for j in range(len(polys))
        if i != j and polys[j].degree <= EXPONENTIATION_MAX_DEG
    ]
    for i, j in rng.sample(pairs, min(samples, len(pairs))):
        check_exponentiation(ctx, polys[i], polys[j], M.entries[i][j])


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check_outputs(wl, ops, statuses, results, ctxs, rng):
    """Messages for every wrong output of one pass over the op list."""
    errors = []
    for i, op in enumerate(ops):
        try:
            wl.check(op, statuses[i], results[i], ctxs, rng)
        except WrongOutput as exc:
            errors.append(f"op {i} ({op.label}): {exc}")
    return errors


def outputs_digest(wl, statuses, results):
    """One digest of every op's status and output, in op order."""
    return digest([statuses, [wl.output_digest(s, r) for s, r in zip(statuses, results)]])


# -- realize-stream ------------------------------------------------------------


class RealizeStream:
    """Seeded admissible matrices through `realize`, plus planted rejects.

    One block holds, for each of the six fields, matrices of size 3, 4, 5,
    5, 5, 5, 6 and one planted non-admissible matrix (1 op in 8).  The five
    committed fixtures run once per run with deterministic options and are
    compared byte for byte with their goldens.

    On the odd law the number s of skew rows sets the degree schedule and
    so most of an op's cost: every n >= 6 matrix with s >= 2 fails with
    ResourceExhaustedError, while s = 1 searches at degree 32-40.  So s is
    not drawn at random but runs through 1..n in turn for each (field, n),
    which gives every seed the same mix of schedules; the seed draws the
    entries and the permutation.
    """

    name = "realize-stream"
    fields = ((5, 1, 2), (5, 1, 4), (7, 1, 6), (13, 1, 4), (2, 2, 3), (3, 2, 8))
    SIZES = (3, 4, 5, 5, 5, 5, 6)
    FIXTURES = (
        ("skew_q5_d4", (5, 1)),
        ("sym_q5_d2", (5, 1)),
        ("s2_q13_d4", (13, 1)),
        ("skew_q9_d8", (3, 2)),
        ("mixed_q7_d6", (7, 1)),
    )
    # Seconds per block at the commit that introduced the benchmark.
    BLOCK_SECONDS = 2.7

    def __init__(self, root):
        self.fixtures_dir = root / "tests" / "fixtures"

    def make_ops(self, rng, seconds, ctxs):
        blocks = max(1, round(seconds / self.BLOCK_SECONDS))
        ops = []
        made = Counter()
        for _ in range(blocks):
            for key in self.fields:
                for n in self.SIZES:
                    s = 1 + made[key, n] % n if odd_law(key[0] ** key[1], key[2]) else None
                    made[key, n] += 1
                    text = matrix_text(*admissible_matrix(rng, key, n, s))
                    ops.append(Op(f"{field_label(key)} n={n} s={s or '-'}", key, (text, s)))
                n = rng.randint(3, 6)
                text = matrix_text(*planted_matrix(rng, key, n))
                ops.append(Op(f"{field_label(key)} n={n} planted", key, (text, None), planted=True))
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            op.options = (True, 0) if i % 2 == 0 else (False, rng.randrange(1 << 31))
        for name, (p, m) in self.FIXTURES:
            text = (self.fixtures_dir / f"{name}.mat").read_text(encoding="utf-8")
            d = int(text.split()[1])
            golden = (self.fixtures_dir / "golden" / f"{name}.json").read_text(encoding="utf-8")
            fixture = Op(f"fixture {name}", (p, m, d), (text, None), fixture=(name, golden), options=(True, 0))
            ops.insert(rng.randrange(len(ops) + 1), fixture)
        return ops

    def expected_error(self, op):
        return realize_mod.NotRealizableError if op.planted else None

    def run(self, op, ctxs):
        M = matrix_class.parse_matrix(op.payload[0])
        deterministic, seed = op.options
        opts = realize_mod.RealizeOptions(seed=seed, deterministic=deterministic)
        return realize_mod.realize(ctxs[op.field], M, opts)

    def check(self, op, status, result, ctxs, rng):
        if op.planted:
            if status == "ok":
                raise WrongOutput("a planted non-admissible matrix was realized")
            return
        if status != "ok":
            if isinstance(result, realize_mod.NotRealizableError):
                raise WrongOutput(f"an admissible matrix was rejected: {result}")
            return
        ctx = ctxs[op.field]
        text, s = op.payload
        M = matrix_class.parse_matrix(text)
        R = result
        if s is not None and (R.branch != matrix_class.ODD_LAW or R.s != s):
            raise WrongOutput(f"built with s = {s} skew rows, realized as {R.branch} with s = {R.s}")
        if op.fixture is not None:
            text = json.dumps(R.to_json_dict(), indent=2, sort_keys=True) + "\n"
            if text != op.fixture[1]:
                raise WrongOutput(f"fixture {op.fixture[0]} differs from its golden file")
        polys = list(R.polys)
        if len(set(polys)) != len(polys) or not all(P.is_monic() for P in polys):
            raise WrongOutput("realization is not a tuple of distinct monic polynomials")
        if residue_symbol.residue_matrix(ctx, polys) != M:
            raise WrongOutput("recomputed residue matrix differs from the input")
        if R.branch == matrix_class.ODD_LAW:
            odd = {i for i, P in enumerate(polys) if P.degree % 2 == 1}
            if odd != set(R.sigma[: R.s]):
                raise WrongOutput(f"odd-degree positions {sorted(odd)} do not match s = {R.s}")
        check_sampled_entries(ctx, polys, M, rng, 4)

    def output_digest(self, status, result):
        if status == "ok":
            return digest(result.to_json_dict())
        return digest([type(result).__name__, str(result)])

    def counts(self, outcomes):
        """Exact search counts summed over the transcripts of the realized ops."""
        out = {"candidates_tested": 0, "residue_trials": 0, "degrees_tried": 0, "max_chosen_degree": 0}
        for status, result in outcomes:
            if status != "ok":
                continue
            for step in result.transcript:
                out["candidates_tested"] += step.candidates_tested
                out["residue_trials"] += sum(c.trials for c in step.residues)
                out["degrees_tried"] += len(step.degrees_tried)
                out["max_chosen_degree"] = max(out["max_chosen_degree"], step.chosen.degree)
        return out


def admissible_matrix(rng, key, n, s):
    """Random realizable matrix: block form [[A, B], [B^t, S]] under a random
    permutation, with an s x s skew block A (pairs differ by d/2) on the odd
    law; symmetric on the other law, where s is None."""
    d = key[2]
    s = s or 1
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = rng.randrange(d)
            entries[i][j] = a
            entries[j][i] = (a + d // 2) % d if j < s else a
    perm = list(range(n))
    rng.shuffle(perm)
    entries = [[entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return n, d, entries


def planted_matrix(rng, key, n):
    """An admissible matrix with one entry changed so that its pair is
    neither equal nor conjugate: no law admits it."""
    odd = odd_law(key[0] ** key[1], key[2])
    n, d, entries = admissible_matrix(rng, key, n, rng.randint(1, n) if odd else None)
    i, j = rng.sample(range(n), 2)
    bad = {entries[j][i]}
    if odd:
        bad.add((entries[j][i] + d // 2) % d)
    entries[i][j] = rng.choice([v for v in range(d) if v not in bad])
    return n, d, entries


def matrix_text(n, d, entries):
    rows = [f"{n} {d}"]
    for i in range(n):
        rows.append(" ".join("." if i == j else str(entries[i][j]) for j in range(n)))
    return "\n".join(rows) + "\n"


# -- matrix-highdeg ------------------------------------------------------------


class MatrixHighdeg:
    """Tuples of 6-8 high-degree irreducibles through parse, residue_matrix
    and classify.

    A tuple of size k takes one degree from each of k equal strata of the
    field's degree range, so every op spans the range and the work per op
    barely depends on the seed; the seed picks the degrees inside the
    strata, the polynomials from the pool and their order.
    """

    name = "matrix-highdeg"
    DEGREES = {
        (5, 1, 4): (15, 49),
        (13, 1, 4): (15, 49),
        (3, 2, 8): (12, 32),
        (2, 16, 17): (3, 8),
    }
    fields = tuple(DEGREES)
    # Seconds for one op per field at the commit that introduced the benchmark.
    ROUND_SECONDS = 2.5

    def __init__(self, root):
        self.cache_dir = root / "perfbench" / ".cache"

    def make_ops(self, rng, seconds, ctxs):
        pool = irreducibles.load_pool(self.cache_dir, ctxs, self.DEGREES)
        per_field = max(1, round(seconds / self.ROUND_SECONDS))
        ops = []
        for key, (lo, hi) in self.DEGREES.items():
            p, m, _ = key
            for i in range(per_field):
                k = 6 + i % 3
                width = (hi - lo + 1) / k
                degrees = [lo + int((j + rng.random()) * width) for j in range(k)]
                chosen = []
                for deg in sorted(set(degrees)):
                    chosen += rng.sample(pool[key][deg], degrees.count(deg))
                rng.shuffle(chosen)
                label = f"{field_label(key)} degrees {sorted(len(c) - 1 for c in chosen)}"
                ops.append(Op(label, key, [poly_text(c, p, m) for c in chosen]))
        rng.shuffle(ops)
        return ops

    def expected_error(self, op):
        return None

    def run(self, op, ctxs):
        ctx = ctxs[op.field]
        polys = [poly_ring.parse_poly(text, ctx.field) for text in op.payload]
        M = residue_symbol.residue_matrix(ctx, polys)
        return polys, M, matrix_class.classify(M, ctx.field.q)

    def check(self, op, status, result, ctxs, rng):
        if status != "ok":
            return
        ctx = ctxs[op.field]
        polys, M, cls = result
        p, m, d = op.field
        q = p**m
        if [poly_text(list(P.coeffs), p, m) for P in polys] != op.payload:
            raise WrongOutput("parsed polynomials differ from their text")
        degs = [P.degree for P in polys]
        for i in range(len(polys)):
            for j in range(len(polys)):
                if i != j and (M.entries[i][j] - M.entries[j][i]) % d != reciprocity_exponent(
                    p, q, d, degs[i], degs[j]
                ):
                    raise WrongOutput(f"entries ({i},{j}) and ({j},{i}) break reciprocity")
        if not cls.realizable:
            raise WrongOutput("the residue matrix of an actual tuple was classified not realizable")
        if odd_law(q, d):
            n_odd = sum(deg % 2 for deg in degs)
            if cls.branch != matrix_class.ODD_LAW or cls.s != max(n_odd, 1):
                raise WrongOutput(f"odd-law classification s = {cls.s} for {n_odd} odd degrees")
        elif cls.branch != matrix_class.SYMMETRIC_LAW:
            raise WrongOutput(f"expected the symmetric law, got {cls.branch}")
        check_sampled_entries(ctx, polys, M, rng, 2)

    def output_digest(self, status, result):
        if status == "ok":
            _, M, cls = result
            return digest([M.entries, cls.to_json_dict()])
        return digest([type(result).__name__, str(result)])

    def counts(self, outcomes):
        return {}


# -- verify-sweep --------------------------------------------------------------


class VerifySweep:
    """The CLI's exhaustive self-checks: verify (reciprocity plus symbol
    structure) over six fields and the brute-force criteria equivalence.

    One round is the fixed list of 14 calls in seeded order; --seconds sets
    the number of rounds.
    """

    name = "verify-sweep"
    CONFIGS = ((5, 1, 4, 4), (7, 1, 6, 3), (3, 2, 8, 3), (2, 3, 7, 3), (2, 2, 3, 4), (3, 1, 2, 5))
    EQUIV = ((3, 4), (4, 2))
    fields = tuple(c[:3] for c in CONFIGS)
    # Seconds per round at the commit that introduced the benchmark.
    ROUND_SECONDS = 8.0

    def __init__(self, root):
        pass

    def make_ops(self, rng, seconds, ctxs):
        rounds = max(1, round(seconds / self.ROUND_SECONDS))
        ops = []
        for _ in range(rounds):
            batch = [
                Op(f"reciprocity {field_label(c[:3])} max_deg={c[3]}", c[:3], ("reciprocity", c[3]))
                for c in self.CONFIGS
            ]
            batch += [
                Op(f"structure {field_label(c[:3])} max_deg={min(c[3], 2)}", c[:3], ("structure", min(c[3], 2)))
                for c in self.CONFIGS
            ]
            batch += [Op(f"equiv n={n} d={d}", None, ("equiv", n, d)) for n, d in self.EQUIV]
            rng.shuffle(batch)
            ops += batch
        return ops

    def expected_error(self, op):
        return None

    def run(self, op, ctxs):
        kind = op.payload[0]
        if kind == "reciprocity":
            return residue_symbol.verify_reciprocity(ctxs[op.field], op.payload[1])
        if kind == "structure":
            return residue_symbol.verify_symbol_structure(ctxs[op.field], op.payload[1])
        return matrix_class.criteria_equiv_bruteforce(op.payload[1], op.payload[2])

    def check(self, op, status, result, ctxs, rng):
        if status != "ok":
            return
        kind = op.payload[0]
        if kind == "equiv":
            _, n, d = op.payload
            slots = n * (n - 1)
            if not result.equivalent or result.total != d**slots:
                raise WrongOutput(f"criteria differ for n={n}, d={d}")
            # admissible = symmetric matrices plus one class per skew set of size >= 2
            if result.admissible != d ** (slots // 2) * (2**n - n):
                raise WrongOutput(f"admissible count {result.admissible} for n={n}, d={d}")
            return
        p, m, d = op.field
        q = p**m
        max_deg = op.payload[1]
        counts = [necklace(q, k) for k in range(1, max_deg + 1)]
        if not result.ok:
            raise WrongOutput(f"{kind} check failed over {field_label(op.field)}")
        if kind == "reciprocity":
            N = sum(counts)
            if result.pairs != N * (N - 1):
                raise WrongOutput(f"{result.pairs} reciprocity pairs, expected N(N-1) for N = {N}")
        else:
            sizes = [q**k for k in range(1, max_deg + 1)]
            want = (
                sum(counts),
                sum(c * (s - 1) for c, s in zip(counts, sizes)),
                sum(c * (s - 1) * s // 2 for c, s in zip(counts, sizes)),
            )
            if (result.moduli, result.residues, result.products) != want:
                raise WrongOutput(f"structure counts differ over {field_label(op.field)}")

    def output_digest(self, status, result):
        if status != "ok":
            return digest([type(result).__name__, str(result)])
        out = {k: v for k, v in vars(result).items() if not isinstance(v, tuple)}
        out.update({k: len(v) for k, v in vars(result).items() if isinstance(v, tuple)})
        return digest(out)

    def counts(self, outcomes):
        return {}


WORKLOADS = {w.name: w for w in (RealizeStream, MatrixHighdeg, VerifySweep)}
