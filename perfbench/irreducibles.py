"""Independent generation of random monic irreducibles for the benchmark's inputs.

The benchmark must hand the library inputs it did not make itself, so this
module carries its own coefficient-list arithmetic and Ben-Or's
irreducibility test (gcd(t^(q^i) - t, P) = 1 for every i <= deg P / 2).  It
shares no code with `residuemat.poly_ring`; it only reads a built field's
exp/log tables so that element codes mean the same thing on both sides.

Generating irreducibles of degree ~50 takes a fraction of a second each,
too slow to repeat on every run, so `load_pool` keeps a seed-independent
pool per (field, degree) on disk and the workloads sample from it by seed.
"""

import hashlib
import json
import os
import random

POOL_PER_DEGREE = 4


class Arith:
    """Polynomial arithmetic on ascending lists of element codes of one field.

    Supports prime fields, characteristic-2 extensions (addition is XOR of
    the digit codes) and odd extensions small enough for an addition table.
    """

    def __init__(self, p, m, exp, log):
        self.p, self.m, self.q = p, m, p**m
        self.exp, self.log = exp, log
        if m > 1 and p != 2:
            if self.q > 512:
                raise ValueError(f"no addition table for GF({p}^{m})")
            self._addt = [[self._add_digits(a, b) for b in range(self.q)] for a in range(self.q)]
            self._negt = [row.index(0) for row in self._addt]

    @classmethod
    def of_field(cls, field):
        return cls(field.p, field.m, field.exp, field.log)

    def _add_digits(self, a, b):
        out, mult = 0, 1
        for _ in range(self.m):
            a, da = divmod(a, self.p)
            b, db = divmod(b, self.p)
            out += (da + db) % self.p * mult
            mult *= self.p
        return out

    # -- element operations ----------------------------------------------

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._addt[a][b]

    def neg(self, a):
        if self.m == 1:
            return -a % self.p
        if self.p == 2:
            return a
        return self._negt[a]

    def mul(self, a, b):
        if self.m == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a):
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self.exp[-self.log[a] % (self.q - 1)]

    # -- polynomial operations -------------------------------------------

    def rem(self, a, b):
        """Remainder of a by b (b nonzero); returns a new trimmed list."""
        a = list(a)
        db = len(b) - 1
        inv_lead = self.inv(b[-1])
        add, mul, neg = self.add, self.mul, self.neg
        for pos in range(len(a) - 1, db - 1, -1):
            c = a[pos]
            if c:
                fac = neg(mul(c, inv_lead))
                off = pos - db
                for i in range(db):
                    if b[i]:
                        a[off + i] = add(a[off + i], mul(fac, b[i]))
                a[pos] = 0
        del a[db:]
        while a and a[-1] == 0:
            a.pop()
        return a

    def mulmod(self, a, b, mod):
        if not a or not b:
            return []
        res = [0] * (len(a) + len(b) - 1)
        add, mul = self.add, self.mul
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        res[i + j] = add(res[i + j], mul(x, y))
        return self.rem(res, mod)

    def frobenius(self, a, mod):
        """a^q mod mod by square-and-multiply."""
        e, out, base = self.q, [1], a
        while e:
            if e & 1:
                out = self.mulmod(out, base, mod)
            e >>= 1
            if e:
                base = self.mulmod(base, base, mod)
        return out

    def gcd_degree(self, a, b):
        while b:
            a, b = b, self.rem(a, b)
        return len(a) - 1

    def is_irreducible(self, P):
        """Ben-Or's test on a monic coefficient list of degree >= 1."""
        n = len(P) - 1
        h = [0, 1]
        for _ in range(n // 2):
            h = self.frobenius(h, P)
            diff = list(h) + [0] * (2 - len(h))
            diff[1] = self.add(diff[1], self.neg(1))
            while diff and diff[-1] == 0:
                diff.pop()
            if not diff or self.gcd_degree(P, diff) > 0:
                return False
        return True

    def random_irreducible(self, rng, degree):
        while True:
            P = [rng.randrange(self.q) for _ in range(degree)] + [1]
            if P[0] and self.is_irreducible(P):
                return P


def load_pool(cache_dir, ctxs, degrees):
    """{field key: {degree: [coefficient lists]}} with POOL_PER_DEGREE monic
    irreducibles for every degree in each field's (lo, hi) range.

    The pool is a pure function of its spec (each (field, degree) draws
    from its own fixed seed), so the on-disk copy only saves time.
    """
    spec = {f"{p},{m},{d}": list(rng) for (p, m, d), rng in degrees.items()}
    spec["per_degree"] = POOL_PER_DEGREE
    tag = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]
    path = cache_dir / f"pool-{tag}.json"
    if path.exists():
        raw = json.loads(path.read_text(encoding="ascii"))
        return {key: {int(deg): polys for deg, polys in raw[f"{key[0]},{key[1]},{key[2]}"].items()} for key in degrees}
    pool = {}
    for key, (lo, hi) in degrees.items():
        p, m, _ = key
        arith = Arith.of_field(ctxs[key].field)
        pool[key] = {}
        for deg in range(lo, hi + 1):
            rng = random.Random(f"pool:{p}:{m}:{deg}")
            polys = pool[key][deg] = []
            while len(polys) < POOL_PER_DEGREE:
                P = arith.random_irreducible(rng, deg)
                if P not in polys:
                    polys.append(P)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(
        json.dumps({f"{k[0]},{k[1]},{k[2]}": v for k, v in pool.items()}), encoding="ascii"
    )
    os.replace(tmp, path)
    return pool
