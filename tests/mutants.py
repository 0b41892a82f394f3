"""Mutation harness: faults the tests must keep catching.

Each entry of MUTANTS is (name, file under src/residuemat, exact old text,
new text, test node ids).  For every entry the harness checks that the old
text occurs exactly once in the checkout, copies src/ to a temporary
directory, makes that one replacement in the copy, and runs the entry's
node ids with `pytest -x` against the copy (PYTHONPATH points at it).  The
entry is killed when pytest reports a failed test; it survives when the
tests pass.  The node ids pass on the unmutated tree, which tier-1 checks.

Run from anywhere, with pytest installed:

    python tests/mutants.py

It prints one line per entry and exits 1 if any entry survived, no longer
applies (its old text is gone or repeated, so a refactor moved the code and
the entry must be restated), or could not be run.  pytest does not collect
this file: its name does not start with test_.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_REALIZE = "tests/test_realize.py::"
_SWEEP = _REALIZE + "test_sieve_rejects_exactly_the_candidates_with_a_small_factor"
_CONSTRUCTED = _REALIZE + "test_sieve_on_constructed_classes"
_ABOVE_Q2 = _REALIZE + "test_sieve_on_classes_of_degree_above_q_squared"

MUTANTS = [
    (
        "bits",  # c0's bit read off log c instead of log(-c)
        "realize.py",
        "bits[lc] = 1 << f.neg(c)",
        "bits[lc] = 1 << c",
        [f"{_SWEEP}[5-4-None]", f"{_ABOVE_Q2}[3-2]"],
    ),
    (
        "scales",  # the live betas with tau = 0 dropped
        "realize.py",
        "self.scales = [(i, lbs[i]) for i in live if lu[i] < 0]",
        "self.scales = []",
        [f"{_CONSTRUCTED}[4-3]", f"{_CONSTRUCTED}[17-4]"],
    ),
    (
        "zero-root",  # t's root 0 left out of the sieve's betas
        "realize.py",
        "lbs = lcs + [lb for n, lb in roots if n == 2] + [-2 * M]",
        "lbs = lcs + [lb for n, lb in roots if n == 2]",
        [f"{_CONSTRUCTED}[4-3]", f"{_ABOVE_Q2}[5-4]"],
    ),
    (
        "tails",  # 2M instead of 4M tails in the step tables
        "residue_symbol.py",
        "T = [z if z >= 0 else zero for z in zech] * 3 + [0] * (4 * M)\n"
        "    R = list(range(M)) * 3 + [zero] * (4 * M)",
        "T = [z if z >= 0 else zero for z in zech] * 3 + [0] * (2 * M)\n"
        "    R = list(range(M)) * 3 + [zero] * (2 * M)",
        [f"{_SWEEP}[4-3-None]", f"{_CONSTRUCTED}[9-8]"],
    ),
    (
        "past+1",  # Ben-Or started one factor degree past what the sieve proved
        "realize.py",
        "P._irred = _ben_or(f, P.coeffs, past)",
        "P._irred = _ben_or(f, P.coeffs, past + 1)",
        [f"{_REALIZE}test_realize_steps_match_their_oracles[4-3]",
         f"{_REALIZE}test_realize_random_mode_is_pinned[s2_q13_d4-13]"],
    ),
    (
        "gate",  # the sieve from degree 2 instead of 4
        "realize.py",
        "past = record[0] if record and hdeg >= 1 and degree >= 4 else 0",
        "past = record[0] if record and hdeg >= 1 and degree >= 2 else 0",
        [f"{_REALIZE}test_find_irreducible_examples",
         f"{_REALIZE}test_sieve_does_not_run_below_degree_four[4-3]"],
    ),
    (
        "past=2",  # the roots-only record claims its quadratic factors excluded
        "realize.py",
        "ctx._sieve = (e, M, T, R, steps, lbs, bits)",
        "ctx._sieve = (2, M, T, R, steps, lbs, bits)",
        [f"{_SWEEP}[17-4-None]", f"{_SWEEP}[17-4-3]"],
    ),
    (
        "log-tau",  # log tau in place of log(-tau)
        "realize.py",
        "lts = [(i, (lu[i] - lq[i]) % M) for i in live if lu[i] >= 0]",
        "lts = [(i, (lu[i] - lq[i] + M // 2) % M) for i in live if lu[i] >= 0]",
        [f"{_SWEEP}[5-4-None]", f"{_SWEEP}[7-6-3]"],
    ),
    (
        "last-skew",  # the odd-degree rule dropped at the last skew position
        "realize.py",
        "if s is not None and D % 2 != (k < s):",
        "if s is not None and k != s - 1 and D % 2 != (k < s):",
        [f"{_REALIZE}test_realize_skew_pair_odd_degrees", f"{_REALIZE}test_realize_parity_follows_s"],
    ),
]


def _run(entry, tmp):
    name, file, old, new, node_ids = entry
    text = (ROOT / "src" / "residuemat" / file).read_text(encoding="utf-8")
    if text.count(old) != 1:
        return f"STALE     {name}: its old text occurs {text.count(old)} times in {file}"
    copy = Path(tmp) / name / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (copy / "residuemat" / file).write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import residuemat; print(residuemat.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(copy):
        return f"ERROR     {name}: residuemat was imported from {where or 'nowhere'}"
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed; 0 is a survivor, anything else an
    # unusable run (a node id not found, a collection error)
    if done.returncode == 1:
        return f"killed    {name}"
    if done.returncode == 0:
        return f"SURVIVED  {name}: {' '.join(node_ids)} passed"
    tail = done.stdout.strip().splitlines()[-1:] or ["no output"]
    return f"ERROR     {name}: pytest exit {done.returncode}: {tail[0]}"


def main():
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for entry in MUTANTS:
            line = _run(entry, tmp)
            print(line, flush=True)
            bad += not line.startswith("killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
