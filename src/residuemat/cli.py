"""Command-line interface: thin adapters from flags to library calls.

No arithmetic lives here.  Every subcommand parses its arguments, builds
the field context, calls one library entry point, and formats the result.
Exit codes: 0 on success, 1 on a domain error (some precondition violated;
the message names it), 2 on a usage error.

The field is given as --q for a prime, or --p/--m for a prime power
q = p^m; the environment variable RESIDUEMAT_MAX_Q overrides the default
field-size bound.  Polynomial arguments and realize's --max-degree above
MAX_POLY_DEGREE are refused, since an irreducibility test costs about the
cube of the degree (the Frobenius matrix and up to deg/2 gcds; a symbol
only its square).  verify refuses a scan of more than VERIFY_MAX_PAIRS
ordered pairs of irreducibles, the same cap equiv applies to its matrix
count by default, and a structure check of more than VERIFY_MAX_PRODUCTS
residue products; equiv refuses a --bound above EQUIV_MAX_MATRICES.
Matrices travel as text files in the matrix_class format; structured
results are printed as JSON with sorted keys so output is stable for
golden-file comparison.
"""

import argparse
import json
import os
import sys

from .field_core import DEFAULT_MAX_Q, field_build, is_prime
from .matrix_class import criteria_equiv_bruteforce, classify, parse_matrix, format_matrix
from .poly_ring import count_monic_irreducibles, parse_poly
from .realize import RealizeError, RealizeOptions, realize
from .residue_symbol import (
    SymbolContext,
    residue_matrix,
    symbol,
    verify_reciprocity,
    verify_symbol_structure,
)


MAX_POLY_DEGREE = 256
VERIFY_MAX_PAIRS = 1_000_000
VERIFY_MAX_PRODUCTS = 10_000_000
# equiv walks each matrix once; 2^20 admits (5, 2), about 40 s on a 2-vCPU Xeon
EQUIV_MAX_MATRICES = 2**20


class UsageError(Exception):
    """Bad flag combinations (exit code 2)."""


def _max_q() -> int:
    raw = os.environ.get("RESIDUEMAT_MAX_Q")
    if raw is None:
        return DEFAULT_MAX_Q
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"RESIDUEMAT_MAX_Q must be an integer, got {raw!r}") from exc


def _build_field(args):
    if args.q is not None:
        if args.p is not None or args.m is not None:
            raise UsageError("give either --q or --p/--m, not both")
        if not is_prime(args.q):
            raise ValueError(
                f"--q {args.q} is not prime; prime powers must be given as --p/--m"
            )
        return field_build(args.q, 1, max_q=_max_q())
    if args.p is None:
        raise UsageError("a field is required: --q for primes, --p/--m otherwise")
    return field_build(args.p, args.m if args.m is not None else 1, max_q=_max_q())


def _context(args, d: int) -> SymbolContext:
    return SymbolContext(_build_field(args), d)


def _require_d(args) -> int:
    if args.d is None:
        raise UsageError("--d is required")
    return args.d


def _matrix_from_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _resolve_d(args, M) -> int:
    if args.d is not None and args.d != M.d:
        raise ValueError(f"--d {args.d} conflicts with the matrix header d = {M.d}")
    return M.d


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# -- subcommand handlers -------------------------------------------------------


def cmd_symbol(args) -> int:
    ctx = _context(args, _require_d(args))
    a = parse_poly(args.a, ctx.field, max_degree=MAX_POLY_DEGREE)
    P = parse_poly(args.P, ctx.field, max_degree=MAX_POLY_DEGREE)
    ri = symbol(ctx, a, P)
    print(f"index={ri.k} zeta_power={ri.k}/{ri.d}")
    return 0


def cmd_matrix(args) -> int:
    ctx = _context(args, _require_d(args))
    polys = [parse_poly(s, ctx.field, max_degree=MAX_POLY_DEGREE) for s in args.polys]
    sys.stdout.write(format_matrix(residue_matrix(ctx, polys)))
    return 0


def cmd_classify(args) -> int:
    M = _matrix_from_file(args.matrix)
    d = _resolve_d(args, M)
    ctx = _context(args, d)
    _print_json(classify(M, ctx.field.q).to_json_dict())
    return 0


def cmd_realize(args) -> int:
    if args.max_degree > MAX_POLY_DEGREE:
        raise ValueError(
            f"--max-degree {args.max_degree} exceeds the degree bound {MAX_POLY_DEGREE}"
        )
    M = _matrix_from_file(args.matrix)
    d = _resolve_d(args, M)
    ctx = _context(args, d)
    deterministic = args.deterministic or args.seed is None
    opts = RealizeOptions(
        seed=args.seed if args.seed is not None else 0,
        max_degree=args.max_degree,
        deterministic=deterministic,
    )
    _print_json(realize(ctx, M, opts).to_json_dict())
    return 0


def _reciprocity_pairs(field, max_deg: int) -> int:
    """N(N - 1) for the N monic irreducibles of degree <= max_deg, counted
    only until it passes VERIFY_MAX_PAIRS (so a lower bound past it)."""
    n = 0
    for k in range(1, max_deg + 1):
        n += count_monic_irreducibles(field, k)
        if n * (n - 1) > VERIFY_MAX_PAIRS:
            break
    return n * (n - 1)


def _structure_products(field, max_deg: int) -> int:
    """Residue products the structure check compares: |P|(|P| - 1)/2 for
    each monic irreducible P of degree <= max_deg."""
    total = 0
    for k in range(1, max_deg + 1):
        size = field.q**k
        total += count_monic_irreducibles(field, k) * size * (size - 1) // 2
    return total


def cmd_verify(args) -> int:
    ctx = _context(args, _require_d(args))
    pairs = _reciprocity_pairs(ctx.field, args.max_deg)
    if pairs > VERIFY_MAX_PAIRS:
        raise ValueError(
            f"verify --max-deg {args.max_deg} needs at least {pairs} ordered pairs, "
            f"above the bound {VERIFY_MAX_PAIRS}"
        )
    struct_deg = min(args.max_deg, 2)
    products = _structure_products(ctx.field, struct_deg)
    if products > VERIFY_MAX_PRODUCTS:
        raise ValueError(
            f"verify needs {products} residue products for the structure check "
            f"to degree {struct_deg}, above the bound {VERIFY_MAX_PRODUCTS}"
        )
    rec = verify_reciprocity(ctx, args.max_deg)
    struct = verify_symbol_structure(ctx, struct_deg)
    print(f"reciprocity: pairs={rec.pairs}, failures={len(rec.failures)}")
    print(
        f"structure: moduli={struct.moduli}, residues={struct.residues}, "
        f"products={struct.products}, failures="
        f"{len(struct.mult_failures) + len(struct.surjectivity_failures)}"
    )
    return 0 if rec.ok and struct.ok else 1


def cmd_equiv(args) -> int:
    if args.bound > EQUIV_MAX_MATRICES:
        raise ValueError(
            f"--bound {args.bound} exceeds the matrix-count ceiling "
            f"EQUIV_MAX_MATRICES = {EQUIV_MAX_MATRICES}"
        )
    rep = criteria_equiv_bruteforce(args.n, args.d, bound=args.bound)
    verdict = "yes" if rep.equivalent else "no"
    print(
        f"n={rep.n}, d={rep.d}: total={rep.total}, admissible={rep.admissible}, "
        f"equivalent={verdict}"
    )
    return 0 if rep.equivalent else 1


# -- parser --------------------------------------------------------------------


def _add_field_flags(sub, d_required: bool):
    sub.add_argument("--q", type=int, help="field size (primes only)")
    sub.add_argument("--p", type=int, help="field characteristic")
    sub.add_argument("--m", type=int, help="extension degree (with --p)")
    sub.add_argument(
        "--d",
        type=int,
        required=False,
        help="root-of-unity order, must divide q - 1"
        + ("" if d_required else " (defaults to the matrix header)"),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="residuemat",
        description="Power residue symbols, residue matrices, and their "
        "realizability over F_q[t].",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("symbol", help="one d-th power residue symbol")
    _add_field_flags(sp, d_required=True)
    sp.add_argument("--a", required=True, help="upper argument (polynomial text)")
    sp.add_argument("--P", required=True, help="modulus (monic irreducible)")
    sp.set_defaults(func=cmd_symbol)

    sp = subs.add_parser("matrix", help="residue matrix of a polynomial tuple")
    _add_field_flags(sp, d_required=True)
    sp.add_argument("polys", nargs="+", help="distinct monic irreducibles")
    sp.set_defaults(func=cmd_matrix)

    sp = subs.add_parser("classify", help="decide realizability of a matrix")
    _add_field_flags(sp, d_required=False)
    sp.add_argument("--matrix", required=True, help="matrix text file")
    sp.set_defaults(func=cmd_classify)

    sp = subs.add_parser("realize", help="construct a realizing tuple")
    _add_field_flags(sp, d_required=False)
    sp.add_argument("--matrix", required=True, help="matrix text file")
    sp.add_argument("--seed", type=int, help="sample residues/candidates randomly")
    sp.add_argument(
        "--max-degree",
        type=int,
        default=40,
        help=f"degree cutoff (at most {MAX_POLY_DEGREE})",
    )
    sp.add_argument(
        "--deterministic",
        action="store_true",
        help="force enumeration order (default unless --seed is given)",
    )
    sp.set_defaults(func=cmd_realize)

    sp = subs.add_parser("verify", help="exhaustive reciprocity + structure check")
    _add_field_flags(sp, d_required=True)
    sp.add_argument(
        "--max-deg",
        type=int,
        default=3,
        help="degree bound for the reciprocity scan (structure is capped at 2)",
    )
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("equiv", help="brute-force block-form vs diagonal criteria")
    sp.add_argument("--n", type=int, required=True, help="matrix size")
    sp.add_argument("--d", type=int, required=True, help="root order (even)")
    sp.add_argument(
        "--bound",
        type=int,
        default=1_000_000,
        help=f"matrix-count cap (at most {EQUIV_MAX_MATRICES})",
    )
    sp.set_defaults(func=cmd_equiv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, RealizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
