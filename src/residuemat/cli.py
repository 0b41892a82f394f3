"""Command-line interface: thin adapters from flags to library calls.

No arithmetic and no bound lives here.  Every subcommand parses its
arguments, builds the field context, calls one library entry point, and
formats the result.  Each cap on work is a library constant, enforced by
the library call that spends it (README lists them), so a refusal reads
the same from the CLI and from Python; realize --max-degree, the one flag
whose default the library also states, reads it from there.
Exit codes: 0 on success, 1 on a domain error (some precondition violated;
the message names it), 2 on a usage error.

The field is given as --q for a prime, or --p/--m for a prime power
q = p^m.  Matrices travel as text files in the matrix_class format;
structured results are printed as JSON with sorted keys so output is
stable for golden-file comparison.
"""

import argparse
import json
import sys

from .field_core import field_build, is_prime
from .matrix_class import classify, criteria_equiv_bruteforce, format_matrix, parse_matrix
from .poly_ring import MAX_POLY_DEGREE, parse_poly
from .realize import RealizeError, RealizeOptions, realize
from .residue_symbol import (
    VERIFY_STRUCTURE_DEG,
    SymbolContext,
    residue_matrix,
    symbol,
    verify,
)


class UsageError(Exception):
    """Bad flag combinations (exit code 2)."""


def _build_field(args):
    if args.q is not None:
        if args.p is not None or args.m is not None:
            raise UsageError("give either --q or --p/--m, not both")
        if not is_prime(args.q):
            raise ValueError(
                f"--q {args.q} is not prime; prime powers must be given as --p/--m"
            )
        return field_build(args.q)
    if args.p is None:
        raise UsageError("a field is required: --q for primes, --p/--m otherwise")
    return field_build(args.p, args.m if args.m is not None else 1)


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
    a = parse_poly(args.a, ctx.field)
    P = parse_poly(args.P, ctx.field)
    ri = symbol(ctx, a, P)
    print(f"index={ri.k} zeta_power={ri.k}/{ri.d}")
    return 0


def cmd_matrix(args) -> int:
    ctx = _context(args, _require_d(args))
    polys = [parse_poly(s, ctx.field) for s in args.polys]
    sys.stdout.write(format_matrix(residue_matrix(ctx, polys)))
    return 0


def cmd_classify(args) -> int:
    M = _matrix_from_file(args.matrix)
    d = _resolve_d(args, M)
    ctx = _context(args, d)
    _print_json(classify(M, ctx.field.q).to_json_dict())
    return 0


def cmd_realize(args) -> int:
    opts = RealizeOptions(
        seed=args.seed if args.seed is not None else 0,
        max_degree=args.max_degree,
        deterministic=args.seed is None,
    )
    M = _matrix_from_file(args.matrix)
    ctx = _context(args, _resolve_d(args, M))
    _print_json(realize(ctx, M, opts).to_json_dict())
    return 0


def cmd_verify(args) -> int:
    rec, struct = verify(_context(args, _require_d(args)), args.max_deg)
    print(f"reciprocity: pairs={rec.pairs}, failures={len(rec.failures)}")
    print(
        f"structure: moduli={struct.moduli}, residues={struct.residues}, "
        f"products={struct.products}, failures={len(struct.failures)}"
    )
    return 0 if rec.ok and struct.ok else 1


def cmd_equiv(args) -> int:
    rep = criteria_equiv_bruteforce(args.n, args.d)
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
    sp.add_argument(
        "--seed", type=int, help="sample residues/candidates randomly (else scan in order)"
    )
    sp.add_argument(
        "--max-degree",
        type=int,
        default=RealizeOptions.max_degree,
        help=f"degree cutoff (at most {MAX_POLY_DEGREE})",
    )
    sp.set_defaults(func=cmd_realize)

    sp = subs.add_parser("verify", help="exhaustive reciprocity + structure check")
    _add_field_flags(sp, d_required=True)
    sp.add_argument(
        "--max-deg",
        type=int,
        default=3,
        help="degree bound for the reciprocity scan "
        f"(structure is capped at {VERIFY_STRUCTURE_DEG})",
    )
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("equiv", help="brute-force block-form vs diagonal criteria")
    sp.add_argument("--n", type=int, required=True, help="matrix size")
    sp.add_argument("--d", type=int, required=True, help="root order (even)")
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
