"""Command-line interface.

Exit codes: 0 success, 1 usage/config errors (including a missing or
unreadable file, an exponent above the polynomial exponent cap, a hyperpfaffian above
its enumeration cap, a numeric run whose guards rejected every draw, a run
that ran out of memory and an input too deep for a recursive route),
2 verification or cross-check failure, 3 internal invariant breach.
"""

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import harness, lr
from .harness import ConfigError, GuardExhaustionError, UnknownIdentityError
from .identities import InvalidParamsError, get_spec, registry
from .linalg import EnumerationCapError, IndexBoundsError, SkewMatrix, pfaffian
from .poly import ExponentCapError, VariableTable
from .symfunc import Partition, PartitionError, SkewShape, schur


@functools.cache
def _build_parser():
    """The one argparse parser of the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="detpf",
        description="Exact determinant/Pfaffian identity verification, "
        "Littlewood-Richardson coefficients and Schur polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print registry keys with their descriptions")

    p_verify = sub.add_parser("verify", help="verify one identity")
    p_verify.add_argument("--name", required=True)
    p_verify.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="identity parameter, repeatable",
    )
    p_verify.add_argument("--mode", choices=("symbolic", "numeric"), default="symbolic")
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--bound", type=int, default=25)
    p_verify.add_argument("--json", action="store_true")

    p_campaign = sub.add_parser("campaign", help="run a verification campaign")
    p_campaign.add_argument("--config", help="config file (defaults to the built-in grid)")
    p_campaign.add_argument("--json", metavar="PATH", help="write the JSON report here")
    p_campaign.add_argument("--workers", type=int, default=1)

    p_lr = sub.add_parser("lr", help="Littlewood-Richardson coefficients")
    p_lr.add_argument("--lambda", dest="lam", required=True, metavar="[..]")
    p_lr.add_argument("--mu", required=True, metavar="[..]")
    p_lr.add_argument("--nu", metavar="[..]")
    p_lr.add_argument("--rect", action="store_true", help="rectangle mode (needs --n/--e/--f)")
    p_lr.add_argument("--n", type=int)
    p_lr.add_argument("--e", type=int)
    p_lr.add_argument("--f", type=int)
    p_lr.add_argument(
        "--method",
        choices=("oracle", "pfaffian", "theorem", "all"),
        default="all",
        help="rectangle mode only",
    )

    p_schur = sub.add_parser("schur", help="print a (skew) Schur polynomial")
    p_schur.add_argument("--shape", required=True, metavar="[..]")
    p_schur.add_argument("--inner", metavar="[..]")
    p_schur.add_argument("--vars", type=int, required=True)

    p_pf = sub.add_parser("pf", help="Pfaffian of a JSON-encoded skew matrix")
    p_pf.add_argument("--matrix", required=True, metavar="PATH")

    return parser


def _parse_params(pairs):
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise InvalidParamsError(f"--param expects K=V, got {pair!r}")
        try:
            params[key.strip()] = int(value.strip())
        except ValueError:
            raise InvalidParamsError(f"parameter {key!r} must be an integer") from None
    return params


def _cmd_list(args, out):
    for name in registry():
        out.write(f"{name:<15} {get_spec(name).summary}\n")
    return 0


def _cmd_verify(args, out):
    report = harness.verify(
        args.name,
        _parse_params(args.param),
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
        bound=args.bound,
    )
    if args.json:
        out.write(json.dumps(report.to_json_obj(), indent=2) + "\n")
    else:
        status = "PASS" if report.passed else "FAIL"
        params = ",".join(f"{k}={v}" for k, v in sorted(report.params.items()))
        out.write(f"{report.identity} [{params}] {report.mode}: {status}\n")
        for failure in report.failures:
            out.write(f"  counterexample: {failure}\n")
    return 0 if report.passed else 2


def _cmd_campaign(args, out):
    if args.workers < 1:
        raise InvalidParamsError("--workers must be >= 1")
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = harness.parse_campaign_config(fh.read())
    else:
        config = harness.default_campaign_config()
    reports = harness.run_campaign(config, workers=args.workers)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        params = ",".join(f"{k}={v}" for k, v in sorted(report.params.items()))
        out.write(f"{report.identity} [{params}] {report.mode}: {status}\n")
    failed = sum(1 for r in reports if not r.passed)
    out.write(f"total {len(reports)}, failed {failed}\n")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(harness.reports_to_json(reports))
    return 0 if failed == 0 else 2


def _cmd_lr(args, out):
    lam = Partition.from_text(args.lam)
    mu = Partition.from_text(args.mu)
    if not args.rect:
        if args.nu is None:
            raise InvalidParamsError("triple mode needs --nu (or use --rect)")
        out.write(f"{lr.lr_bruteforce(lam, mu, Partition.from_text(args.nu))}\n")
        return 0
    if args.n is None or args.e is None or args.f is None:
        raise InvalidParamsError("rectangle mode needs --n, --e and --f")
    n, e, f = args.n, args.e, args.f
    if n < 1:
        raise InvalidParamsError("rectangle mode needs --n >= 1")
    methods = {
        "oracle": lambda: lr.lr_bruteforce(lam, mu, Partition.box(n, f)),
        "pfaffian": lambda: lr.lr_via_pfaffian(lam, n, e, f, mu),
        "theorem": lambda: lr.lr_rectangle_theorem(lam, n, e, f, mu),
    }
    if args.method != "all":
        out.write(f"{methods[args.method]()}\n")
        return 0
    values = {key: fn() for key, fn in methods.items()}
    if len(set(values.values())) == 1:
        out.write(f"{values['oracle']}\n")
        return 0
    detail = ", ".join(f"{k}={v}" for k, v in sorted(values.items()))
    out.write(f"method disagreement: {detail}\n")
    return 2


def _cmd_schur(args, out):
    outer = Partition.from_text(args.shape)
    shape = outer if args.inner is None else SkewShape(outer, Partition.from_text(args.inner))
    if args.vars < 1:
        raise InvalidParamsError("--vars must be >= 1")
    table = VariableTable()
    table.add_vector("x", args.vars)
    out.write(f"{schur(shape, table.gens())}\n")
    return 0


def _cmd_pf(args, out):
    with open(args.matrix, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
        dim = payload["dim"]
        if type(dim) is not int or dim < 0:
            raise ValueError(f"dim must be a nonnegative integer, got {dim!r}")
        upper = {}
        for i, j, entry in payload["upper"]:
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"indices must be integers, got {[i, j]!r}")
            if type(entry) is not int and not re.fullmatch("-?[0-9]+(/[0-9]+)?", str(entry)):
                raise ValueError(f"entry must be an integer or a string p/q, got {entry!r}")
            if (i, j) in upper:
                raise ValueError(f"entry ({i},{j}) listed twice")
            upper[(i, j)] = Fraction(entry)
        matrix = SkewMatrix(dim, upper)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexBoundsError) as exc:
        raise ConfigError(f"bad skew-matrix JSON: {exc}") from None
    out.write(f"{pfaffian(matrix)}\n")
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "verify": _cmd_verify,
    "campaign": _cmd_campaign,
    "lr": _cmd_lr,
    "schur": _cmd_schur,
    "pf": _cmd_pf,
}


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args, out)
    except (
        ConfigError,
        InvalidParamsError,
        UnknownIdentityError,
        PartitionError,
        ExponentCapError,
        EnumerationCapError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GuardExhaustionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: a larger --bound (or campaign bound) draws from more rationals, "
            "so fewer draws hit a guard",
            file=sys.stderr,
        )
        return 1
    except MemoryError:
        print(
            "error: out of memory; --mode numeric checks large parameters "
            "without expanding polynomials",
            file=sys.stderr,
        )
        return 1
    except RecursionError:
        print("error: input too large for a recursive route", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
