"""Command-line interface binding all modules.

Exit codes: 0 success, 2 bad input or violated precondition, 3 requested
inverse does not exist, 4 a sweep hit an identity violation, 130
interrupted (SIGINT, Ctrl-C), with the one line `error: interrupted`.

A process builds its parser once (build_parser is cached), so a caller
that streams many queries through main pays for the argparse tree only
on the first.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import explorer, spectra
from .cline import (
    BACKWARD,
    FORWARD,
    check_hypothesis,
    cline_drazin,
    cline_gdrazin,
    jacobson_inverse,
)
from .drazin import drazin_certificate, gdrazin_certificate
from .errors import ClineLabError, InputError, SweepViolation
from .rings import matrix_ring, try_inverse, zmod
from .serialize import (
    certificate_to_json,
    dumps_canonical,
    element_from_json,
    element_to_json,
    hypothesis_report_to_json,
    poly_to_json,
    triple_from_json,
    triple_to_json,
)

_RING_PATTERN = re.compile(r"^(?:zmod(\d+)|mat(\d+)z(\d+))$")


def _parse_ring(text: str):
    m = _RING_PATTERN.match(text.lower())
    if not m:
        raise ClineLabError(
            f"unknown ring {text!r}; expected zmodN or matMzN (e.g. zmod8, mat2z2)"
        )
    try:
        if m.group(1):
            return zmod(int(m.group(1)))
        return matrix_ring(int(m.group(3)), int(m.group(2)))
    except ValueError:  # a number past Python's int-string digit limit
        raise InputError(f"ring name {text[:24]}... holds a number too long to read")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, or unreadable
        raise InputError(str(exc))
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply")
    except ValueError as exc:  # not JSON, not UTF-8, or past the int digit limit
        raise InputError(f"{path}: {exc}")


def _emit(obj) -> None:
    sys.stdout.write(dumps_canonical(obj))


def _transfer_result_json(result) -> dict:
    def side(cert):
        out = certificate_to_json(cert)
        out["element"] = element_to_json(cert.element)
        return out

    return {
        "formula_used": result.formula_used,
        "source": side(result.source),
        "target": side(result.target),
    }


def _cmd_drazin_compute(args) -> int:
    elem = element_from_json(_load_json(args.input))
    compute = gdrazin_certificate if args.mode == "gdrazin" else drazin_certificate
    cert = compute(elem)
    if cert is None:
        _emit({"exists": False})
        return 3
    out = certificate_to_json(cert)
    out["exists"] = True
    _emit(out)
    return 0


def _cmd_cline_check(args) -> int:
    a, b, c = triple_from_json(_load_json(args.input))
    _emit(hypothesis_report_to_json(check_hypothesis(a, b, c)))
    return 0


def _cmd_cline_transfer(args) -> int:
    a, b, c = triple_from_json(_load_json(args.input))
    run = cline_drazin if args.mode == "drazin" else cline_gdrazin
    result = run(a, b, c, args.dir)
    _emit(_transfer_result_json(result))
    return 0


def _cmd_cline_jacobson(args) -> int:
    a, b, c = triple_from_json(_load_json(args.input))
    s = try_inverse(a.ctx.one() - a * c)
    if s is None:
        raise ClineLabError("1 - ac is not a unit; the formula does not apply")
    t = jacobson_inverse(a, b, c, s)
    _emit(
        {
            "one_minus_ba_inverse": element_to_json(t),
            "certified": True,
        }
    )
    return 0


def _cmd_spectra_example(args) -> int:
    triple = spectra.build_example_triple(args.n)
    ac = triple.a * triple.c
    ba = triple.b * triple.a
    d_ac = spectra.char_poly(ac)
    d_ba = spectra.char_poly(ba)
    _emit(
        {
            "n": triple.n,
            "aba_eq_aca": True,  # constructor fails loudly otherwise
            "char_poly_ac": poly_to_json(d_ac.char_poly),
            "char_poly_ba": poly_to_json(d_ba.char_poly),
            "nonzero_equal": d_ac.reduced == d_ba.reduced,
        }
    )
    return 0


def _cmd_spectra_compare(args) -> int:
    m1 = element_from_json(_load_json(args.m1))
    m2 = element_from_json(_load_json(args.m2))
    d1 = spectra.char_poly(m1)
    d2 = spectra.char_poly(m2)

    def side(d):
        return {
            "char_poly": poly_to_json(d.char_poly),
            "reduced": poly_to_json(d.reduced),
            "zero_multiplicity": d.zero_multiplicity,
        }

    _emit(
        {
            "nonzero_equal": d1.reduced == d2.reduced,
            "m1": side(d1),
            "m2": side(d2),
        }
    )
    return 0


def _cmd_explore_sweep(args) -> int:
    ctx = _parse_ring(args.ring)
    report = explorer.sweep(
        ctx,
        theorems=args.theorems,
        mode=args.mode,
        seed=args.seed,
        count=args.count,
        jobs=args.jobs,
    )
    print(f"elapsed {report.elapsed_seconds:.3f}s", file=sys.stderr)
    _emit(report.to_json())
    return 0


def _cmd_explore_separations(args) -> int:
    ctx = _parse_ring(args.ring)
    found = explorer.find_separation(ctx, args.limit)
    _emit(
        {
            "ring": ctx.label,
            "limit": args.limit,
            "separations": [triple_to_json(a, b, c) for a, b, c in found],
        }
    )
    return 0


def _cmd_explore_example29(args) -> int:
    _emit(explorer.verify_example_29().to_json())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one shared parser, built on the first call.

    Every call returns the same object, so callers must not mutate it
    (set_defaults, add_argument, ...).  parse_args leaves it as it was:
    each parse fills a fresh Namespace.
    """
    parser = argparse.ArgumentParser(
        prog="clinelab",
        description="Exact-arithmetic lab for generalized-inverse transfer identities",
    )
    top = parser.add_subparsers(dest="command", required=True)

    drazin_p = top.add_parser("drazin", help="Drazin / g-Drazin inverses")
    drazin_sub = drazin_p.add_subparsers(dest="subcommand", required=True)
    compute = drazin_sub.add_parser("compute", help="compute a certified inverse")
    compute.add_argument("--input", required=True, help="element JSON file")
    compute.add_argument("--mode", choices=("drazin", "gdrazin"), default="drazin")
    compute.set_defaults(fn=_cmd_drazin_compute)

    cline_p = top.add_parser("cline", help="hypothesis checks and transfers")
    cline_sub = cline_p.add_subparsers(dest="subcommand", required=True)
    check = cline_sub.add_parser("check", help="evaluate the quintic products")
    check.add_argument("--input", required=True, help="triple JSON file")
    check.set_defaults(fn=_cmd_cline_check)
    transfer = cline_sub.add_parser("transfer", help="apply a transfer formula")
    transfer.add_argument("--dir", choices=(FORWARD, BACKWARD), required=True)
    transfer.add_argument("--mode", choices=("drazin", "gdrazin"), required=True)
    transfer.add_argument("--input", required=True, help="triple JSON file")
    transfer.set_defaults(fn=_cmd_cline_transfer)
    jac = cline_sub.add_parser("jacobson", help="explicit inverse of 1 - ba")
    jac.add_argument("--input", required=True, help="triple JSON file")
    jac.set_defaults(fn=_cmd_cline_jacobson)

    spectra_p = top.add_parser("spectra", help="characteristic polynomials")
    spectra_sub = spectra_p.add_subparsers(dest="subcommand", required=True)
    example = spectra_sub.add_parser("example", help="operator-triple truncation")
    example.add_argument("--n", type=int, required=True)
    example.set_defaults(fn=_cmd_spectra_example)
    compare = spectra_sub.add_parser("compare", help="compare nonzero spectra")
    compare.add_argument("--m1", required=True, help="matrix JSON file")
    compare.add_argument("--m2", required=True, help="matrix JSON file")
    compare.set_defaults(fn=_cmd_spectra_compare)

    explore_p = top.add_parser("explore", help="finite-ring sweeps")
    explore_sub = explore_p.add_subparsers(dest="subcommand", required=True)
    sweep_p = explore_sub.add_parser("sweep", help="verify identities on all triples")
    sweep_p.add_argument("--ring", required=True, help="zmodN or matMzN")
    sweep_p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    sweep_p.add_argument(
        "--theorems",
        default="all",
        help="all, or comma list from t22,t27,l21,l26,l31,c23,c24,c28",
    )
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--count", type=int, default=None)
    sweep_p.set_defaults(fn=_cmd_explore_sweep)
    seps = explore_sub.add_parser("separations", help="hypothesis without aba = aca")
    seps.add_argument("--ring", required=True)
    seps.add_argument("--limit", type=int, default=10)
    seps.set_defaults(fn=_cmd_explore_separations)
    ex29 = explore_sub.add_parser("example29", help="verify the 6x6 separation")
    ex29.set_defaults(fn=_cmd_explore_example29)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except SweepViolation as exc:
        print(f"violation in {exc.check}: {exc.detail}", file=sys.stderr)
        sys.stderr.write(dumps_canonical({"triple": exc.triple_json}))
        return 4
    except ClineLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
