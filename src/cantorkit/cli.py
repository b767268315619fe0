"""Command-line surface.

Subcommands: dim, blocks, eval, cylinder, verify, cover, boxcount,
enumerate, convert.  Families are given in the grammar of
`families.parse_family`, e.g. ``Su(s=5,u=2)`` or ``Blocks(s=3,B=[0 2;1])``.

Exit codes: 0 success, 1 usage or grammar error, 2 verification failure.
JSON output is deterministic: fixed key order, floats printed with 12
significant digits, rationals as "p/q" strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import boxcount as bc
from . import cylinders as cyl
from . import dimension as dim
from .errors import CantorkitError, FamilyParseError
from .families import (
    DEFAULT_CAP,
    _int_list,
    _md_pair,
    blocks_of_family,
    enumerate_addresses,
    eval_family_point,
    expand_address,
    parse_family,
)
from .radix import DigitString, digits_from_rational, eval_negasadic, eval_sadic


def _jfloat(x: float) -> str:
    return f"{x:.12g}"


def _jdump(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, Fraction):
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, float):
        return _jfloat(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_jdump(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_jdump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialise {type(obj)}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _at_least(low: int):
    """argparse type: an integer >= `low`, written in plain digits."""

    def parse(text: str) -> int:
        if not text.strip().isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def _scales(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not (sep and lo.strip().isdigit() and hi.strip().isdigit()):
        raise argparse.ArgumentTypeError(f"must be n_lo:n_hi with integers >= 0, got {text!r}")
    return int(lo), int(hi)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, flush=True)  # a closed pipe shows here, not at exit


def _dim_payload(family_text: str) -> dict:
    fam = parse_family(family_text)
    result = dim.family_dimension(fam)
    payload = {
        "family": fam.label(),
        "alpha": result.alpha,
        "method": result.method,
        "residual": result.residual,
        "bracket": [result.bracket[0], result.bracket[1]],
        "iterations": result.iterations,
        "degenerate": result.degenerate,
    }
    if result.cross_check is not None:
        payload["cross_check"] = result.cross_check
    if result.note is not None:
        payload["note"] = result.note
    return payload


def _cmd_dim(args) -> int:
    payload = _dim_payload(args.family)
    if args.format == "text":
        _emit(
            "\n".join(f"{k}: {_jdump(v) if not isinstance(v, str) else v}" for k, v in payload.items()),
            args.out,
        )
    elif args.format == "csv":
        _emit(
            "family,alpha,method,residual,degenerate\n"
            f"{payload['family']},{_jfloat(payload['alpha'])},{payload['method']},"
            f"{_jfloat(payload['residual'])},{payload['degenerate']}",
            args.out,
        )
    else:
        _emit(_jdump(payload), args.out)
    return 0


def _cmd_blocks(args) -> int:
    fam = parse_family(args.family)
    bs = blocks_of_family(fam)
    payload = {
        "family": fam.label(),
        "count": bs.size,
        "degenerate": bs.degenerate,
        "analytic": bs.analytic,
        "histogram": {str(k): n for k, n in bs.histogram},
        "blocks": [" ".join(map(str, b)) for b in bs.blocks] if bs.blocks else None,
    }
    _emit(_jdump(payload), args.out)
    return 0


def _refuse_past_str_limit(what: str, digits: int) -> None:
    """Refuse `what` when it prints an integer of `digits` decimal digits, past
    Python's int-to-str limit (a limit of 0 refuses nothing)."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise ValueError(f"{what} of over {limit} digits, above sys.get_int_max_str_digits()")


def _refuse_long_denominators(what: str, n: int, base: int) -> None:
    """Refuse denominators of base^n past Python's int-to-str limit, before computing them."""
    digits = math.floor(n * Fraction(math.log10(base))) + 1  # exact: n may be past any float
    _refuse_past_str_limit(f"{what} at base {base} may print denominators", digits)


def _refuse_long_values(what: str, values) -> None:
    """Refuse Fractions whose numerator or denominator is past Python's int-to-str limit."""
    top = max(abs(n) for v in values for n in (v.numerator, v.denominator))
    k = int(top.bit_length() * math.log10(2))  # top has k or k + 1 digits
    _refuse_past_str_limit(what, k + (top >= 10**k))


def _cmd_eval(args) -> int:
    fam = parse_family(args.family)
    alphas = _parse_selectors(fam, args.alphas, "--alphas")
    tail = _parse_selectors(fam, args.tail, "--tail") if args.tail else ()
    if fam.kind == "MD":  # a gap writes up to 10^6 digits; the others write short blocks
        gaps = sum(_md_pair(fam, sel)[0] for sel in alphas + tail)
        _refuse_long_denominators(f"MD gaps summing to {gaps}", gaps, fam.s)
    value = eval_family_point(fam, alphas, tail)
    given = f"--alphas with {len(alphas)} selectors" + (f" and --tail with {len(tail)} selectors" if tail else "")
    _refuse_long_values(f"the value of {given} has an integer", [value])
    payload = {
        "family": fam.label(),
        "alphas": list(alphas),
        "tail": list(tail) if tail else None,
        "value": value,
        "value_float": float(value),
    }
    if fam.kind != "Cantor":
        payload["digits"] = " ".join(map(str, expand_address(fam, alphas).digits))
    _emit(_jdump(payload), args.out)
    return 0


def _parse_selectors(fam, text, option):
    if fam.kind == "MD":
        # pairs m:e separated by commas, e.g. "3:2,5:1"
        out = []
        for part in text.split(","):
            pair = _int_list(part.replace(":", " "), option)
            if part.count(":") != 1 or len(pair) != 2:
                raise FamilyParseError(f"MD selectors are gap:digit pairs, got {part!r}")
            out.append(pair)
        return tuple(out)
    return _int_list(text, option)


def _cmd_cylinder(args) -> int:
    fam = parse_family(args.family)
    addr = _parse_selectors(fam, args.addr, "--addr") if args.addr else ()
    report = cyl.cylinder_report(fam, addr, child=args.child)
    values = (report.interval.lo, report.interval.hi, report.diameter, report.child_ratio)
    _refuse_long_values(
        f"the cylinder of --addr with {len(addr)} selectors has an integer", [v for v in values if v is not None]
    )
    payload = {
        "family": fam.label(),
        "address": list(report.address),
        "interval": {"lo": report.interval.lo, "hi": report.interval.hi},
        "diameter": report.diameter,
        "child_ratio": report.child_ratio,
        "orientation": report.orientation,
    }
    _emit(_jdump(payload), args.out)
    return 0


def _cmd_verify(args) -> int:
    fam = parse_family(args.family)
    report = cyl.verify_family(
        fam, depth=args.depth, oracle_depth=args.depth + 6, cap=args.cap
    )
    if args.format == "json":
        payload = {
            "family": report.family,
            "passed": report.passed,
            "properties": [
                {
                    "name": r.name,
                    "checked": r.checked,
                    "passed": r.passed,
                    "failures": list(r.failures),
                }
                for r in report.results
            ],
        }
        _emit(_jdump(payload), args.out)
    else:
        lines = [f"verify {report.family} (depth {args.depth}, oracle depth {args.depth + 6})"]
        for r in report.results:
            mark = "pass" if r.passed else "FAIL"
            lines.append(f"[{mark}] {r.name:<20} {r.checked} checks")
            for f in r.failures:
                lines.append(f"       {f}")
        lines.append("RESULT: " + ("all properties hold" if report.passed else "FAILURES FOUND"))
        _emit("\n".join(lines), args.out)
    return 0 if report.passed else 2


def _cmd_cover(args) -> int:
    fam = parse_family(args.family)
    rows = ["depth,exact,float"]
    for d, total in enumerate(cyl.covering_sums(fam, args.depth, cap=args.cap)):
        rows.append(f"{d},{total.numerator}/{total.denominator},{_jfloat(float(total))}")
    _emit("\n".join(rows), args.out)
    return 0


def _cmd_boxcount(args) -> int:
    fam = parse_family(args.family)
    n_lo, n_hi = args.scales
    fit, points = bc.box_dimension(fam, n_lo, n_hi, cap=args.cap)
    solver = dim.family_dimension(fam)
    rows = ["eps,count"]
    rows.extend(f"{_jfloat(p.epsilon)},{p.count}" for p in points)
    rows.append(f"# slope,{_jfloat(fit.slope)}")
    rows.append(f"# r2,{_jfloat(fit.r2)}")
    rows.append(f"# solver_alpha,{_jfloat(solver.alpha)}")
    rows.append(f"# gap,{_jfloat(abs(fit.slope - solver.alpha))}")
    _emit("\n".join(rows), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    fam = parse_family(args.family)
    addrs = enumerate_addresses(fam, args.depth, cap=args.cap)
    if args.format == "json":
        _emit(_jdump({"family": fam.label(), "depth": args.depth, "addresses": addrs}), args.out)
    else:
        _emit("\n".join(" ".join(map(str, a)) for a in addrs) or "()", args.out)
    return 0


def _cmd_convert(args) -> int:
    digits = DigitString(args.base, _int_list(args.digits, "--digits"))
    # the printed rationals have denominators up to base^length
    _refuse_long_denominators(f"--length {args.length}", args.length, args.base)
    value = eval_negasadic(digits) if args.source == "negasadic" else eval_sadic(digits)
    negative = args.target == "negasadic"
    out_digits = digits_from_rational(value, args.base, args.length, negative=negative)
    round_trip = eval_negasadic(out_digits) if negative else eval_sadic(out_digits)
    s = args.base
    bound = Fraction(s, s - 1) / s**args.length
    payload = {
        "base": s,
        "source": args.source,
        "digits": list(digits.digits),
        "value": value,
        "target": args.target,
        "target_digits": list(out_digits.digits),
        "round_trip_value": round_trip,
        "error": abs(round_trip - value),
        "bound": bound,
        "within_bound": abs(round_trip - value) <= bound,
    }
    _emit(_jdump(payload), args.out)
    return 0


#: every subcommand, once: name -> (handler, help, the shared arguments its
#: handler reads, its --format choices with the default first, its own options)
_COMMANDS = {
    "dim": (_cmd_dim, "dimension of a family", ("family",), ("json", "csv", "text"), ()),
    "blocks": (_cmd_blocks, "digit-block language of a family", ("family",), (), ()),
    "eval": (_cmd_eval, "exact value of a family point", ("family",), (), (
        ("--alphas", {"required": True, "help": "selector digits, e.g. 2,1 (MD: 3:2,5:1)"}),
        ("--tail", {"default": None, "help": "periodic selector tail"}),
    )),
    "cylinder": (_cmd_cylinder, "exact cylinder interval and metrics", ("family",), (), (
        ("--addr", {"default": "", "help": "address digits, e.g. 1,2"}),
        ("--child", {"type": int, "default": None}),
    )),
    "verify": (_cmd_verify, "run the cylinder property suite", ("family", "depth", "cap"), ("text", "json"), ()),
    "cover": (_cmd_cover, "covering-sum table", ("family", "depth", "cap"), (), ()),
    "boxcount": (_cmd_boxcount, "box-counting fit vs the solver", ("family", "cap"), (), (
        ("--scales", {"type": _scales, "default": (4, 10), "help": "n_lo:n_hi for eps = s^-n"}),
    )),
    "enumerate": (_cmd_enumerate, "admissible addresses at a depth", ("family", "depth", "cap"), ("text", "json"), ()),
    "convert": (_cmd_convert, "round-trip digits across representations", (), (), (
        ("--base", {"type": int, "required": True}),
        ("--digits", {"required": True}),
        ("--source", {"choices": ("sadic", "negasadic"), "default": "sadic"}),
        ("--target", {"choices": ("sadic", "negasadic"), "required": True}),
        ("--length", {"type": int, "default": 8}),
    )),
}


def _add_arguments(p: _Parser, name: str) -> _Parser:
    """Give `p` the arguments of command `name`: only the options its handler reads."""
    func, _, shared, formats, own = _COMMANDS[name]
    if "family" in shared:
        p.add_argument("family")
    if "depth" in shared:
        p.add_argument("--depth", type=_at_least(0), default=8)
    if "cap" in shared:
        p.add_argument("--cap", type=_at_least(1), default=DEFAULT_CAP)
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", default=None)
    for flag, kwargs in own:
        p.add_argument(flag, **kwargs)
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> _Parser:
    """The full parser tree, `cantorkit` with every subcommand, built once per process.

    `main` reads it only when its first argument names no command: no
    arguments, `-h`, an unknown command or a leading `--`."""
    parser = _Parser(prog="cantorkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, summary, *_) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary), name)
    return parser


@functools.cache
def _command_parser(name: str) -> _Parser:
    """The parser of command `name` alone: the subparser `build_parser` gives it."""
    return _add_arguments(_Parser(prog=f"cantorkit {name}"), name)


def main(argv=None) -> int:
    """Run one command line (default `sys.argv[1:]`) and return its exit code.

    When the first argument names a command, only that command's parser is
    built; anything else goes to the full tree of `build_parser`."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        parser, argv = _command_parser(argv[0]), argv[1:]
    else:
        parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (CantorkitError, ValueError) as exc:
        # every library error, bad numbers included, is a usage error
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:  # the reader left: keep the flush at exit quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
