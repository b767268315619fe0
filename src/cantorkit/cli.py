"""Command-line surface.

Subcommands: dim, blocks, eval, cylinder, verify, cover, boxcount,
enumerate, convert.  Families are given in the grammar of
`families.parse_family`, e.g. ``Su(s=5,u=2)`` or ``Blocks(s=3,B=[0 2;1])``.

Exit codes: 0 success, 1 usage or grammar error, 2 verification failure.
JSON output is deterministic: fixed key order, floats printed with 12
significant digits, rationals as "p/q" strings.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _jstr
from types import SimpleNamespace

from . import boxcount as bc
from . import cylinders as cyl
from . import dimension as dim
from .errors import CantorkitError, FamilyParseError
from .families import (
    DEFAULT_CAP,
    _int_list,
    _md_pair,
    block_histogram,
    enumerate_addresses,
    eval_family_point,
    expand_address,
    family_blocks,
    parse_family,
)
from .radix import DigitString, digits_from_rational, eval_negasadic, eval_sadic


def _jfloat(x: float) -> str:
    return f"{x:.12g}"


def _jdump(obj) -> str:
    """JSON of a payload, by each value's exact type; strings escaped as `json.dumps` escapes them."""
    kind = type(obj)
    if kind is str:
        return _jstr(obj)
    if kind is int:
        return str(obj)
    if kind is float:
        return _jfloat(obj)
    if kind is dict:
        return "{" + ",".join(f"{_jstr(str(k))}:{_jdump(v)}" for k, v in obj.items()) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join(map(_jdump, obj)) + "]"
    if kind is Fraction:
        return f'"{obj.numerator}/{obj.denominator}"'
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    raise TypeError(f"cannot serialise {type(obj)}")


def _int(text: str) -> int:
    """Option type: an integer, as `int` reads it."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _at_least(low: int):
    """Option type: an integer >= `low`, written in plain digits."""

    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < low:
            raise ValueError(f"must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def _scales(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not (sep and lo.strip().isdecimal() and hi.strip().isdecimal()):
        raise ValueError(f"must be n_lo:n_hi with integers >= 0, got {text!r}")
    return int(lo), int(hi)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            fh = open(out, "w")
        except OSError as exc:  # a directory, a missing folder, no permission
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None
        with fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, flush=True)  # a closed pipe shows here, not at exit


def _cmd_dim(args) -> tuple[str, int]:
    fam = args.family
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
    if args.format == "text":
        return "\n".join(f"{k}: {_jdump(v) if not isinstance(v, str) else v}" for k, v in payload.items()), 0
    if args.format == "csv":
        label = payload["family"]
        if "," in label:  # RFC 4180 quotes a field that holds a comma; no label holds a quote
            label = f'"{label}"'
        return (
            "family,alpha,method,residual,degenerate\n"
            f"{label},{_jfloat(result.alpha)},{result.method},{_jfloat(result.residual)},{result.degenerate}"
        ), 0
    return _jdump(payload), 0


def _cmd_blocks(args) -> tuple[str, int]:
    fam = args.family
    md = fam.kind == "MD"  # infinitely many blocks: 0^(k-1) a for odd k >= 3, a != 0
    blocks = () if md else family_blocks(fam)
    payload = {
        "family": fam.label(),
        "count": len(blocks),
        "degenerate": fam.degenerate,
        "analytic": "odd-zero-runs" if md else None,
        "histogram": block_histogram(blocks),
        "blocks": [" ".join(map(str, b)) for b in blocks] if blocks else None,
    }
    return _jdump(payload), 0


def _refuse_past_str_limit(what: str, digits: int) -> None:
    """Refuse `what` when it prints an integer of `digits` decimal digits, past
    Python's int-to-str limit (a limit of 0 refuses nothing)."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise ValueError(f"{what} of over {limit} digits, above sys.get_int_max_str_digits()")


def _refuse_long_denominators(what: str, n: int, base: int) -> None:
    """Refuse denominators of base^n past Python's int-to-str limit, before computing them."""
    p, q = math.log10(base).as_integer_ratio()  # n * p // q is exact: n may be past any float
    _refuse_past_str_limit(f"{what} at base {base} may print denominators", n * p // q + 1)


def _refuse_long_values(what: str, values) -> None:
    """Refuse rationals, given as (numerator, denominator) pairs, with an
    integer past Python's int-to-str limit."""
    top = max(abs(n) for pair in values for n in pair)
    k = int(top.bit_length() * math.log10(2))  # top has k or k + 1 digits
    _refuse_past_str_limit(what, k + (top >= 10**k))


def _cmd_eval(args) -> tuple[str, int]:
    fam = args.family
    alphas, tail = _parse_selectors(fam, ("--alphas", args.alphas), ("--tail", args.tail or None))
    value = eval_family_point(fam, alphas, tail)
    given = f"--alphas with {len(alphas)} selectors" + (f" and --tail with {len(tail)} selectors" if tail else "")
    _refuse_long_values(f"the value of {given} has an integer", [(value.numerator, value.denominator)])
    payload = {
        "family": fam.label(),
        "alphas": list(alphas),
        "tail": list(tail) if tail else None,
        "value": value,
        "value_float": float(value),
    }
    if fam.kind != "Cantor":
        payload["digits"] = " ".join(map(str, expand_address(fam, alphas).digits))
    return _jdump(payload), 0


def _parse_selectors(fam, *given) -> list[tuple]:
    """The selectors of each (option, text) in `given`, () for no or empty text.  MD's
    are gap:digit pairs, e.g. "3:2,5:1", each checked, and their gaps, summed
    over every option, refused past the int-to-str limit before a fold."""
    if fam.kind != "MD":
        return [_int_list(text or "", option) for option, text in given]
    out = []
    for option, text in given:
        pairs = []
        for part in text.split(",") if text else ():
            pair = _int_list(part.replace(":", " "), option)
            if part.count(":") != 1 or len(pair) != 2:
                raise FamilyParseError(f"MD selectors are gap:digit pairs, got {part!r}")
            pairs.append(pair)
        out.append(tuple(pairs))
    gaps = sum(_md_pair(fam, pair)[0] for pairs in out for pair in pairs)
    _refuse_long_denominators(f"MD gaps summing to {gaps}", gaps, fam.s)
    return out


def _cmd_cylinder(args) -> tuple[str, int]:
    fam = args.family
    (addr,) = _parse_selectors(fam, ("--addr", args.addr or None))
    report = cyl.cylinder_report(fam, addr, child=args.child)
    values = (report.interval.lo, report.interval.hi, report.diameter, report.child_ratio)
    _refuse_long_values(
        f"the cylinder of --addr with {len(addr)} selectors has an integer",
        [(v.numerator, v.denominator) for v in values if v is not None],
    )
    payload = {
        "family": fam.label(),
        "address": list(report.address),
        "interval": {"lo": report.interval.lo, "hi": report.interval.hi},
        "diameter": report.diameter,
        "child_ratio": report.child_ratio,
        "orientation": report.orientation,
    }
    return _jdump(payload), 0


def _cmd_verify(args) -> tuple[str, int]:
    report = cyl.verify_family(args.family, depth=args.depth, cap=args.cap)
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
        return _jdump(payload), 0 if report.passed else 2
    lines = [f"verify {report.family} (depth {args.depth}, oracle depth {args.depth + cyl.ORACLE_EXTRA_DEPTH})"]
    for r in report.results:
        mark = "pass" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.name:<20} {r.checked} checks")
        for f in r.failures:
            lines.append(f"       {f}")
    lines.append("RESULT: " + ("all properties hold" if report.passed else "FAILURES FOUND"))
    return "\n".join(lines), 0 if report.passed else 2


def _cmd_cover(args) -> tuple[str, int]:
    sums = cyl._covering_sums(args.family, args.depth)
    _refuse_long_values(f"the covering sums to --depth {args.depth} have an integer", sums)
    rows = ["depth,exact,float"]
    for d, (num, den) in enumerate(sums):
        rows.append(f"{d},{num}/{den},{_jfloat(num / den)}")
    return "\n".join(rows), 0


def _cmd_boxcount(args) -> tuple[str, int]:
    fam = args.family
    fit, points = bc.box_dimension(fam, *args.scales, cap=args.cap)
    solver = dim.family_dimension(fam)
    rows = ["eps,count"]
    rows.extend(f"{_jfloat(p.epsilon)},{p.count}" for p in points)
    rows.append(f"# slope,{_jfloat(fit.slope)}")
    rows.append(f"# r2,{_jfloat(fit.r2)}")
    rows.append(f"# solver_alpha,{_jfloat(solver.alpha)}")
    rows.append(f"# gap,{_jfloat(abs(fit.slope - solver.alpha))}")
    return "\n".join(rows), 0


def _cmd_enumerate(args) -> tuple[str, int]:
    fam = args.family
    addrs = enumerate_addresses(fam, args.depth, cap=args.cap)
    if args.format == "json":
        return _jdump({"family": fam.label(), "depth": args.depth, "addresses": addrs}), 0
    return "\n".join(" ".join(map(str, a)) for a in addrs) or "()", 0


def _cmd_convert(args) -> tuple[str, int]:
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
    return _jdump(payload), 0


#: every subcommand, once: name -> (handler, help, the shared arguments its
#: handler reads, its --format choices with the default first, its own options);
#: a handler maps the values, the family parsed, to its text and exit code
_COMMANDS = {
    "dim": (_cmd_dim, "dimension of a family", ("family",), ("json", "csv", "text"), ()),
    "blocks": (_cmd_blocks, "digit-block language of a family", ("family",), (), ()),
    "eval": (_cmd_eval, "exact value of a family point", ("family",), (), (
        ("--alphas", {"required": True, "help": "selector digits, e.g. 2,1 (MD: 3:2,5:1)"}),
        ("--tail", {"default": None, "help": "periodic selector tail"}),
    )),
    "cylinder": (_cmd_cylinder, "exact cylinder interval and metrics", ("family",), (), (
        ("--addr", {"default": "", "help": "address digits, e.g. 1,2"}),
        ("--child", {"type": _int, "default": None, "help": "also report this child's width ratio (default none)"}),
    )),
    "verify": (_cmd_verify, "run the cylinder property suite", ("family", "depth", "cap"), ("text", "json"), ()),
    "cover": (_cmd_cover, "covering-sum table", ("family", "depth"), (), ()),
    "boxcount": (_cmd_boxcount, "box-counting fit vs the solver", ("family", "cap"), (), (
        ("--scales", {"type": _scales, "default": (), "help": "n_lo:n_hi for eps = s^-n (default 4:10, 4:11 at s=2)"}),
    )),
    "enumerate": (_cmd_enumerate, "admissible addresses at a depth", ("family", "depth", "cap"), ("text", "json"), ()),
    "convert": (_cmd_convert, "round-trip digits across representations", (), (), (
        ("--base", {"type": _int, "required": True, "help": "the base s of both representations"}),
        ("--digits", {"required": True, "help": "source digits, e.g. 1,0,2"}),
        ("--source", {
            "choices": ("sadic", "negasadic"), "default": "sadic", "help": "representation of --digits (default sadic)",
        }),
        ("--target", {"choices": ("sadic", "negasadic"), "required": True, "help": "representation to convert to"}),
        ("--length", {"type": _int, "default": 8, "help": "target digits to write (default 8)"}),
    )),
}


class _UsageError(Exception):
    """A command line that runs no command; args: (its command or None, the message)."""


def _options(name: str) -> dict:
    """Command `name`'s options, flag -> settings, in the order its usage lists them."""
    _, _, shared, formats, own = _COMMANDS[name]
    options = {"--help": {"help": "show this help message and exit"}}
    if "depth" in shared:
        options["--depth"] = {"type": _at_least(0), "default": 8, "help": "deepest address level (default 8)"}
    if "cap" in shared:
        types = ", or word steps a count by cell types may take" * (name == "boxcount")
        options["--cap"] = {
            "type": _at_least(1), "default": DEFAULT_CAP,
            "help": f"most cylinders a walk may visit{types} (default {DEFAULT_CAP:,})",
        }
    if formats:
        options["--format"] = {"choices": formats, "default": formats[0], "help": f"output format (default {formats[0]})"}
    options["--out"] = {"default": None, "help": "file to write the output to (default stdout)"}
    options.update(own)
    return options


def _invalid_choice(what: str, value: str, choices) -> str:
    return f"argument {what}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _option(name, arg: str, flags) -> tuple[str, str | None] | None:
    """How `arg` reads against the long `flags` of command `name`, as argparse
    read it: None for a value, else the flag it names ("" for one the command
    lacks) and the value glued on with "=" (None when there is none).

    A flag may be cut to a unique prefix (`--dep`); "-", negative numbers and
    text with a space are values."""
    if arg[:1] != "-" or arg == "-":
        return None
    head, eq, glued = arg.partition("=")
    glued = glued if eq else None
    if arg.startswith("--"):
        named = [head] if head in flags else [flag for flag in flags if flag.startswith(head)]
        if len(named) > 1:
            raise _UsageError(name, f"ambiguous option: {arg} could match {', '.join(named)}")
        if named:
            return named[0], glued
    elif arg.startswith("-h"):  # "-hx" and "-h=x" glue x to -h
        return "--help", (None if arg == "-h" else glued if head == "-h" else arg[2:])
    if (arg[1:].replace(".", "", 1).isdecimal() and arg[-1] != ".") or " " in arg:  # -1, -.5, -2.5
        return None
    return "", None


def _show_help(name, glued):
    """Print the help of command `name` (None: of `cantorkit`) for -h/--help."""
    if glued is not None:
        raise _UsageError(name, f"argument -h/--help: ignored explicit argument {glued!r}")
    print(_help(name))


def _read(argv):
    """The handler and values of command line `argv`, read against `_COMMANDS`;
    None when it asked for help, which is printed."""
    extras = []  # options given before the command
    for i, arg in enumerate(argv):
        if arg in _COMMANDS:
            return _read_command(arg, argv[i + 1 :], extras)
        option = None if arg == "--" else _option(None, arg, ("--help",))
        if option is None:
            raise _UsageError(None, _invalid_choice("command", arg, _COMMANDS))
        if option[0]:
            return _show_help(None, option[1])
        extras.append(arg)
    raise _UsageError(None, "the following arguments are required: command")


def _read_command(name: str, argv, extras):
    """`_read` past the command name: options in any order around the family,
    `--opt value` or `--opt=value`, the last of a repeated option winning, and
    `--` ending the options."""
    func, _, shared, _, _ = _COMMANDS[name]
    options = _options(name)
    values = {flag[2:]: spec.get("default") for flag, spec in options.items()}
    wants_family, seen, ended, i = "family" in shared, set(), False, 0
    while i < len(argv):
        arg, i = argv[i], i + 1
        if arg == "--" and not ended:
            ended = True
            continue
        option = None if ended else _option(name, arg, options)
        if option is None:
            if wants_family and "family" not in values:
                values["family"] = arg
            else:
                extras.append(arg)
            continue
        flag, text = option
        if not flag:
            extras.append(arg)
            continue
        if flag == "--help":
            return _show_help(name, text)
        if text is None:
            if i == len(argv) or argv[i] == "--" or _option(name, argv[i], options) is not None:
                raise _UsageError(name, f"argument {flag}: expected one argument")
            text, i = argv[i], i + 1
        spec = options[flag]
        try:
            value = spec.get("type", str)(text)
        except ValueError as exc:
            raise _UsageError(name, f"argument {flag}: {exc}") from None
        if "choices" in spec and value not in spec["choices"]:
            raise _UsageError(name, _invalid_choice(flag, value, spec["choices"]))
        values[flag[2:]] = value
        seen.add(flag)
    missing = ["family"] if wants_family and "family" not in values else []
    missing += [flag for flag, spec in options.items() if spec.get("required") and flag not in seen]
    if missing:
        raise _UsageError(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(name, f"unrecognized arguments: {' '.join(extras)}")
    return func, SimpleNamespace(**values)


def _metavar(flag: str, spec: dict) -> str:
    return "{" + ",".join(spec["choices"]) + "}" if "choices" in spec else flag[2:].upper()


def _usage(name) -> str:
    """The usage line of command `name`, or of `cantorkit` for None."""
    if name is None:
        return f"usage: cantorkit [-h] {{{','.join(_COMMANDS)}}} ..."
    words = [f"usage: cantorkit {name} [-h]"]
    for flag, spec in list(_options(name).items())[1:]:
        word = f"{flag} {_metavar(flag, spec)}"
        words.append(word if spec.get("required") else f"[{word}]")
    return " ".join(words + ["family"] * ("family" in _COMMANDS[name][2]))


def _rows(rows) -> str:
    """Help rows: each name, then its help from column 24."""
    return "\n".join(
        (f"  {left:<20}  {right}" if len(left) <= 20 else f"  {left}\n{'':24}{right}").rstrip()
        for left, right in rows
    )


def _help(name) -> str:
    """The help of command `name`, or of `cantorkit` for None, from `_COMMANDS`."""
    if name is None:
        sections = [__doc__.strip(), "commands:\n" + _rows((cmd, row[1]) for cmd, row in _COMMANDS.items())]
        options = {"--help": {"help": "show this help message and exit"}}
    else:
        family = "KIND(key=value,...), e.g. Su(s=5,u=2), Blocks(s=3,B=[0 2;1]), Cantor(d=[3],I=[{0,2}])"
        sections = ["positional arguments:\n" + _rows([("family", family)])] * ("family" in _COMMANDS[name][2])
        options = _options(name)
    rows = [
        ("-h, --help" if flag == "--help" else f"{flag} {_metavar(flag, spec)}", spec.get("help", ""))
        for flag, spec in options.items()
    ]
    return "\n\n".join([_usage(name), *sections, "options:\n" + _rows(rows)])


def main(argv=None) -> int:
    """Run one command line (default `sys.argv[1:]`): parse its family, run
    its handler, write the text to stdout or --out, and return the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = _read(argv)
    except _UsageError as exc:
        name, message = exc.args
        sys.stderr.write(f"{_usage(name)}\nerror: {message}\n")
        return 1
    if command is None:  # -h printed the help
        return 0
    func, args = command
    try:
        if hasattr(args, "family"):
            args.family = parse_family(args.family)
        text, code = func(args)
        _emit(text, args.out)
        return code
    except (CantorkitError, ValueError) as exc:
        # every library error, bad numbers included, is a usage error
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:  # the reader left: keep the flush at exit quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
