"""Command-line front end: JSON file formats, the word grammar, and verify suites.

Exit codes: 0 success, 1 property failure, 2 input validation, 3 cross-input
mismatch.
"""

from __future__ import annotations

import json
import os
import re
import sys
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

# each command imports the layers it needs, so a cold call loads only those
from .errors import (
    ArfMismatch,
    FileFormatError,
    FramedHomError,
    InvalidCount,
    NoLiftExists,
    QVectorMismatch,
    SpecMismatch,
    TooLarge,
    UnknownSuite,
    WindingParityMismatch,
    WordSyntaxError,
)
from .framing import Framing, arf
from .lattice import AbsVec, PunctVec, SurfaceSpec

if TYPE_CHECKING:
    from .kernel import StructureReport
    from .paut import PAutElem
    from .words import Word


# largest genus and largest number of marked points accepted from a file or
# the command line; checked before a surface of that size is built
MAX_SURFACE_SIZE = 100

# largest --g a verify run takes: `verify all --g 8` runs in 8-12 s on a
# 2-core machine, --g 10 in 38 s
MAX_VERIFY_G = 8

# most trials one verify suite may run: ten times the largest default (1000)
MAX_TRIALS = 10_000

# most work a verify run with both --g and --trials may take, trials * g^2:
# on a 2-core machine `verify all` ran 11.4 s at --g 8 --trials 1000, 13.7 s
# at --g 2 --trials 10000 and 109 s at --g 8 --trials 10000
MAX_VERIFY_WORK = 64_000


def _capped(value: int, what: str, limit: int = MAX_SURFACE_SIZE) -> int:
    if value > limit:
        raise TooLarge(f"{what} = {value} exceeds the supported maximum {limit}")
    return value


def _ascii_int(text: str, what: str) -> int:
    """text as an integer: ASCII digits, with an optional leading '-'.

    int() also takes underscores, a '+', surrounding whitespace and other
    scripts' digits.
    """
    digits = text[1:] if text.startswith("-") else text
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        return int(text)
    except ValueError as exc:  # also more digits than the interpreter converts
        raise FileFormatError(f"cannot parse {what}") from exc


def _trials(value: int) -> int:
    if value < 1:
        raise InvalidCount(f"--trials = {value} must be at least 1")
    return _capped(value, "--trials", MAX_TRIALS)


# ---------------------------------------------------------------------------
# file formats


def _int(value: Any, what: str) -> int:
    # bool is a subclass of int, but JSON true/false is not an integer
    if type(value) is not int:
        try:
            shown = json.dumps(value)
        except (TypeError, ValueError):  # not JSON, or an integer too long to print
            shown = f"a {type(value).__name__}"
        raise FileFormatError(f"{what} must be a JSON integer, got {shown}")
    # json.load refuses integers of more digits than str() prints; refused here
    # too, so no later error message fails to format one
    digits = sys.get_int_max_str_digits()
    if digits and value.bit_length() > 3 * digits and abs(value) >= 10**digits:
        raise FileFormatError(f"{what} holds an integer of more than {digits} digits")
    return value


def _ints(value: Any, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise FileFormatError(f"{what} must be a list of integers")
    return tuple(_int(v, what) for v in value)


def _int_rows(value: Any, what: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise FileFormatError(f"{what} must be a list of integer rows")
    return tuple(_ints(row, what) for row in value)


def framing_to_dict(f: Framing) -> dict[str, Any]:
    out: dict[str, Any] = {
        "g": f.spec.g,
        "kappa": list(f.spec.kappa),
        "wind_x": list(f.wind_x),
        "wind_y": list(f.wind_y),
    }
    if f.arc2 is not None and f.spec.n >= 2:
        out["arc2"] = list(f.arc2)
    return out


def _keys(data: Any, what: str, required: tuple[str, ...], optional: str) -> None:
    """Refuse anything but one JSON object with all required and no unknown keys."""
    if not isinstance(data, dict):
        raise FileFormatError(f"{what} file must hold one JSON object")
    unknown = set(data) - {*required, optional}
    if unknown:
        raise FileFormatError(f"unknown {what} keys: {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise FileFormatError(f"{what} file is missing {key!r}")


def framing_from_dict(data: Any) -> Framing:
    _keys(data, "framing", ("g", "kappa", "wind_x", "wind_y"), "arc2")
    g = _capped(_int(data["g"], "g"), "g")
    kappa = _ints(data["kappa"], "kappa")
    _capped(len(kappa), "n")
    spec = SurfaceSpec(g, kappa)
    arc2 = _ints(data["arc2"], "arc2") if "arc2" in data else None
    return Framing(spec, _ints(data["wind_x"], "wind_x"), _ints(data["wind_y"], "wind_y"), arc2)


def paut_to_dict(a: PAutElem) -> dict[str, Any]:
    return {
        "g": a.g,
        "n": a.n,
        "S": [list(row) for row in a.S],
        "M": [list(row) for row in a.M],
    }


def paut_from_dict(data: Any) -> PAutElem:
    from .paut import PAutElem

    _keys(data, "automorphism", ("g", "n", "S"), "M")
    g, n = _capped(_int(data["g"], "g"), "g"), _capped(_int(data["n"], "n"), "n")
    s = _int_rows(data["S"], "S")
    m = _int_rows(data.get("M", []), "M")
    if m == ():
        m = ((),) * len(s)  # n = 1; S's shape is checked against g by PAutElem
    return PAutElem(g, n, s, m)


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, bytes that are not UTF-8 and
        # integers longer than the interpreter's digit limit
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc


def load_framing(path: str) -> Framing:
    return framing_from_dict(_load_json(path))


def load_paut(path: str) -> PAutElem:
    return paut_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# word grammar


@cache
def _patterns() -> tuple[re.Pattern[str], ...]:
    """The grammar's term, shorthand, twist and push patterns, compiled on first use.

    Only act and lift parse words, so the other commands never compile them.
    re.ASCII: a str pattern's \\d would take every script's digits, which
    int() converts.
    """
    return (
        re.compile(r"([+-]?)(\d*)\*?([xyd])(\d+)", re.ASCII),
        re.compile(r"^T([xyd])(\d+)(?:\^(-?\d+))?$", re.ASCII),
        re.compile(r"^T\(([^;]+);w=(-?\d+)\)(?:\^(-?\d+))?$", re.ASCII),
        re.compile(r"^P\((\d+);([^;)]+)\)$", re.ASCII),
    )


def _word_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than the interpreter converts
        raise WordSyntaxError(f"integer of {len(digits)} characters is too long") from exc


def parse_vector(expr: str, spec: SurfaceSpec, punctured: bool):
    """Parse a linear combination like 'x1+2y2-d3' into a lattice vector."""
    term = _patterns()[0]
    expr = expr.replace(" ", "")
    coords = [0] * (spec.rel_rank if punctured else spec.abs_rank)
    pos = 0
    matched = False
    while pos < len(expr):
        m = term.match(expr, pos)
        if not m:
            raise WordSyntaxError(f"cannot parse vector term at {expr[pos:]!r}")
        sign, mag, sym, idx = m.groups()
        coef = _word_int(mag) if mag else 1
        if sign == "-":
            coef = -coef
        i = _word_int(idx)
        if sym == "x" or sym == "y":
            if not 1 <= i <= spec.g:
                raise WordSyntaxError(f"handle index {i} out of range 1..{spec.g}")
            coords[2 * (i - 1) + (0 if sym == "x" else 1)] += coef
        else:
            if not punctured:
                raise WordSyntaxError("d symbols are only legal in twist classes")
            if not 2 <= i <= spec.n:
                raise WordSyntaxError(f"loop index {i} out of range 2..{spec.n}")
            coords[spec.abs_rank + i - 2] += coef
        pos = m.end()
        matched = True
    if not matched:
        raise WordSyntaxError(f"empty vector expression {expr!r}")
    if punctured:
        return PunctVec(spec, tuple(coords))
    return AbsVec(spec, tuple(coords))


def parse_word(text: str, f: Framing) -> Word:
    """Parse the whitespace-separated word grammar against a framing.

    Letters: shorthands Tx1 / Ty2 / Td2 (windings resolved from the framing),
    explicit twists T(<vec>;w=<int>), point-pushes P(<i>;<vec>); any twist
    takes an optional ^<power>.  An explicit twist's winding must have the
    parity that the framing gives its class (check_twist_winding).
    """
    from .words import PointPush, Twist, Word, check_twist_winding, standard_twists

    _, short, twist, push = _patterns()
    spec = f.spec
    alphabet = {name: (curve, winding) for name, curve, winding in standard_twists(f)}
    letters = []
    for token in text.split():
        m = short.match(token)
        if m:
            name = f"T{m.group(1)}{m.group(2)}"
            if name not in alphabet:
                raise WordSyntaxError(f"unknown alphabet letter {name}")
            curve, winding = alphabet[name]
            power = _word_int(m.group(3)) if m.group(3) else 1
            letters.append(Twist(curve, power, winding))
            continue
        m = twist.match(token)
        if m:
            curve = parse_vector(m.group(1), spec, punctured=True)
            power = _word_int(m.group(3)) if m.group(3) else 1
            letter = Twist(curve, power, _word_int(m.group(2)))
            check_twist_winding(letter, f)
            letters.append(letter)
            continue
        m = push.match(token)
        if m:
            loop = parse_vector(m.group(2), spec, punctured=False)
            letters.append(PointPush(_word_int(m.group(1)), loop))
            continue
        raise WordSyntaxError(f"cannot parse letter {token!r}")
    return Word(spec, tuple(letters))


# ---------------------------------------------------------------------------
# reports


def report_to_dict(report: StructureReport) -> dict[str, Any]:
    out: dict[str, Any] = {"regime": report.regime}
    if report.q is not None:
        out["q"] = {"qx": list(report.q.qx), "qy": list(report.q.qy)}
    if report.arf is not None:
        out["arf"] = report.arf
    if report.v_bar is not None:
        out["v_bar"] = list(report.v_bar)
    if report.mod2_kernel_order is not None:
        out["mod2_kernel_order"] = report.mod2_kernel_order
    return out


def move_to_dict(m) -> dict[str, Any]:
    """The move's name, then its fields in declaration order."""
    return {"move": m.name, **{name: getattr(m, name) for name in m._fields}}


def _emit(obj: Any) -> None:
    try:
        text = json.dumps(obj, separators=(", ", ": "))
    except ValueError as exc:  # an integer longer than the interpreter prints
        raise TooLarge(
            f"output holds an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    print(text)


# ---------------------------------------------------------------------------
# commands


def cmd_arf(args) -> int:
    f = load_framing(args.framing)
    _emit({"arf": arf(f)})
    return 0


def cmd_theta(args) -> int:
    from .kernel import theta

    a = load_paut(args.paut)
    f = load_framing(args.framing)
    _emit({"theta": list(theta(a, f).bits)})
    return 0


def cmd_kernel_test(args) -> int:
    from .kernel import kernel_test

    a = load_paut(args.paut)
    f = load_framing(args.framing)
    _emit({"in_kernel": kernel_test(a, f)})
    return 0


def cmd_lift(args) -> int:
    from .kernel import lift_transvection

    f = load_framing(args.framing)
    v = parse_vector(args.vector, f.spec, punctured=False)
    try:
        a = lift_transvection(v, f)
    except NoLiftExists as exc:
        _emit({"error": "NoLiftExists", "message": str(exc)})
        return 1
    _emit(paut_to_dict(a))
    return 0


def cmd_factor_sp(args) -> int:
    from .paut import factor_sp

    a = load_paut(args.paut)
    factors = factor_sp(a.S)
    _emit({"factors": [{"v": list(v), "k": k} for v, k in factors],
           "length": len(factors)})
    return 0


def cmd_act(args) -> int:
    from .words import act_framing, word_to_paut

    f = load_framing(args.framing)
    w = parse_word(args.word, f)
    g = act_framing(w, f)
    _emit({"framing": framing_to_dict(g), "paut": paut_to_dict(word_to_paut(w))})
    return 0


def cmd_match(args) -> int:
    from .moves import match_framings

    f = load_framing(args.framing_file)
    h = load_framing(args.target_file)
    moves = match_framings(f, h)
    _emit({"moves": [move_to_dict(m) for m in moves], "count": len(moves)})
    return 0


def cmd_stratum(args) -> int:
    from .kernel import structure_report

    fields = [p.strip() for p in args.partition.split(",")]
    _capped(len(fields), "n")
    parts = tuple(_ascii_int(p, f"partition {args.partition!r}") for p in fields)
    if not parts or any(k < 1 for k in parts):
        raise FileFormatError("stratum partitions need every entry >= 1")
    total = sum(parts)
    if total % 2 != 0 or total < 2:
        raise FileFormatError(f"partition sum {total} is not 2g-2 for any g >= 2")
    spec = SurfaceSpec(_capped((total + 2) // 2, "g"), parts)
    f = Framing.zeros(spec)
    _emit({"framing": framing_to_dict(f), "report": report_to_dict(structure_report(f))})
    return 0


def cmd_verify(args) -> int:
    from .kernel import MOD2_MAX_G
    from .verify import SUITES, run_suite

    names = list(SUITES) if args.suite == "all" else [args.suite]
    g = None if args.g is None else _capped(_ascii_int(args.g, f"--g {args.g!r}"), "g")
    if g is not None:
        _capped(g, "--g", MAX_VERIFY_G)  # after the surface cap, which has its own message
    trials = None if args.trials is None else _trials(_ascii_int(args.trials, f"--trials {args.trials!r}"))
    if g is not None and trials is not None:
        _capped(trials * g * g, "--trials * --g^2", MAX_VERIFY_WORK)
    seed = _ascii_int(args.seed, f"--seed {args.seed!r}")
    if args.suite != "all" and args.suite not in SUITES:
        raise UnknownSuite(f"unknown suite {args.suite!r}; choose from {', '.join([*SUITES, 'all'])}")
    # under `all` a --g beyond the census leaves census at its own genus; alone it exits 2
    census_g = None if args.suite == "all" and g is not None and g > MOD2_MAX_G else g
    results = [
        run_suite(n, g=census_g if n == "census" else g, trials=trials, seed=seed) for n in names
    ]
    if args.json:
        _emit(
            {
                "suites": [
                    {
                        "suite": r.suite,
                        "ok": r.ok,
                        "elapsed_s": round(r.elapsed, 3),
                        "checks": [
                            {"name": c.name, "ok": c.ok, "detail": c.detail}
                            for c in r.checks
                        ],
                    }
                    for r in results
                ],
                "ok": all(r.ok for r in results),
            }
        )
    else:
        for r in results:
            for c in r.checks:
                mark = "PASS" if c.ok else "FAIL"
                detail = f"  ({c.detail})" if c.detail else ""
                print(f"{mark} {r.suite}/{c.name}{detail}")
            print(f"{'ok' if r.ok else 'FAILED'} suite {r.suite} in {r.elapsed:.2f}s")
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------
# command table: the one grammar of the command line.  _parse reads every
# command line from it, and _usage prints help and usage errors from it in the
# layout of Python's standard option parser at 80 columns, whatever the
# terminal's width

# command: (handler, help, options, positionals); an option is (flag,
# required, default, help), a positional (name, help)
_PAUT = ("--paut", True, None, None)
_FRAMING = ("--framing", True, None, None)
_COMMANDS = {
    "arf": (cmd_arf, "Arf invariant of a framing file", (_FRAMING,), ()),
    "theta": (cmd_theta, "crossed-homomorphism value of an automorphism", (_PAUT, _FRAMING), ()),
    "kernel-test": (cmd_kernel_test, "membership in the kernel", (_PAUT, _FRAMING), ()),
    "lift": (cmd_lift, "kernel element over a prescribed transvection", (_FRAMING,),
             (("vector", "primitive absolute class, e.g. 'x1+2y2'"),)),
    "factor-sp": (cmd_factor_sp, "transvection factorization of the S block", (_PAUT,), ()),
    "act": (cmd_act, "act on a framing by a word",
            (_FRAMING, ("--word", True, None, "e.g. 'Tx1 Ty2^-1 P(2;x1)'")), ()),
    "match": (cmd_match, "move sequence carrying one framing to another",
              (), (("framing_file", None), ("target_file", None))),
    "stratum": (cmd_stratum, "framing preset and structure report for a partition",
                (), (("partition", "comma-separated positive zero orders, e.g. '1,1'"),)),
    # integers in ASCII digits, parsed by cmd_verify (_ascii_int)
    "verify": (cmd_verify, "run a named verification suite",
               (("--g", False, None, None),
                ("--trials", False, None, f"1 to {MAX_TRIALS}"),
                ("--seed", False, "0", None)),
               (("suite", "a suite name, or 'all' for every suite"),)),
}


def _usage(command: str | None, error: str | None = None) -> int:
    """Print a command's help (None: the top level's) and return 0, or its usage and error and return 2.

    Each help line is an invocation, then its help, if any, from column
    min(24, 2 + the widest indented invocation), or on the next line if it
    does not fit.
    """
    if command is None:
        choices = "{" + ",".join(_COMMANDS) + "}"
        prog, opts, pos = "framedhom", ["[-h]", "[--json]"], [choices, "..."]
        pos_rows = [(choices, None), *((f"  {name}", entry[1]) for name, entry in _COMMANDS.items())]
        opt_rows = [("--json", "machine-readable output")]
    else:
        _, _, options, positionals = _COMMANDS[command]
        calls = [(f"{flag} {flag[2:].upper()}", required, hint) for flag, required, _, hint in options]
        prog, pos = f"framedhom {command}", [name for name, _ in positionals]
        opts = ["[-h]", *(call if required else f"[{call}]" for call, required, _ in calls)]
        pos_rows, opt_rows = list(positionals), [(call, hint) for call, _, hint in calls]
    # one line if it fits in 78 columns, else the positionals wrapped below the options
    usage = [" ".join(["usage:", prog, *opts, *pos])]
    if len(usage[0]) > 78:
        usage, indent = [" ".join(["usage:", prog, *opts])], " " * len(f"usage: {prog} ")
        for i, part in enumerate(pos):
            if i == 0 or len(usage[-1]) + 1 + len(part) > 78:
                usage.append(indent + part)
            else:
                usage[-1] += " " + part
    if error is not None:
        sys.stderr.write("\n".join([*usage, f"{prog}: error: {error}\n"]))
        return 2
    blocks = ["\n".join(usage)]
    if command is None:
        blocks.append("Exact winding-number crossed homomorphism and stratum monodromy kernels")
    opt_rows = [("-h, --help", "show this help message and exit"), *opt_rows]
    column = min(24, 4 + max(len(call) for call, _ in pos_rows + opt_rows))
    for title, rows in (("positional arguments", pos_rows), ("options", opt_rows)):
        lines = [f"{title}:"]
        for call, hint in rows:
            call = "  " + call
            if hint is None:
                lines.append(call)
            elif len(call) <= column - 2:
                lines.append(call.ljust(column) + hint)
            else:
                lines += [call, " " * column + hint]
        if len(lines) > 1:
            blocks.append("\n".join(lines))
    sys.stdout.write("\n\n".join(blocks) + "\n")
    return 0


def _is_value(token: str, flags) -> bool:
    """Whether token is a value rather than an option.

    A value does not start with '-', or is '-', a negative number or holds a
    space; --flag=value for one of flags, the options that take a value, is
    an option.
    """
    head, dot, tail = token[1:].partition(".")
    number = (head + tail).isdecimal() and (tail != "" or not dot)
    value = not token.startswith("-") or token == "-" or number or " " in token
    return value and token.partition("=")[0] not in flags


def _parse(argv: list[str]) -> SimpleNamespace | int:
    """The namespace that main runs for argv, or the exit code after help (0) or a usage error (2).

    Reads argv as the standard library's parser does, except that an
    abbreviated option is an unknown one: --json and -h before the command;
    after it options and positionals in any order, each option as --opt value
    or --opt=value (the last one given wins), -h anywhere before a '--' that
    makes every later token a positional.  An option missing its value is
    refused at once; then a missing required argument, then an unknown option
    or extra positional, under the top-level usage.
    """
    args: dict[str, Any] = {"json": False}
    command, options, positionals, flags = None, (), (), set()
    given: dict[str, str] = {}
    values: list[str] = []
    extras: list[str] = []
    after_dashes = False
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if command is None and (token == "--" or _is_value(token, flags)):
            if token not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                return _usage(None, f"argument command: invalid choice: {token!r} (choose from {choices})")
            command = args["command"] = token
            args["fn"], _, options, positionals = _COMMANDS[token]
            flags = {flag for flag, *_ in options}
        elif after_dashes or _is_value(token, flags):
            (values if len(values) < len(positionals) else extras).append(token)
        elif token == "--":
            after_dashes = True
        elif token in ("-h", "--help"):
            return _usage(command)
        elif command is None and token == "--json":
            args["json"] = True
        elif flag not in flags:
            extras.append(token)
        elif eq or _is_value(value := next(tokens, "--"), flags):
            given[flag] = value
        else:
            return _usage(command, f"argument {flag}: expected one argument")
    missing = [flag for flag, required, _, _ in options if required and flag not in given]
    missing += [name for name, _ in positionals[len(values):]]
    if command is None or missing:
        return _usage(command, f"the following arguments are required: {', '.join(missing or ['command'])}")
    if extras:
        return _usage(None, f"unrecognized arguments: {' '.join(extras)}")
    args.update({flag[2:]: given.get(flag, default) for flag, _, default, _ in options})
    args.update(zip([name for name, _ in positionals], values))
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code = args if isinstance(args, int) else args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone (`| head`): send what is still buffered to
        # devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SpecMismatch, ArfMismatch, QVectorMismatch, WindingParityMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FramedHomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
