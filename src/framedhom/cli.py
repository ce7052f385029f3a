"""Command-line front end: JSON file formats, the word grammar, and verify suites.

Exit codes: 0 success, 1 property failure, 2 input validation, 3 cross-input
mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
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

# most trials one verify suite may run: ten times the largest default (1000)
MAX_TRIALS = 10_000


def _capped(value: int, what: str, limit: int = MAX_SURFACE_SIZE) -> int:
    if value > limit:
        raise TooLarge(f"{what} = {value} exceeds the supported maximum {limit}")
    return value


def _trials(value: int) -> int:
    if value < 1:
        raise InvalidCount(f"--trials = {value} must be at least 1")
    return _capped(value, "--trials", MAX_TRIALS)


# ---------------------------------------------------------------------------
# file formats


def _int(value: Any, what: str) -> int:
    # bool is a subclass of int, but JSON true/false is not an integer
    if type(value) is not int:
        raise FileFormatError(f"{what} must be a JSON integer, got {json.dumps(value)}")
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


def framing_from_dict(data: Any) -> Framing:
    if not isinstance(data, dict):
        raise FileFormatError("framing file must hold one JSON object")
    allowed = {"g", "kappa", "wind_x", "wind_y", "arc2"}
    unknown = set(data) - allowed
    if unknown:
        raise FileFormatError(f"unknown framing keys: {sorted(unknown)}")
    for key in ("g", "kappa", "wind_x", "wind_y"):
        if key not in data:
            raise FileFormatError(f"framing file is missing {key!r}")
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

    if not isinstance(data, dict):
        raise FileFormatError("automorphism file must hold one JSON object")
    allowed = {"g", "n", "S", "M"}
    unknown = set(data) - allowed
    if unknown:
        raise FileFormatError(f"unknown automorphism keys: {sorted(unknown)}")
    for key in ("g", "n", "S"):
        if key not in data:
            raise FileFormatError(f"automorphism file is missing {key!r}")
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


_TERM_RE = re.compile(r"([+-]?)(\d*)\*?([xyd])(\d+)")
_SHORT_RE = re.compile(r"^T([xyd])(\d+)(?:\^(-?\d+))?$")
_TWIST_RE = re.compile(r"^T\(([^;]+);w=(-?\d+)\)(?:\^(-?\d+))?$")
_PUSH_RE = re.compile(r"^P\((\d+);([^;)]+)\)$")


def _word_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than the interpreter converts
        raise WordSyntaxError(f"integer of {len(digits)} characters is too long") from exc


def parse_vector(expr: str, spec: SurfaceSpec, punctured: bool):
    """Parse a linear combination like 'x1+2y2-d3' into a lattice vector."""
    expr = expr.replace(" ", "")
    coords = [0] * (spec.rel_rank if punctured else spec.abs_rank)
    pos = 0
    matched = False
    while pos < len(expr):
        m = _TERM_RE.match(expr, pos)
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
    takes an optional ^<power>.
    """
    from .words import PointPush, Twist, Word, standard_alphabet

    spec = f.spec
    alphabet = standard_alphabet(f)
    letters = []
    for token in text.split():
        m = _SHORT_RE.match(token)
        if m:
            name = f"T{m.group(1)}{m.group(2)}"
            if name not in alphabet:
                raise WordSyntaxError(f"unknown alphabet letter {name}")
            base = alphabet[name]
            power = _word_int(m.group(3)) if m.group(3) else 1
            if power == 0:
                raise WordSyntaxError("twist power must be nonzero")
            letters.append(Twist(base.curve, power, base.winding))
            continue
        m = _TWIST_RE.match(token)
        if m:
            curve = parse_vector(m.group(1), spec, punctured=True)
            power = _word_int(m.group(3)) if m.group(3) else 1
            if power == 0:
                raise WordSyntaxError("twist power must be nonzero")
            letters.append(Twist(curve, power, _word_int(m.group(2))))
            continue
        m = _PUSH_RE.match(token)
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
    from .moves import ArcParityTwist, BoundaryTwist, ConnectSum

    if isinstance(m, ConnectSum):
        return {"move": "connect-sum", "kind": m.kind, "index": m.index,
                "helper": m.helper, "sign": m.sign}
    if isinstance(m, ArcParityTwist):
        return {"move": "arc-parity-twist", "j1": m.j1, "j2": m.j2}
    if isinstance(m, BoundaryTwist):
        return {"move": "boundary-twist", "j": m.j}
    raise FramedHomError(f"unknown move {m!r}")


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
    from .theta import theta

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

    fields = args.partition.split(",")
    _capped(len(fields), "n")
    try:
        parts = tuple(int(p) for p in fields)
    except ValueError as exc:
        raise FileFormatError(f"cannot parse partition {args.partition!r}") from exc
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
    from .bruteforce import CENSUS_MAX_G
    from .verify import SUITES, run_suite

    if args.suite != "all" and args.suite not in SUITES:
        raise UnknownSuite(f"unknown suite {args.suite!r}; choose from {', '.join([*SUITES, 'all'])}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    g = None if args.g is None else _capped(args.g, "g")
    trials = None if args.trials is None else _trials(args.trials)
    # under `all` a --g beyond the census leaves census at its own genus; alone it exits 2
    census_g = None if args.suite == "all" and g is not None and g > CENSUS_MAX_G else g
    results = [
        run_suite(n, g=census_g if n == "census" else g, trials=trials, seed=args.seed) for n in names
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framedhom",
        description="Exact winding-number crossed homomorphism and stratum monodromy kernels",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("arf", help="Arf invariant of a framing file")
    p.add_argument("--framing", required=True)
    p.set_defaults(fn=cmd_arf)

    p = sub.add_parser("theta", help="crossed-homomorphism value of an automorphism")
    p.add_argument("--paut", required=True)
    p.add_argument("--framing", required=True)
    p.set_defaults(fn=cmd_theta)

    p = sub.add_parser("kernel-test", help="membership in the kernel")
    p.add_argument("--paut", required=True)
    p.add_argument("--framing", required=True)
    p.set_defaults(fn=cmd_kernel_test)

    p = sub.add_parser("lift", help="kernel element over a prescribed transvection")
    p.add_argument("--framing", required=True)
    p.add_argument("vector", help="primitive absolute class, e.g. 'x1+2y2'")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("factor-sp", help="transvection factorization of the S block")
    p.add_argument("--paut", required=True)
    p.set_defaults(fn=cmd_factor_sp)

    p = sub.add_parser("act", help="act on a framing by a word")
    p.add_argument("--framing", required=True)
    p.add_argument("--word", required=True, help="e.g. 'Tx1 Ty2^-1 P(2;x1)'")
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("match", help="move sequence carrying one framing to another")
    p.add_argument("framing_file")
    p.add_argument("target_file")
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("stratum", help="framing preset and structure report for a partition")
    p.add_argument("partition", help="comma-separated positive zero orders, e.g. '1,1'")
    p.set_defaults(fn=cmd_stratum)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="a suite name, or 'all' for every suite")
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--trials", type=int, default=None, help=f"1 to {MAX_TRIALS}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone (`| head`): send what is still buffered to
        # devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SpecMismatch, ArfMismatch, QVectorMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FramedHomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
