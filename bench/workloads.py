"""The four benchmark workloads: seeded pools of ops, each with an output check.

A pool is a list of rounds.  A round holds a fixed number of ops of every
kind, genus and size class (its cells), in a seeded order; only the random
inputs inside the cells change with the seed, so the mix, and with it the
figures, stay put from seed to seed.  Cell counts are chosen so that the
median and the 90th percentile fall inside a cell, not on the edge between
a fast cell and a slow one.  The timed loop runs the pool's ops in
order and starts again at its head when it runs out.

Inputs come from ``framedhom.sampling``.  Every op's first result is checked
against a value computed independently (see ``checks``); later runs of the
same op must return an equal result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random
from statistics import median
from time import perf_counter
from typing import Any, Callable

import checks
import framedhom as fh
from framedhom import sampling


@dataclass
class Op:
    name: str  # span name of the layer call, "<layer>.<function>"
    label: str  # input cell, e.g. "theta/large/g5/odd"
    fn: Callable
    args: tuple
    check: Callable[[Any], bool]  # independent check of the op's first result
    cls: str = ""  # entry-size class of the automorphism ("small" or "large")


def python_probe() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the machine runs Python now."""
    t = perf_counter()
    acc = 0
    table = {}
    for i in range(1500):
        acc += (i * 7 + 3) % 11
        table[i & 31] = (acc, i)
    return perf_counter() - t


@dataclass(frozen=True)
class Probe:
    """A fixed task timed between ops, which slows with the machine as the ops do.

    An op's wall time is scaled by ``ref_s`` (a fixed time, near the task's
    time on the 2-core reference machine) over the median of the last
    ``window`` probes, taken at least ``every_s`` apart.
    """
    fn: Callable[[], float]
    ref_s: float
    window: int
    every_s: float


PYTHON_PROBE = Probe(python_probe, ref_s=0.25e-3, window=5, every_s=0.02)


def cold_start_probe() -> float:
    """Wall seconds of a fresh interpreter that imports numpy.

    A cold start is mostly process start, shared-library loading and bytecode
    unmarshalling, which a pure-Python loop does not track; this task does,
    and it does not change with the library.  It scales cli calls and set-up.
    """
    t = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True,
                   timeout=170)
    return perf_counter() - t


# The host drifts within seconds, so a cli call or set-up is scaled by the
# one probe taken closest before it.  On cli that is before about every second
# call: a probe before every call made a cli run 14% longer, for spreads that
# were already well inside the bounds.
COLD_PROBE = Probe(cold_start_probe, ref_s=0.13, window=1, every_s=0.25)


@dataclass
class Workload:
    rounds: list[list[Op]]
    generate_s: float
    peak_rss_mb: Callable[[], float]
    traced_extra: Callable[[], dict] | None = None
    close: Callable[[], None] = lambda: None
    probe: Probe = PYTHON_PROBE

    def __post_init__(self) -> None:
        self.pool = [op for ops in self.rounds for op in ops]

    @property
    def round_len(self) -> int:
        return len(self.rounds[0])


def _self_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _spec(rng: Random, g: int, regime: str):
    """Surface of genus g: all kappa even ("even") or some kappa odd ("odd")."""
    if regime == "even":
        return sampling.random_spec(rng, g, rng.randint(1, 4), even_only=True)
    while True:
        spec = sampling.random_spec(rng, g, rng.randint(2, 4))
        if any(k % 2 for k in spec.kappa):
            return spec


def _mod2(s) -> tuple:
    return tuple(tuple(v & 1 for v in row) for row in s)


# ---------------------------------------------------------------------------
# algebra: theta, kernel membership, lifts and factorizations


ALG_GENERA = (2, 3, 4, 5)
SIZE_CLASSES = (("small", 4), ("large", 16))  # transvection factors per automorphism
ALG_ROUNDS = 8


def _theta_check(a, f, partner):
    def check(res) -> bool:
        if res.bits != checks.theta_bits(a, f):
            return False
        if partner is None:
            return True
        # cocycle: theta(AB) = pullback(B) theta(A) + theta(B)
        lhs = fh.theta(fh.compose(a, partner), f).bits
        return lhs == checks.add(checks.pullback(partner.S, res.bits), fh.theta(partner, f).bits)

    return check


def _liftable(rng: Random, f, regime: str):
    """Primitive class with a lift: in the even regime its winding parity is 0."""
    q = checks.winding_form(f)
    while True:
        v = sampling.random_primitive_abs(rng, f.spec)
        if regime == "odd" or checks.quad(q, v.coords) == 1:
            return v


def build_algebra(seed: int, work: Path) -> Workload:
    rng = Random(seed)
    t0 = perf_counter()
    rounds = []
    for r in range(ALG_ROUNDS):
        ops = []
        for g in ALG_GENERA:
            for regime in ("even", "odd"):
                for cls, factors in SIZE_CLASSES:
                    spec = _spec(rng, g, regime)
                    f = sampling.random_framing(rng, spec)
                    a = sampling.random_paut(rng, spec, factors)
                    partner = sampling.random_paut(rng, spec, 4) if r == 0 else None
                    ops.append(Op("theta.theta", f"theta/{cls}/g{g}/{regime}", fh.theta,
                                  (a, f), _theta_check(a, f, partner), cls))
                    spec = _spec(rng, g, regime)
                    f = sampling.random_framing(rng, spec)
                    a = sampling.random_paut(rng, spec, factors)
                    ops.append(Op("kernel.kernel_test", f"kernel_test/{cls}/g{g}/{regime}",
                                  fh.kernel_test, (a, f),
                                  lambda res, a=a, f=f: res == (not any(checks.theta_bits(a, f))),
                                  cls))
                for _ in range(3):
                    f = sampling.random_framing(rng, _spec(rng, g, regime))
                    v = _liftable(rng, f, regime)
                    ops.append(Op(
                        "kernel.lift_transvection", f"lift/g{g}/{regime}", fh.lift_transvection,
                        (v, f),
                        lambda res, v=v, f=f: res.S == checks.transvection_matrix(v.coords)
                        and not any(checks.theta_bits(res, f)),
                    ))
            for cls, factors in SIZE_CLASSES:
                s = sampling.random_paut(rng, _spec(rng, g, "even"), factors).S
                ops.append(Op("paut.factor_sp", f"factor_sp/{cls}/g{g}", fh.factor_sp, (s,),
                              lambda res, s=s: checks.factor_product(res, len(s)) == s, cls))
            for _ in range(2):
                qbits = [rng.randint(0, 1) for _ in range(2 * g)]
                q = fh.QForm(tuple(qbits[0::2]), tuple(qbits[1::2]))
                sbar = _mod2(sampling.random_paut(rng, _spec(rng, g, "even"), 4).S)
                ops.append(Op("theta.q_hat", f"q_hat/g{g}", fh.q_hat, (q, sbar),
                              lambda res, qb=qbits, s=sbar: res.bits == checks.q_defect(qb, s)))
            for _ in range(2):
                spec = _spec(rng, g, "odd")
                m = sampling.random_relaut_block(rng, spec)
                ops.append(Op(
                    "theta.v_kappa_star", f"v_kappa_star/g{g}", fh.v_kappa_star, (m, spec),
                    lambda res, m=m, k=spec.kappa: res.bits == checks.signature_functional(m, k),
                ))
        rng.shuffle(ops)
        rounds.append(ops)
    generate_s = perf_counter() - t0
    return Workload(rounds, generate_s, _self_rss_mb)


# ---------------------------------------------------------------------------
# words: word matrices, framing transport, word defects, moves


WORD_GENERA = (2, 3, 4)
WORD_LENGTHS = (4, 12, 32)
WORD_ROUNDS = 8


def act_basis(word, basis):
    """act_rel on every relative basis vector (one op)."""
    return tuple(fh.act_rel(word, x) for x in basis)


def _basis(spec):
    r = spec.rel_rank
    return tuple(fh.RelVec(spec, tuple(int(i == j) for i in range(r))) for j in range(r))


def _random_moves(rng: Random, f, count: int):
    """Framing after `count` random moves, each legal for the framing's kappa."""
    spec = f.spec
    evens = [j for j in range(2, spec.n + 1) if spec.kappa[j - 1] % 2 == 0]
    odds = [j for j in range(2, spec.n + 1) if spec.kappa[j - 1] % 2]
    h = f
    for _ in range(count):
        kinds = ["cs"] + ["csa"] * (spec.n >= 2) + ["bt"] * bool(evens) + ["apt"] * (len(odds) >= 2)
        kind = rng.choice(kinds)
        if kind == "cs":
            i = rng.randint(1, spec.g)
            helper = rng.choice([j for j in range(1, spec.g + 1) if j != i])
            m = fh.ConnectSum(rng.choice("xy"), i, helper, rng.choice([1, -1]))
        elif kind == "csa":
            m = fh.ConnectSum("a", rng.randint(2, spec.n), 1, rng.choice([1, -1]))
        elif kind == "bt":
            m = fh.BoundaryTwist(rng.choice(evens))
        else:
            j1, j2 = sorted(rng.sample(odds, 2))
            m = fh.ArcParityTwist(j1, j2)
        h = fh.apply_move(h, m)
    return h


def _word_paut_check(w):
    def check(res) -> bool:
        basis = _basis(w.spec)
        return all(
            checks.block_column(res, j) == fh.act_rel(w, x).coords for j, x in enumerate(basis)
        )

    return check


def _act_rel_check(w):
    def check(res) -> bool:
        a = fh.word_to_paut(w)
        return [x.coords for x in res] == [checks.block_column(a, j) for j in range(len(res))]

    return check


def _delta_check(w, f, kind, cut):
    def check(res) -> bool:
        if kind == "std":
            # for words in the framing's own alphabet the defect is theta of the matrix
            return res.bits == checks.theta_bits(fh.word_to_paut(w), f)
        w1 = fh.Word(w.spec, w.letters[:cut])
        w2 = fh.Word(w.spec, w.letters[cut:])
        sbar = fh.word_to_paut(w2).S
        first = checks.pullback(sbar, fh.delta_word(w1, f).bits)
        return res.bits == checks.add(first, fh.delta_word(w2, f).bits)

    return check


def _act_framing_check(w, f):
    def check(res) -> bool:
        if (res.wind_x, res.wind_y, res.arc2) != checks.transported_windings(w, f):
            return False
        return not f.has_arc_data or checks.arf(res) == checks.arf(f)

    return check


def _replay_check(f, h):
    def check(res) -> bool:
        cur = f
        for m in res:
            cur = fh.apply_move(cur, m)
        return cur == h

    return check


def build_words(seed: int, work: Path) -> Workload:
    rng = Random(seed)
    t0 = perf_counter()
    rounds = []
    for _ in range(WORD_ROUNDS):
        ops = []
        for g in WORD_GENERA:
            for li, length in enumerate(WORD_LENGTHS):
                spec = sampling.random_spec(rng, g, rng.randint(1, 3))
                # without arc data the words may push points
                f = sampling.random_framing(rng, spec, with_arcs=False)
                words = {
                    "std": sampling.random_standard_word(rng, f, length),
                    "exotic": sampling.random_exotic_word(rng, spec, length),
                }
                for kind, w in words.items():
                    cell = f"{kind}/g{g}/len{length}"
                    ops.append(Op("words.word_to_paut", f"word_to_paut/{cell}", fh.word_to_paut,
                                  (w,), _word_paut_check(w)))
                    cut = rng.randint(0, length)
                    ops.append(Op("words.delta_word", f"delta_word/{cell}", fh.delta_word,
                                  (w, f), _delta_check(w, f, kind, cut)))
                kind = ("std", "exotic")[(g + li) % 2]
                w = words[kind]
                ops.append(Op("words.act_rel", f"act_rel/{kind}/g{g}/len{length}", act_basis,
                              (w, _basis(spec)), _act_rel_check(w)))
                # framing transport: with arc data the word may not push points
                fa = f
                if (g + li) % 2:
                    fa = sampling.random_framing(rng, spec)
                pushes = not fa.has_arc_data or spec.n == 1
                wa = sampling.random_standard_word(rng, fa, length, pushes=pushes)
                ops.append(Op("words.act_framing", f"act_framing/g{g}/len{length}",
                              fh.act_framing, (wa, fa), _act_framing_check(wa, fa)))
                a = fh.word_to_paut(sampling.random_exotic_word(rng, spec, rng.randint(4, 8)))
                b = fh.word_to_paut(sampling.random_standard_word(rng, f, rng.randint(4, 8)))
                ops.append(Op("paut.compose", f"compose/g{g}", fh.compose, (a, b),
                              lambda res, a=a, b=b: (res.S, res.M) == checks.block_product(a, b)))
                fm = sampling.random_framing(rng, spec)
                hm = _random_moves(rng, fm, rng.randint(1, 8))
                ops.append(Op("moves.match_framings", f"match_framings/g{g}",
                              fh.match_framings, (fm, hm), _replay_check(fm, hm)))
        rng.shuffle(ops)
        rounds.append(ops)
    generate_s = perf_counter() - t0
    return Workload(rounds, generate_s, _self_rss_mb)


# ---------------------------------------------------------------------------
# mod2: the exhaustive Sp(2g, Z/2) engine


MOD2_ROUNDS = 3


def fresh_closure(g: int) -> tuple[int, ...]:
    """Packed elements of enumerate_sp2, cache cleared first as every new process pays it."""
    from framedhom import bruteforce

    bruteforce.enumerate_sp2.cache_clear()
    return tuple(bruteforce.enumerate_sp2(g).keys)


def _census_check(res) -> bool:
    order = checks.sp2_order(3)
    even, odd = checks.form_counts(3)
    return (res.even_count, res.odd_count) == (even, odd) and res.stabilizer_orders == {
        0: order // even,
        1: order // odd,
    }


def _report_check(f):
    g, n, kappa = f.spec.g, f.spec.n, f.spec.kappa

    def check(res) -> bool:
        order = checks.kernel_order(f) if g <= 3 and n <= 3 else None
        if res.mod2_kernel_order != order:
            return False
        if all(k % 2 == 0 for k in kappa):
            q = checks.winding_form(f)
            arf = sum(q[i] & q[i + 1] for i in range(0, 2 * g, 2)) & 1
            return res.regime == "even" and res.q.basis_bits() == tuple(q) and res.arf == arf
        return res.regime == "odd" and res.v_bar == tuple(k & 1 for k in kappa[1:])

    return check


def build_mod2(seed: int, work: Path) -> Workload:
    from framedhom import bruteforce as bf

    group = bf.enumerate_sp2(2)
    ident = group.keys[0]
    rng = Random(seed)
    t0 = perf_counter()

    def framing(g, n):
        return sampling.random_framing(rng, sampling.random_spec(rng, g, n))

    def order_check(f):
        return lambda res: res == checks.kernel_order(f)

    def closure_check(res) -> bool:
        return len(res) == checks.sp2_order(2) == len(set(res)) and res[0] == ident

    rounds = []
    for _ in range(MOD2_ROUNDS):
        ops = []
        for _ in range(10):
            ops.append(Op("bruteforce.enumerate_sp2", "enumerate_sp2/g2", fresh_closure, (2,),
                          closure_check))
        for i in range(6):
            f = framing(2, 1 + i % 3)
            ops.append(Op("bruteforce.check_theta_edges", f"check_theta_edges/n{f.spec.n}",
                          bf.check_theta_edges, (group, f), lambda res: res is True))
        for n, count in ((1, 3), (2, 3), (3, 1)):
            for _ in range(count):
                f = framing(2, n)
                ops.append(Op("bruteforce.kernel_order_mod2", f"kernel_order/enumerate/g2/n{n}",
                              bf.kernel_order_mod2, (f, "enumerate"), order_check(f)))
        for g in (2, 3):
            for n in (1, 2, 3):
                f = framing(g, n)
                ops.append(Op("bruteforce.kernel_order_mod2", f"kernel_order/structure/g{g}/n{n}",
                              bf.kernel_order_mod2, (f, "structure"), order_check(f)))
        for _ in range(3):
            ops.append(Op("bruteforce.qform_census", "qform_census/g3", bf.qform_census, (3,),
                          _census_check))
        for g, n in ((2, 1), (2, 2), (3, rng.randint(1, 3)), (3, rng.randint(1, 3)),
                     (4, rng.randint(1, 4)), (4, rng.randint(1, 4))):
            f = framing(g, n)
            ops.append(Op("kernel.structure_report", f"structure_report/g{g}/n{n}",
                          fh.structure_report, (f,), _report_check(f)))
        ops.append(Op("bruteforce.verify_qhat_crossed", "verify_qhat_crossed/g2",
                      bf.verify_qhat_crossed, (2,), lambda res: res is True))
        rng.shuffle(ops)
        rounds.append(ops)
    generate_s = perf_counter() - t0
    return Workload(rounds, generate_s, _self_rss_mb)


# ---------------------------------------------------------------------------
# cli: cold one-shot calls of the JSON command line


ROOT = Path(__file__).resolve().parent.parent
# one stratum per round, the same on every seed: g=2 (mod-2 closure), g=3, g=4
PARTITIONS = ("1,1", "1,1,2", "2,2,2")

# run in a fresh interpreter: seconds to import the CLI, and whether numpy came with it
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import framedhom.cli\n"
    "print(time.perf_counter() - t, int('numpy' in sys.modules))\n"
)


class CliRunner:
    """Runs ``python -m framedhom.cli`` in a child and keeps the largest child RSS."""
    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.err_path = work / "stderr.txt"
        self.max_rss_kb = 0

    def run(self, argv: list[str]) -> tuple[int, bytes, bytes]:
        cmd = [sys.executable, "-m", "framedhom.cli", *argv]
        with open(self.err_path, "w+b") as err, subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root
        ) as proc:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            err.seek(0)
            return proc.returncode, out, err.read()

    def wall(self, cmd: list[str]) -> tuple[float, str]:
        t0 = perf_counter()
        out = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True, text=True,
                             check=True, timeout=170).stdout
        return perf_counter() - t0, out


def _framing_dict(f) -> dict:
    out = {"g": f.spec.g, "kappa": list(f.spec.kappa), "wind_x": list(f.wind_x),
           "wind_y": list(f.wind_y)}
    if f.arc2 is not None and f.spec.n >= 2:
        out["arc2"] = list(f.arc2)
    return out


def _paut_dict(a) -> dict:
    return {"g": a.g, "n": a.n, "S": [list(r) for r in a.S], "M": [list(r) for r in a.M]}


def _move_dict(m) -> dict:
    kind = type(m).__name__
    if kind == "ConnectSum":
        return {"move": "connect-sum", "kind": m.kind, "index": m.index, "helper": m.helper,
                "sign": m.sign}
    if kind == "ArcParityTwist":
        return {"move": "arc-parity-twist", "j1": m.j1, "j2": m.j2}
    return {"move": "boundary-twist", "j": m.j}


def _stratum_expected(partition: str) -> dict:
    kappa = tuple(int(p) for p in partition.split(","))
    spec = fh.SurfaceSpec((sum(kappa) + 2) // 2, kappa)
    f = fh.Framing.zeros(spec)
    g, n = spec.g, spec.n
    if all(k % 2 == 0 for k in kappa):
        q = checks.winding_form(f)
        report = {"regime": "even", "q": {"qx": q[0::2], "qy": q[1::2]},
                  "arf": sum(q[i] & q[i + 1] for i in range(0, 2 * g, 2)) & 1}
    else:
        report = {"regime": "odd", "v_bar": [k & 1 for k in kappa[1:]]}
    if g <= 3 and n <= 3:
        report["mod2_kernel_order"] = checks.kernel_order(f)
    return {"framing": _framing_dict(f), "report": report}


def _vector_text(coords, g: int) -> str:
    """Vector expression of the CLI grammar, e.g. '+1x1-2y2+1d3'."""
    terms = []
    for i, c in enumerate(coords):
        if c:
            sym = f"{'xy'[i % 2]}{i // 2 + 1}" if i < 2 * g else f"d{i - 2 * g + 2}"
            terms.append(f"{c:+d}{sym}")
    return "".join(terms)


def _word_text(w) -> str:
    g = w.spec.g
    out = []
    for letter in w.letters:
        if isinstance(letter, fh.Twist):
            curve = _vector_text(letter.curve.coords, g)
            out.append(f"T({curve};w={letter.winding})^{letter.power}")
        else:
            out.append(f"P({letter.point};{_vector_text(letter.loop.coords, g)})")
    return " ".join(out)


def _json_check(expected: dict):
    def check(res) -> bool:
        code, out, _ = res
        return code == 0 and json.loads(out) == expected

    return check


def _rejected_check(code: int):
    def check(res) -> bool:
        got, out, err = res
        return got == code and out == b"" and err.startswith(b"error:") and b"Traceback" not in err

    return check


def build_cli(seed: int, work: Path) -> Workload:
    runner = CliRunner(ROOT, work)
    rng = Random(seed)
    t0 = perf_counter()
    files = iter(range(1 << 30))

    def dump(text: str) -> str:
        path = work / f"in{next(files)}.json"
        path.write_text(text)
        return str(path)

    rounds = []
    for partition in PARTITIONS:
        spec = sampling.random_spec(rng, rng.randint(2, 3), rng.randint(1, 3))
        f = sampling.random_framing(rng, spec)
        a = sampling.random_paut(rng, spec, 4)
        ff, fa = dump(json.dumps(_framing_dict(f))), dump(json.dumps(_paut_dict(a)))
        regime = "odd" if any(k % 2 for k in spec.kappa) else "even"
        v = _liftable(rng, f, regime)
        fp = sampling.random_framing(rng, spec, with_arcs=False)  # the word may push points
        w = sampling.random_standard_word(rng, fp, rng.randint(4, 8))
        h = _random_moves(rng, f, rng.randint(1, 8))
        factors = fh.factor_sp(a.S)
        moves = fh.match_framings(f, h)
        valid = (
            (["arf", "--framing", ff], {"arf": fh.arf(f)}),
            (["theta", "--paut", fa, "--framing", ff], {"theta": list(fh.theta(a, f).bits)}),
            (["kernel-test", "--paut", fa, "--framing", ff], {"in_kernel": fh.kernel_test(a, f)}),
            (["lift", "--framing", ff, "--", _vector_text(v.coords, spec.g)],
             _paut_dict(fh.lift_transvection(v, f))),
            (["factor-sp", "--paut", fa],
             {"factors": [{"v": list(u), "k": k} for u, k in factors], "length": len(factors)}),
            (["act", "--framing", dump(json.dumps(_framing_dict(fp))), "--word", _word_text(w)],
             {"framing": _framing_dict(fh.act_framing(w, fp)),
              "paut": _paut_dict(fh.word_to_paut(w))}),
            (["match", ff, dump(json.dumps(_framing_dict(h)))],
             {"moves": [_move_dict(m) for m in moves], "count": len(moves)}),
            (["stratum", partition], _stratum_expected(partition)),
        )
        ops = [
            Op(f"cli.{argv[0]}", f"{argv[0]}/g{spec.g}/n{spec.n}", runner.run, (argv,),
               _json_check(want))
            for argv, want in valid
        ]
        k = 2 * spec.g
        not_symplectic = {"g": spec.g, "n": spec.n, "M": [list(r) for r in a.M],
                          "S": [[2 * (i == j) for j in range(k)] for i in range(k)]}
        other = sampling.random_paut(rng, sampling.random_spec(rng, spec.g + 1, spec.n), 4)
        rejected = (
            ("not-symplectic", ["theta", "--paut", dump(json.dumps(not_symplectic)),
                                "--framing", ff], 2),
            ("malformed-json", ["arf", "--framing", dump(json.dumps(_framing_dict(f))[:-1])], 2),
            ("spec-mismatch", ["theta", "--paut", dump(json.dumps(_paut_dict(other))),
                               "--framing", ff], 3),
        )
        ops += [
            Op("cli.rejected", f"rejected/{label}", runner.run, (argv,), _rejected_check(code))
            for label, argv, code in rejected
        ]
        rng.shuffle(ops)
        rounds.append(ops)
    generate_s = perf_counter() - t0

    # warm-up: fill the bytecode cache, then one call to bring the files in
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "framedhom")],
                   check=True, capture_output=True, timeout=170)
    probe_framing, probe_paut = ff, fa
    runner.run(["arf", "--framing", probe_framing])

    def traced_extra() -> dict:
        import framedhom.cli as cli

        out = {}
        out["cli.interp_ms"] = 1e3 * median(
            runner.wall([sys.executable, "-c", "pass"])[0] for _ in range(5)
        )
        probes = [runner.wall([sys.executable, "-c", IMPORT_PROBE])[1].split() for _ in range(5)]
        out["cli.import_ms"] = 1e3 * median(float(p[0]) for p in probes)
        out["cli.numpy_loaded"] = max(int(p[1]) for p in probes)
        word_text = _word_text(w)
        for name, fn, arg in (
            ("cli.load_framing_us", cli.load_framing, probe_framing),
            ("cli.load_paut_us", cli.load_paut, probe_paut),
            ("cli.parse_word_us", lambda text: cli.parse_word(text, fp), word_text),
        ):
            times = []
            for _ in range(200):
                t = perf_counter()
                fn(arg)
                times.append(perf_counter() - t)
            out[name] = 1e6 * median(times)
        wall, text = runner.wall(
            [sys.executable, "-m", "framedhom.cli", "--json", "verify", "all", "--seed", "0"]
        )
        report = json.loads(text)
        if not report["ok"]:
            raise RuntimeError("framedhom verify all --seed 0 reported a failing suite")
        out["cli.verify_all_s"] = wall
        for suite in report["suites"]:
            out[f"verify.{suite['suite']}_s"] = suite["elapsed_s"]
        return out

    return Workload(
        rounds,
        generate_s,
        lambda: runner.max_rss_kb / 1024,
        traced_extra,
        lambda: shutil.rmtree(work, ignore_errors=True),
        COLD_PROBE,
    )


WORKLOADS = {
    "algebra": build_algebra,
    "words": build_words,
    "mod2": build_mod2,
    "cli": build_cli,
}
