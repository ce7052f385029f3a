"""Named verification suites: seeded, deterministic, scriptable.

Each suite returns its list of Checks, one per verified property, and
`run_suite` wraps that list, with the time it took, in the one SuiteResult
of the run, named by the suite's key in SUITES.  The CLI prints a pass/fail
line per check and exits nonzero on any failure.

The random suites are a table: each is a `Suite` of rows, one row per
check.  A `Row` holds the check's name, the noun its tally counts, a `Draw`
and a property of the drawn inputs.  A Draw draws each trial's framing, then
the rest of the trial's inputs, from the suite's seeded stream or from one
of its own.  Calling a Suite is the one driver of these rows, for `verify`
and for the tests alike.  `census` and `kernel-order` run fixed cases
instead.
"""

from __future__ import annotations

import time
from functools import reduce
from itertools import groupby
from operator import attrgetter
from random import Random
from typing import Any, Callable

from . import mod2
from .errors import InvalidCount, InvalidSurface, NoLiftExists, SpecMismatch, UnknownSuite
from .framing import Framing, arf, spin_form, winding_parity
from .kernel import check_mod2_genus, kernel_test, lift_transvection, q_hat, theta, v_kappa_star
from .lattice import AbsVec, CohomClass, RelVec, SurfaceSpec, abs_basis, as_rel, sympl, x_curve, y_curve
from .moves import apply_move, match_framings
from .paut import Mat, PAutElem, factor_sp, identity_mat, pullback_h1, transvection
from .sampling import (
    random_exotic_word,
    random_framing,
    random_move,
    random_parity_zero_word,
    random_paut,
    random_primitive_abs,
    random_relaut_block,
    random_spec,
    random_standard_word,
    refactored_word,
)
from .value import Value, _set
from .words import Twist, Word, act_framing, delta_word, standard_twists, track_curve, word_to_paut


class Check(Value):
    __slots__ = _fields = ("name", "ok", "detail")
    name: str
    ok: bool
    detail: str

    def __init__(self, name: str, ok: bool, detail: str = "") -> None:
        _set(self, "name", name)
        _set(self, "ok", ok)
        _set(self, "detail", detail)


class SuiteResult(Value):
    __slots__ = _fields = ("suite", "checks", "elapsed")
    suite: str
    checks: list[Check]
    elapsed: float

    def __init__(self, suite: str, checks: list[Check], elapsed: float) -> None:
        _set(self, "suite", suite)
        _set(self, "checks", checks)
        _set(self, "elapsed", elapsed)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def theta_by_factorization(a: PAutElem, f: Framing) -> CohomClass:
    """Oracle for `theta`: fold in a transvection factorization of S letter by letter.

    Split A = R * S~; the R block evaluates through v_kappa_star, the S~ block
    through `factor_sp` with letter values k <., v> P(v), since q_phi(T_v x) -
    q_phi(x) = <x, v> (q_phi(v) + 1).  The two combine as
    value(A) = pullback(S~) value(R) + value(S~).
    """
    spec = f.spec
    if not a.matches(spec):
        raise SpecMismatch(
            f"automorphism is for g={a.g}, n={a.n}; framing for g={spec.g}, n={spec.n}"
        )
    w = spec.abs_rank
    qphi = f.qphi
    th_sym = 0
    for coords, k in factor_sp(a.S):
        if k & 1 == 0:
            continue  # even powers contribute nothing and pull back trivially
        v = mod2.pack(coords)
        th_sym = mod2.pull_transvection(th_sym, v, w)
        if not mod2.quad(qphi, v, w):  # winding parity P(v) = q_phi(v) + 1 is odd
            th_sym ^= mod2.dual(v, w)
    th_rel = v_kappa_star(a.M, spec).packed
    return CohomClass.from_packed(spec.g, mod2.pullback(mod2.columns(a.S), th_rel) ^ th_sym)


def v_kappa_star_by_pairing(m: Mat, spec: SurfaceSpec) -> CohomClass:
    """Oracle for `v_kappa_star`: x -> sum_j kappa_{j+1} <M e_j, x> mod 2.

    Evaluated on each absolute basis class with the integer pairing, before
    any reduction mod 2.
    """
    cols = list(zip(*m))
    return CohomClass(
        sum(k * sympl(c, x.coords) for k, c in zip(spec.kappa[1:], cols)) & 1
        for x in abs_basis(spec)
    )


class Draw(Value):
    """How a random check's trials draw their inputs.

    A trial draws a framing f on a surface of genus g (rng.choice(genera)
    when g is None) with rng.choice(ns) marked points, kappa all even when
    `even`, unrestricted when False and all even on a fair coin when None;
    then `rest(rng, f)`, the tuple of its other inputs.  A suite run at t
    trials draws max(1, t * share[0] // share[1]) of them, from Random(seed),
    which a suite's draws without a `stream` share one after another, or from
    Random(f"{stream}-{seed}").
    """

    __slots__ = _fields = ("rest", "genera", "ns", "even", "share", "stream")
    rest: Callable[[Random, Framing], tuple]
    genera: tuple[int, ...]
    ns: tuple[int, ...]
    even: bool | None
    share: tuple[int, int]
    stream: str | None

    def __init__(self, rest, genera=(2, 3), ns=(1, 2, 3), even=False, share=(1, 1), stream=None) -> None:
        _set(self, "rest", rest)
        _set(self, "genera", genera)
        _set(self, "ns", ns)
        _set(self, "even", even)
        _set(self, "share", share)
        _set(self, "stream", stream)

    def __call__(self, rng: Random, g: int | None) -> tuple:
        even = rng.random() < 0.5 if self.even is None else self.even
        spec = random_spec(rng, rng.choice(self.genera if g is None else (g,)), rng.choice(self.ns), even)
        f = random_framing(rng, spec)
        return (f, *self.rest(rng, f))


class Row(Value):
    """One random check: its name, the noun its tally counts, its draw and its property.

    `holds(*inputs)` is True when the property holds on one trial's inputs,
    and the check's detail reads "held/trials noun".  A noun that is a
    function is given instead the list of what `holds` returned, trial by
    trial, and returns the check's ok and detail.
    """

    __slots__ = _fields = ("name", "noun", "draw", "holds")
    name: str
    noun: str | Callable[[list], tuple[bool, str]]
    draw: Draw
    holds: Callable[..., Any]

    def __init__(self, name: str, noun, draw: Draw, holds) -> None:
        _set(self, "name", name)
        _set(self, "noun", noun)
        _set(self, "draw", draw)
        _set(self, "holds", holds)

    def check(self, outcomes: list) -> Check:
        if callable(self.noun):
            return Check(self.name, *self.noun(outcomes))
        held = sum(1 for o in outcomes if o)
        return Check(self.name, held == len(outcomes), f"{held}/{len(outcomes)} {self.noun}".rstrip())


class Suite(Value):
    """A random suite: its default trial count and its rows, in the order they print.

    Calling it is the one driver of the random checks.  Consecutive rows with
    one draw share each trial's inputs; each draw's trials run after the
    previous draw's.
    """

    __slots__ = _fields = ("trials", "rows")
    trials: int
    rows: tuple[Row, ...]

    def __init__(self, trials: int, rows: tuple[Row, ...]) -> None:
        _set(self, "trials", trials)
        _set(self, "rows", rows)

    def __call__(self, g: int | None = None, trials: int | None = None, seed: int = 0) -> list[Check]:
        trials = self.trials if trials is None else trials
        main, outcomes = Random(seed), {row.name: [] for row in self.rows}
        for draw, rows in groupby(self.rows, attrgetter("draw")):
            rows = [(row.holds, outcomes[row.name]) for row in rows]
            rng = main if draw.stream is None else Random(f"{draw.stream}-{seed}")
            for _ in range(max(1, trials * draw.share[0] // draw.share[1])):
                inputs = draw(rng, g)
                for holds, seen in rows:
                    seen.append(holds(*inputs))
        return [row.check(outcomes[row.name]) for row in self.rows]


# the draws and properties too long for a line of the table

def _move_walk(rng: Random, f: Framing) -> tuple[list[Framing]]:
    """The framings a walk of 0-8 random moves from f passes through, f first."""
    walk = [f]
    for _ in range(rng.randint(0, 8)):
        walk.append(apply_move(walk[-1], random_move(rng, walk[-1])))
    return (walk,)


def _tracked_curve(rng: Random, f: Framing) -> tuple[Word, RelVec, int]:
    """A word of 1-8 basis twists to the powers +-1 or +-2, and a curve x_i or y_i with its winding."""
    spec = f.spec
    basis = standard_twists(f)[: spec.abs_rank]
    letters = tuple(
        Twist(curve, rng.choice([-2, -1, 1, 2]), winding)
        for _, curve, winding in (rng.choice(basis) for _ in range(rng.randint(1, 8)))
    )
    w, i = Word(spec, letters), rng.randint(1, spec.g)
    if rng.random() < 0.5:
        return w, as_rel(x_curve(spec, i)), f.wind_x[i - 1]
    return w, as_rel(y_curve(spec, i)), f.wind_y[i - 1]


def _relator_vanishes(f: Framing, w: Word) -> bool:
    """w times the inverse of its matrix's refactored word is the identity, with defect 0."""
    r = w + refactored_word(f, word_to_paut(w)).inverse()
    return word_to_paut(r).is_identity() and delta_word(r, f).is_zero()


def _lift(f: Framing, v: AbsVec) -> tuple[bool, bool]:
    """(refused, right): whether v has no lift by `lift_transvection`, and
    whether that answer is right."""
    try:
        a = lift_transvection(v, f)
    except NoLiftExists:
        # right only in the even regime (v-bar = 0), for a class of odd
        # winding whose transvection moves the spin form
        moved = not f.spec.vbar and not q_hat(spin_form(f), transvection(v, 1)).is_zero()
        return True, moved and winding_parity(f, v) == 1
    except AssertionError:  # the lift it built failed its own kernel test
        return False, False
    # column j of T_v is b_j + <b_j, v> v, from the pairing, not from paut
    c = v.coords
    tv = [tuple(bi + sympl(b.coords, c) * ci for bi, ci in zip(b.coords, c)) for b in abs_basis(f.spec)]
    return False, kernel_test(a, f) and list(zip(*a.S)) == tv


def _lifts(outcomes: list[tuple[bool, bool]]) -> tuple[bool, str]:
    refused, wrong = sum(r for r, _ in outcomes), sum(not right for _, right in outcomes)
    return wrong == 0, f"{len(outcomes) - refused} lifted, {refused} provably obstructed, {wrong} wrong"


def _parity(f: Framing, w: Word, start: RelVec, w0: int) -> bool:
    """Chained twist-linearity windings reduce mod 2 to the parity form."""
    cls, w2 = track_curve(w, start, 2 * w0)
    return (w2 // 2) % 2 == winding_parity(f, AbsVec(f.spec, cls.coords[: f.spec.abs_rank]))


# the draws two rows share
_STABILIZING_WORD = Draw(lambda rng, f: (random_parity_zero_word(rng, f, rng.randint(1, 5)),))
_MOVE_WALK = Draw(_move_walk, genera=(2, 3, 4), ns=(1, 2, 3, 4))


def suite_census(g: int | None = None, trials: int | None = None, seed: int = 0) -> list[Check]:
    """Group order, quadratic form counts, stabilizers, crossed identity."""
    g = 2 if g is None else g
    check_mod2_genus(g, "census")  # before numpy loads
    from . import bruteforce  # loads numpy

    rng = Random(seed)
    census = bruteforce.qform_census(g)
    group = bruteforce.enumerate_sp2(g)
    keys = group.keys
    # strictly increasing keys are distinct, so the count is of elements
    distinct = bool((keys[1:] > keys[:-1]).all())
    identity = bruteforce.matrix_to_key(identity_mat(2 * g))
    # products of two elements, not of an element and a generator: the
    # edge walks of the certificates look up every one of those
    products = [
        group.mul(int(keys[rng.randrange(len(keys))]), int(keys[rng.randrange(len(keys))]))
        for _ in range(200)
    ]
    try:
        group.find(products)
        closed = True
    except KeyError:
        closed = False
    expected = (2 ** (g - 1) * (2**g + 1), 2 ** (g - 1) * (2**g - 1))
    checks = [
        Check(
            "group-order",
            distinct and len(group) == bruteforce.sp2_order(g),
            f"|Sp({2*g},2)| = {len(group)}",
        ),
        Check("contains-identity", bool(identity in keys)),
        Check("closure-sample", closed, "200 sampled products"),
        Check(
            "form-counts",
            (census.even_count, census.odd_count) == expected,
            f"({census.even_count}, {census.odd_count})",
        ),
        # one orbit per Arf value: every form's stabilizer is |Sp(2g, 2)| over its Arf class's size
        Check(
            "stabilizer-orders",
            all(stab == bruteforce.sp2_order(g) // expected[a] for _, a, stab in census.per_form),
            str(census.stabilizer_orders),
        ),
    ]
    if g == 2:
        checks.append(Check(
            "qhat-crossed-all-pairs",
            bruteforce.verify_qhat_crossed(2),
            f"{len(group)} x {len(group.gens)} Cayley edges, implying all {len(group)}^2 pairs,"
            " both Arf classes",
        ))
    return checks


def suite_kernel_order(g: int | None = 2, trials: int | None = None, seed: int = 0) -> list[Check]:
    """Exact mod-2 kernel orders, each computed two independent ways."""
    from . import bruteforce  # loads numpy

    cases = [
        ("kappa=(2,0) winds 0", Framing.zeros(SurfaceSpec(2, (2, 0))), 1152),
        ("kappa=(1,1) winds 0", Framing.zeros(SurfaceSpec(2, (1, 1))), 720),
        ("kappa=(2) n=1 winds 0", Framing.zeros(SurfaceSpec(2, (2,))), 72),
        ("kappa=(2) n=1 odd form", Framing(SurfaceSpec(2, (2,)), (1, 0), (1, 0)), 120),
        ("kappa=(2,0,0) winds 0", Framing.zeros(SurfaceSpec(2, (2, 0, 0))), 18432),
        ("kappa=(1,2,-1) winds 0", Framing.zeros(SurfaceSpec(2, (1, 2, -1))), 11520),
    ]
    checks = []
    for name, f, expected in cases:
        enum = bruteforce.kernel_order_mod2(f, "enumerate")
        struct = bruteforce.kernel_order_mod2(f, "structure")
        checks.append(Check(name, enum == struct == expected, f"enumerate={enum}, structure={struct}"))
    group = bruteforce.enumerate_sp2(2)
    edges_ok = all(
        bruteforce.check_theta_edges(group, f) for _, f, _ in cases
    )
    checks.append(Check("mod2-well-defined", edges_ok, "cocycle holds on every Cayley edge"))
    return checks


# the suites in the order `verify all` runs them: the random ones as rows of
# (name, noun, draw, property), the exhaustive ones as functions
SUITES = {
    # delta(w1 ++ w2) = pullback(w2) delta(w1) + delta(w2), exactly
    "cocycle": Suite(1000, (
        Row("cocycle-identity", "word pairs",
            Draw(lambda rng, f: tuple(random_exotic_word(rng, f.spec, rng.randint(0, 5)) for _ in range(2))),
            lambda f, w1, w2: delta_word(w1 + w2, f)
            == pullback_h1(word_to_paut(w2).S, delta_word(w1, f)) + delta_word(w2, f)),
    )),
    # algebraic evaluation agrees with the word-level defect and with the
    # factorization oracle; relators map to 0
    "well-defined": Suite(500, (
        Row("theta-equals-delta", "words",
            Draw(lambda rng, f: (random_standard_word(rng, f, rng.randint(0, 6)),)),
            lambda f, w: theta(word_to_paut(w), f) == delta_word(w, f)),
        Row("relators-vanish", "identity words",
            Draw(lambda rng, f: (random_standard_word(rng, f, rng.randint(0, 5)),), share=(2, 5)),
            _relator_vanishes),
        # a stream of its own keeps the inputs of the two checks above
        Row("theta-equals-factorization", "automorphisms, both regimes",
            Draw(lambda rng, f: (random_paut(rng, f.spec, factors=rng.choice([4, 16])),),
                 even=None, share=(1, 5), stream="theta-oracle"),
            lambda f, a: theta(a, f) == theta_by_factorization(a, f)),
    )),
    # words fixing the framing land in the kernel
    "stabilizer": Suite(500, (
        Row("stabilizing-words-fix", "", _STABILIZING_WORD, lambda f, w: act_framing(w, f) == f),
        Row("stabilizer-in-kernel", "", _STABILIZING_WORD, lambda f, w: kernel_test(word_to_paut(w), f)),
    )),
    # every primitive transvection lifts to the kernel, or provably cannot
    "lift": Suite(200, (
        Row("lift-transvections", _lifts,
            Draw(lambda rng, f: (random_primitive_abs(rng, f.spec),), genera=(2, 3, 4), even=None), _lift),
    )),
    "census": suite_census,
    "kernel-order": suite_kernel_order,
    # with every kappa even the factorization oracle is the spin-form defect of S
    "even-form": Suite(1000, (
        Row("theta-is-spin-defect", "automorphisms",
            Draw(lambda rng, f: (random_paut(rng, f.spec),), even=True),
            lambda f, a: theta_by_factorization(a, f) == q_hat(spin_form(f), a.S)),
    )),
    # on the point-transvection block the evaluation is the signature
    # functional, evaluated independently basis class by basis class
    "relaut": Suite(1000, (
        Row("relaut-restriction", "blocks",
            Draw(lambda rng, f: (random_relaut_block(rng, f.spec),), genera=(2, 3, 4), ns=(1, 2, 3, 4)),
            lambda f, m: theta(PAutElem._trusted(f.spec.g, f.spec.n, identity_mat(f.spec.abs_rank), m), f)
            == v_kappa_star_by_pairing(m, f.spec)),
    )),
    # every move of a walk preserves Arf, counted move by move; the moves
    # `match_framings` synthesizes carry the walk's start to its end
    "moves": Suite(500, (
        Row("moves-preserve-arf", lambda counts: (sum(counts) == 0, f"{sum(counts)} violations"), _MOVE_WALK,
            lambda f, walk: sum(arf(h2) != arf(h) for h, h2 in zip(walk, walk[1:]))),
        Row("match-roundtrip", "pairs", _MOVE_WALK,
            lambda f, walk: reduce(apply_move, match_framings(f, walk[-1]), f) == walk[-1]),
    )),
    "parity": Suite(500, (Row("parity-oracle", "tracked curves", Draw(_tracked_curve), _parity),)),
    # Arf invariance under the word action on framings
    "arf-action": Suite(500, (
        Row("arf-invariance", "words",
            Draw(lambda rng, f: (random_standard_word(rng, f, rng.randint(1, 6), pushes=f.spec.n == 1),)),
            lambda f, w: arf(act_framing(w, f)) == arf(f)),
    )),
}


def run_suite(name: str, g: int | None = None, trials: int | None = None, seed: int = 0) -> list[Check]:
    """Run one suite; g None means the suite's own genera, trials None its own count."""
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if g is not None and g < 2:
        raise InvalidSurface(f"genus must be >= 2, got {g}")
    if trials is not None and trials < 1:
        raise InvalidCount(f"trials = {trials} must be at least 1")
    start = time.perf_counter()
    checks = SUITES[name](g=g, trials=trials, seed=seed)
    return SuiteResult(name, checks, time.perf_counter() - start)
