"""Named verification suites: seeded, deterministic, scriptable.

Each suite returns its list of Checks, one per verified property, and
`run_suite` wraps that list, with the time it took, in the one SuiteResult
of the run, named by the suite's key in SUITES.  The CLI prints a pass/fail
line per check and exits nonzero on any failure.

The random-trial suites share one runner, `_run_trials`: it draws each
trial's surface and framing, and the suite's trial function draws the rest,
compares, and returns a dict of failure counts, which the runner sums.
`census` and `kernel-order` run fixed cases instead.
"""

from __future__ import annotations

import time
from collections import Counter
from random import Random

from . import mod2
from .errors import InvalidCount, InvalidSurface, NoLiftExists, SpecMismatch, UnknownSuite
from .framing import Framing, arf, spin_form, winding_parity
from .kernel import check_mod2_genus, kernel_test, lift_transvection, q_hat, theta, v_kappa_star
from .lattice import AbsVec, CohomClass, SurfaceSpec, abs_basis, as_rel, sympl, x_curve, y_curve
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

    @classmethod
    def tally(cls, name: str, failed: int, trials: int, noun: str = "") -> "Check":
        """A check that held on trials - failed of `trials` inputs."""
        return cls(name, failed == 0, f"{trials - failed}/{trials} {noun}".rstrip())


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


def _run_trials(
    trial, rng: Random, trials: int, g: int | None, genera=(2, 3), ns=(1, 2, 3), even: bool | None = False
) -> Counter:
    """Run `trial(rng, f)` on `trials` random framings and sum the counts it returns.

    Each framing lives on a surface of genus g (or rng.choice(genera) when g
    is None) with rng.choice(ns) marked points; kappa is all even when `even`
    is True, unrestricted when False, and all even on a fair coin when None.
    """
    genera = genera if g is None else (g,)
    totals: Counter = Counter()
    for _ in range(trials):
        even_only = rng.random() < 0.5 if even is None else even
        spec = random_spec(rng, rng.choice(genera), rng.choice(ns), even_only)
        for name, count in trial(rng, random_framing(rng, spec)).items():
            totals[name] += count
    return totals


def suite_cocycle(g: int | None = None, trials: int = 1000, seed: int = 0) -> list[Check]:
    """delta(w1 ++ w2) = pullback(w2) delta(w1) + delta(w2), exactly."""

    def trial(rng: Random, f: Framing) -> dict:
        w1 = random_exotic_word(rng, f.spec, rng.randint(0, 5))
        w2 = random_exotic_word(rng, f.spec, rng.randint(0, 5))
        lhs = delta_word(w1 + w2, f)
        rhs = pullback_h1(word_to_paut(w2).S, delta_word(w1, f)) + delta_word(w2, f)
        return {"bad": lhs != rhs}

    bad = _run_trials(trial, Random(seed), trials, g)["bad"]
    return [Check.tally("cocycle-identity", bad, trials, "word pairs")]


def suite_well_defined(g: int | None = None, trials: int = 500, seed: int = 0) -> list[Check]:
    """Algebraic evaluation agrees with the word-level defect and with the
    factorization oracle; relators map to 0."""

    def by_word(rng: Random, f: Framing) -> dict:
        w = random_standard_word(rng, f, rng.randint(0, 6))
        return {"bad": theta(word_to_paut(w), f) != delta_word(w, f)}

    def relator(rng: Random, f: Framing) -> dict:
        w = random_standard_word(rng, f, rng.randint(0, 5))
        r = w + refactored_word(f, word_to_paut(w)).inverse()
        return {"bad": not (word_to_paut(r).is_identity() and delta_word(r, f).is_zero())}

    def by_factorization(rng: Random, f: Framing) -> dict:
        a = random_paut(rng, f.spec, factors=rng.choice([4, 16]))
        return {"bad": theta(a, f) != theta_by_factorization(a, f)}

    rng = Random(seed)
    bad_word = _run_trials(by_word, rng, trials, g)["bad"]
    id_trials = max(1, trials * 2 // 5)
    bad_relator = _run_trials(relator, rng, id_trials, g)["bad"]
    # a separate generator keeps the inputs of the two checks above
    oracle, oracle_trials = Random(f"theta-oracle-{seed}"), max(1, trials // 5)
    bad_oracle = _run_trials(by_factorization, oracle, oracle_trials, g, even=None)["bad"]
    return [
        Check.tally("theta-equals-delta", bad_word, trials, "words"),
        Check.tally("relators-vanish", bad_relator, id_trials, "identity words"),
        Check.tally("theta-equals-factorization", bad_oracle, oracle_trials, "automorphisms, both regimes"),
    ]


def suite_stabilizer(g: int | None = None, trials: int = 500, seed: int = 0) -> list[Check]:
    """Words fixing the framing land in the kernel."""

    def trial(rng: Random, f: Framing) -> dict:
        w = random_parity_zero_word(rng, f, rng.randint(1, 5))
        return {"moved": act_framing(w, f) != f, "outside": not kernel_test(word_to_paut(w), f)}

    bad = _run_trials(trial, Random(seed), trials, g)
    return [
        Check.tally("stabilizing-words-fix", bad["moved"], trials),
        Check.tally("stabilizer-in-kernel", bad["outside"], trials),
    ]


def suite_lift(g: int | None = None, trials: int = 200, seed: int = 0) -> list[Check]:
    """Every primitive transvection lifts to the kernel, or provably cannot."""

    def trial(rng: Random, f: Framing) -> dict:
        v = random_primitive_abs(rng, f.spec)
        try:
            a = lift_transvection(v, f)
        except NoLiftExists:
            even = not f.spec.vbar
            obstructed = not q_hat(spin_form(f), transvection(v, 1)).is_zero() if even else False
            return {"refused": 1, "wrong": not (even and winding_parity(f, v) == 1 and obstructed)}
        except AssertionError:  # the lift it built failed its own kernel test
            return {"lifted": 1, "wrong": 1}
        # column j of T_v is b_j + <b_j, v> v, from the pairing, not from paut
        c = v.coords
        tv = [tuple(bi + sympl(b.coords, c) * ci for bi, ci in zip(b.coords, c)) for b in abs_basis(f.spec)]
        return {"lifted": 1, "wrong": not kernel_test(a, f) or list(zip(*a.S)) != tv}

    n = _run_trials(trial, Random(seed), trials, g, genera=(2, 3, 4), even=None)
    detail = f"{n['lifted']} lifted, {n['refused']} provably obstructed, {n['wrong']} wrong"
    return [Check("lift-transvections", n["wrong"] == 0, detail)]


def suite_census(g: int | None = None, trials: int = 0, seed: int = 0) -> list[Check]:
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


def suite_kernel_order(g: int | None = 2, trials: int = 0, seed: int = 0) -> list[Check]:
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


def suite_even_form(g: int | None = None, trials: int = 1000, seed: int = 0) -> list[Check]:
    """With every kappa even the factorization oracle is the spin-form defect of S."""

    def trial(rng: Random, f: Framing) -> dict:
        a = random_paut(rng, f.spec)
        return {"bad": theta_by_factorization(a, f) != q_hat(spin_form(f), a.S)}

    bad = _run_trials(trial, Random(seed), trials, g, even=True)["bad"]
    return [Check.tally("theta-is-spin-defect", bad, trials, "automorphisms")]


def suite_relaut(g: int | None = None, trials: int = 1000, seed: int = 0) -> list[Check]:
    """On the point-transvection block the evaluation is the signature functional,
    evaluated independently basis class by basis class."""

    def trial(rng: Random, f: Framing) -> dict:
        spec = f.spec
        m = random_relaut_block(rng, spec)
        a = PAutElem._trusted(spec.g, spec.n, identity_mat(spec.abs_rank), m)
        return {"bad": theta(a, f) != v_kappa_star_by_pairing(m, spec)}

    bad = _run_trials(trial, Random(seed), trials, g, genera=(2, 3, 4), ns=(1, 2, 3, 4))["bad"]
    return [Check.tally("relaut-restriction", bad, trials, "blocks")]


def suite_moves(g: int | None = None, trials: int = 500, seed: int = 0) -> list[Check]:
    """Move synthesis reproduces matched framings; every move preserves Arf."""

    def trial(rng: Random, f: Framing) -> dict:
        h, violations = f, 0
        for _ in range(rng.randint(0, 8)):
            h2 = apply_move(h, random_move(rng, h))
            violations += arf(h2) != arf(h)
            h = h2
        cur = f
        for m in match_framings(f, h):
            cur = apply_move(cur, m)
        return {"arf": violations, "unmatched": cur != h}

    bad = _run_trials(trial, Random(seed), trials, g, genera=(2, 3, 4), ns=(1, 2, 3, 4))
    return [
        Check("moves-preserve-arf", bad["arf"] == 0, f"{bad['arf']} violations"),
        Check.tally("match-roundtrip", bad["unmatched"], trials, "pairs"),
    ]


def suite_parity(g: int | None = None, trials: int = 500, seed: int = 0) -> list[Check]:
    """Chained twist-linearity windings reduce mod 2 to the parity form."""

    def trial(rng: Random, f: Framing) -> dict:
        spec = f.spec
        basis = standard_twists(f)[: spec.abs_rank]
        letters = tuple(
            Twist(curve, rng.choice([-2, -1, 1, 2]), winding)
            for _, curve, winding in (rng.choice(basis) for _ in range(rng.randint(1, 8)))
        )
        w = Word(spec, letters)
        i = rng.randint(1, spec.g)
        if rng.random() < 0.5:
            start, w0 = as_rel(x_curve(spec, i)), f.wind_x[i - 1]
        else:
            start, w0 = as_rel(y_curve(spec, i)), f.wind_y[i - 1]
        cls, w2 = track_curve(w, start, 2 * w0)
        v = AbsVec(spec, cls.coords[: spec.abs_rank])
        return {"bad": (w2 // 2) % 2 != winding_parity(f, v)}

    bad = _run_trials(trial, Random(seed), trials, g)["bad"]
    return [Check.tally("parity-oracle", bad, trials, "tracked curves")]


def suite_arf_action(g: int | None = None, trials: int = 500, seed: int = 0) -> list[Check]:
    """Arf invariance under the word action on framings."""

    def trial(rng: Random, f: Framing) -> dict:
        w = random_standard_word(rng, f, rng.randint(1, 6), pushes=f.spec.n == 1)
        return {"bad": arf(act_framing(w, f)) != arf(f)}

    bad = _run_trials(trial, Random(seed), trials, g)["bad"]
    return [Check.tally("arf-invariance", bad, trials, "words")]


SUITES = {
    "cocycle": suite_cocycle,
    "well-defined": suite_well_defined,
    "stabilizer": suite_stabilizer,
    "lift": suite_lift,
    "census": suite_census,
    "kernel-order": suite_kernel_order,
    "even-form": suite_even_form,
    "relaut": suite_relaut,
    "moves": suite_moves,
    "parity": suite_parity,
    "arf-action": suite_arf_action,
}


def run_suite(name: str, g: int | None = None, trials: int | None = None, seed: int = 0) -> list[Check]:
    """Run one suite; g None means the suite's own genera, trials None its own count."""
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if g is not None and g < 2:
        raise InvalidSurface(f"genus must be >= 2, got {g}")
    if trials is not None and trials < 1:
        raise InvalidCount(f"trials = {trials} must be at least 1")
    fn = SUITES[name]
    kwargs = {"g": g, "seed": seed}
    if trials is not None:
        kwargs["trials"] = trials
    start = time.perf_counter()
    checks = fn(**kwargs)
    return SuiteResult(name, checks, time.perf_counter() - start)
