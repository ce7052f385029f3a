"""Seeded random generators for the verification suites and tests."""

from __future__ import annotations

from math import gcd
from random import Random

from .framing import Framing, winding_parity
from .lattice import AbsVec, PunctVec, SurfaceSpec, as_punct, x_curve, y_curve
from .moves import ArcParityTwist, BoundaryTwist, ConnectSum, Move
from .paut import Mat, PAutElem, factor_sp
from .words import PointPush, Twist, Word, standard_twists, word_to_paut


def random_kappa(rng: Random, g: int, n: int, even_only: bool = False) -> tuple[int, ...]:
    """Random integer signature vector of length n summing to 2g-2."""
    step = 2 if even_only else 1
    head = [step * rng.randint(-2, 2) for _ in range(n - 1)]
    last = 2 * g - 2 - sum(head)
    return tuple(head + [last])


def random_spec(rng: Random, g: int, n: int, even_only: bool = False) -> SurfaceSpec:
    return SurfaceSpec(g, random_kappa(rng, g, n, even_only))


def random_framing(rng: Random, spec: SurfaceSpec, with_arcs: bool = True) -> Framing:
    wind_x = tuple(rng.randint(-3, 3) for _ in range(spec.g))
    wind_y = tuple(rng.randint(-3, 3) for _ in range(spec.g))
    arc2 = None
    if with_arcs or spec.n == 1:
        arc2 = tuple(2 * rng.randint(-3, 3) + 1 for _ in range(spec.n - 1))
    return Framing(spec, wind_x, wind_y, arc2)


# the entries of a drawn class or M block lie in [-BOUND, BOUND]
BOUND = 2


def _random_primitive(rng: Random, rank: int) -> tuple[int, ...]:
    while True:
        coords = [rng.randint(-BOUND, BOUND) for _ in range(rank)]
        if any(coords):
            d = gcd(*coords)
            return tuple(c // d for c in coords)


def random_primitive_abs(rng: Random, spec: SurfaceSpec) -> AbsVec:
    return AbsVec(spec, _random_primitive(rng, spec.abs_rank))


def random_primitive_punct(rng: Random, spec: SurfaceSpec) -> PunctVec:
    return PunctVec(spec, _random_primitive(rng, spec.rel_rank))


def random_symplectic(rng: Random, spec: SurfaceSpec, factors: int = 8) -> Mat:
    """Product of random transvections about random primitive classes."""
    letters = []
    for _ in range(factors):
        v = random_primitive_abs(rng, spec)
        letters.append(Twist(as_punct(v), rng.choice([-2, -1, 1, 2])))
    return word_to_paut(Word(spec, tuple(letters))).S


def random_relaut_block(rng: Random, spec: SurfaceSpec) -> Mat:
    return tuple(
        tuple(rng.randint(-BOUND, BOUND) for _ in range(spec.zero_rank))
        for _ in range(spec.abs_rank)
    )


def random_paut(rng: Random, spec: SurfaceSpec, factors: int = 6) -> PAutElem:
    # S is a product of transvections, symplectic by construction
    return PAutElem._trusted(
        spec.g,
        spec.n,
        random_symplectic(rng, spec, factors),
        random_relaut_block(rng, spec),
    )


def random_move(rng: Random, f: Framing) -> Move:
    """A move legal for the framing's kappa: connect-sum, arc connect-sum, boundary or arc-parity twist."""
    spec = f.spec
    evens = [j for j in range(2, spec.n + 1) if spec.kappa[j - 1] % 2 == 0]
    odds = [j for j in range(2, spec.n + 1) if spec.kappa[j - 1] % 2]
    kind = rng.choice(["cs"] + ["csa"] * (spec.n >= 2) + ["bt"] * bool(evens) + ["apt"] * (len(odds) >= 2))
    if kind == "cs":
        i = rng.randint(1, spec.g)
        helper = rng.choice([j for j in range(1, spec.g + 1) if j != i])
        return ConnectSum(rng.choice("xy"), i, helper, rng.choice([1, -1]))
    if kind == "csa":
        return ConnectSum("a", rng.randint(2, spec.n), 1, rng.choice([1, -1]))
    if kind == "bt":
        return BoundaryTwist(rng.choice(evens))
    j1, j2 = sorted(rng.sample(odds, 2))
    return ArcParityTwist(j1, j2)


def random_standard_word(
    rng: Random, f: Framing, length: int, pushes: bool = True
) -> Word:
    """Word in the standard alphabet of f (basis and puncture twists, pushes)."""
    spec = f.spec
    twists = standard_twists(f)
    out = []
    for _ in range(length):
        if pushes and rng.random() < 0.25:
            out.append(PointPush(rng.randint(1, spec.n), random_primitive_abs(rng, spec)))
        else:
            _, curve, winding = rng.choice(twists)
            out.append(Twist(curve, rng.choice([-2, -1, 1, 2]), winding))
    return Word(spec, tuple(out))


def random_exotic_word(rng: Random, spec: SurfaceSpec, length: int) -> Word:
    """Word with arbitrary twist classes and declared windings (plus pushes)."""
    out = []
    for _ in range(length):
        if rng.random() < 0.3:
            out.append(PointPush(rng.randint(1, spec.n), random_primitive_abs(rng, spec)))
        else:
            out.append(
                Twist(
                    random_primitive_punct(rng, spec),
                    rng.choice([-2, -1, 1, 2]),
                    rng.randint(-3, 3),
                )
            )
    return Word(spec, tuple(out))


def random_parity_zero_word(rng: Random, f: Framing, length: int) -> Word:
    """Twists about random classes of winding parity 0, declared winding 0.

    Such twists stabilize the framing exactly, so the resulting word is a
    stabilizer word by construction.
    """
    spec = f.spec
    out = []
    while len(out) < length:
        v = random_primitive_abs(rng, spec)
        if winding_parity(f, v) == 0:
            out.append(Twist(as_punct(v), rng.choice([-2, -1, 1, 2]), 0))
    return Word(spec, tuple(out))


def refactored_word(f: Framing, a: PAutElem) -> Word:
    """Standard-alphabet-style word whose lattice action is exactly a.

    Point pushes along signed basis classes realize the M block column by
    column; transvection factors of the S block become twists about embedded
    absolute classes with winding equal to their parity.
    """
    spec = f.spec
    letters: list = []
    for col in range(spec.zero_rank):
        for i in range(spec.abs_rank):
            c = a.M[i][col]
            if c:
                b = x_curve(spec, i // 2 + 1) if i % 2 == 0 else y_curve(spec, i // 2 + 1)
                u = b if c > 0 else -b
                letters.extend(PointPush(col + 2, u) for _ in range(abs(c)))
    for coords, k in factor_sp(a.S):
        v = AbsVec(spec, coords)
        letters.append(Twist(as_punct(v), k, winding_parity(f, v)))
    return Word(spec, tuple(letters))
