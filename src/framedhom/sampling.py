"""Seeded random generators for the verification suites and tests."""

from __future__ import annotations

from math import gcd
from random import Random

from .framing import Framing, winding_parity
from .lattice import AbsVec, PunctVec, SurfaceSpec, as_punct, x_curve, y_curve
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


def random_primitive_abs(rng: Random, spec: SurfaceSpec, bound: int = 2) -> AbsVec:
    while True:
        coords = [rng.randint(-bound, bound) for _ in range(spec.abs_rank)]
        if any(coords):
            d = gcd(*coords)
            return AbsVec(spec, tuple(c // d for c in coords))


def random_primitive_punct(rng: Random, spec: SurfaceSpec, bound: int = 2) -> PunctVec:
    while True:
        coords = [rng.randint(-bound, bound) for _ in range(spec.rel_rank)]
        if any(coords):
            d = gcd(*coords)
            return PunctVec(spec, tuple(c // d for c in coords))


def random_symplectic(rng: Random, spec: SurfaceSpec, factors: int = 8) -> Mat:
    """Product of random transvections about random primitive classes."""
    letters = []
    for _ in range(factors):
        v = random_primitive_abs(rng, spec)
        letters.append(Twist(as_punct(v), rng.choice([-2, -1, 1, 2])))
    return word_to_paut(Word(spec, tuple(letters))).S


def random_relaut_block(rng: Random, spec: SurfaceSpec, bound: int = 2) -> Mat:
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(spec.zero_rank))
        for _ in range(spec.abs_rank)
    )


def random_paut(rng: Random, spec: SurfaceSpec, factors: int = 6) -> PAutElem:
    return PAutElem(
        spec.g,
        spec.n,
        random_symplectic(rng, spec, factors),
        random_relaut_block(rng, spec),
    )


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
