"""Words in twist and point-push generators, with exact lattice and framing actions.

A word is an ordered tuple of letters, leftmost acting last (so a word reads
like a composition).  Twist letters carry the class of the twisting curve in
the punctured lattice together with the declared winding number of the chosen
simple representative; point-push letters carry the pushed point and the
primitive absolute class of the pushing loop.

On relative homology every letter is a rank-one unipotent map
x -> x + phi(x) u, with u an absolute class and phi a functional on relative
coordinates: a twist about c with power k has u = c-bar (c with its loop part
dropped) and phi = k <., c>; a push of point p_i has u = the loop and phi =
the coefficient of p_i in the boundary.  `_letter_map` is the one place that
builds this pair, as two sparse supports: u as ((i, u_i), ...) over its
nonzero absolute slots and phi as ((i, phi_i), ...) over its nonzero
relative slots.  A basis twist has one slot in each, a puncture twist none
in u, a push one arc slot in phi (every arc slot for p_1).  Each letter
keeps its pair in `rank_one`, and the packed mod-2 image of u in
`mod2_image`, both built on first use.  `act_rel`, `track_curve`,
`act_framing` and `word_to_paut` read only these supports and update
coordinate lists in place (c = phi(x), then x_i += c u_i); `delta_word`
reads `mod2_image`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

from . import mod2
from .errors import (
    DimensionMismatch,
    NotPrimitive,
    PointPushOnArcs,
    SpecMismatch,
    WindingParityMismatch,
)
from .framing import Framing
from .lattice import (
    AbsVec,
    CohomClass,
    PunctVec,
    RelVec,
    SurfaceSpec,
    as_punct,
    point_loop,
    x_curve,
    y_curve,
)
from .paut import PAutElem


Support = tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class _Letter:
    """What every letter keeps: its map and u mod 2, each built on first use.

    Both caches are slots kept out of comparison and repr, so they take no
    part in equality, hashing or repr; slots leave a letter no instance dict.
    """

    _map: tuple[Support, Support] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _image: int | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def rank_one(self) -> tuple[Support, Support]:
        """The supports of (u, phi); see `_letter_map`."""
        m = self._map
        if m is None:
            m = _letter_map(self)
            object.__setattr__(self, "_map", m)
        return m

    @property
    def mod2_image(self) -> int:
        """u mod 2, packed: bit i for each odd u_i."""
        m = self._image
        if m is None:
            m = sum(1 << i for i, v in self.rank_one[0] if v & 1)
            object.__setattr__(self, "_image", m)
        return m


@dataclass(frozen=True, slots=True)
class Twist(_Letter):
    """Dehn twist about a curve with a caller-declared winding number.

    Its map has u = the curve with its loop part dropped and phi = power
    times the pairing with the curve; the inverse twist has (u, -phi) and
    the same declared winding.
    """

    curve: PunctVec
    power: int = 1
    winding: int = 0

    def __post_init__(self) -> None:
        if self.power == 0:
            raise DimensionMismatch("twist power must be nonzero")
        if not self.curve.is_primitive():
            raise NotPrimitive("twist curve class must be primitive")

    @property
    def spec(self) -> SurfaceSpec:
        return self.curve.spec

    def inverse(self) -> "Twist":
        return Twist(self.curve, -self.power, self.winding)


@dataclass(frozen=True, slots=True)
class PointPush(_Letter):
    """Push of marked point `point` (1-based) around a primitive loop.

    Its map has u = the loop and phi = the coefficient of the point in the
    boundary; the inverse push has (-u, phi).
    """

    point: int
    loop: AbsVec

    def __post_init__(self) -> None:
        if not 1 <= self.point <= self.loop.spec.n:
            raise DimensionMismatch(
                f"marked point {self.point} out of range 1..{self.loop.spec.n}"
            )
        if not self.loop.is_primitive():
            raise NotPrimitive("point-push loop class must be primitive")

    @property
    def spec(self) -> SurfaceSpec:
        return self.loop.spec

    def inverse(self) -> "PointPush":
        return PointPush(self.point, -self.loop)


Letter = Union[Twist, PointPush]


@dataclass(frozen=True)
class Word:
    """Composable sequence of letters over one surface; leftmost acts last."""

    spec: SurfaceSpec
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        for letter in self.letters:
            if letter.spec != self.spec:
                raise SpecMismatch("all letters of a word must share one surface")

    def __add__(self, other: "Word") -> "Word":
        if self.spec != other.spec:
            raise SpecMismatch("concatenating words over different surfaces")
        return Word(self.spec, self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(self.spec, tuple(l.inverse() for l in reversed(self.letters)))

    def has_pushes(self) -> bool:
        return any(isinstance(l, PointPush) for l in self.letters)


# ---------------------------------------------------------------------------
# lattice action


def _letter_map(letter: Letter) -> tuple[Support, Support]:
    """The supports (u, phi) of the letter's map x -> x + phi(x) u.

    Each is ((i, value), ...) over the nonzero slots in increasing order: u
    over absolute coordinates only, phi over relative ones.  On the
    symplectic block <x, c> reads slot i of x against c's partner slot i ^ 1
    (x_h pairs with y_h).  The boundary coefficient of p_i is that of a_i
    for i >= 2 and minus the sum of all arc coefficients for i = 1.
    """
    spec = letter.spec
    k = spec.abs_rank
    if isinstance(letter, Twist):
        c, p = letter.curve.coords, letter.power
        u = tuple(_entry(i, v) for i, v in enumerate(c[:k]) if v)
        pairing = sorted(_entry(i ^ 1, p * v if i & 1 else -p * v) for i, v in u)
        loops = [_entry(i, p * v) for i, v in enumerate(c[k:], k) if v]
        return u, tuple(pairing + loops)
    u = tuple(_entry(i, v) for i, v in enumerate(letter.loop.coords) if v)
    if letter.point >= 2:
        return u, (_entry(k + letter.point - 2, 1),)
    return u, tuple(_entry(i, -1) for i in range(k, spec.rel_rank))


@lru_cache(maxsize=1024)
def _entry(i: int, v: int) -> tuple[int, int]:
    """The support entry (i, v), one object shared by the letters that hold it.

    Letters mostly draw on a few small coefficients, so sharing keeps a
    map of pairs about as small as a dense tuple of its coordinates.
    """
    return (i, v)


def act_rel(word: Word, x: RelVec) -> RelVec:
    """Apply the word to a relative class (rightmost letter first)."""
    if x.spec != word.spec:
        raise SpecMismatch("word and class live over different surfaces")
    coords = list(x.coords)
    for letter in reversed(word.letters):
        u, phi = letter.rank_one
        c = 0
        for i, v in phi:
            c += v * coords[i]
        if c:
            for i, v in u:
                coords[i] += c * v
    return RelVec(x.spec, coords)


def word_to_paut(word: Word) -> PAutElem:
    """Matrix of the word's action on the relative lattice.

    Folds the letters left to right into the rows P = [S | M]: right
    multiplication by I + u phi^T is P <- P + (P u) phi^T, and P u = S u
    because u has no arc part.  Each row reads u's slots and changes in
    phi's slots only.
    """
    spec = word.spec
    k = spec.abs_rank
    rows = [[int(i == j) for j in range(spec.rel_rank)] for i in range(k)]
    for letter in word.letters:
        u, phi = letter.rank_one
        for row in rows:
            c = 0
            for i, v in u:
                c += row[i] * v
            if c:
                for i, v in phi:
                    row[i] += c * v
    return PAutElem._trusted(
        spec.g, spec.n, tuple(tuple(r[:k]) for r in rows), tuple(tuple(r[k:]) for r in rows)
    )


# ---------------------------------------------------------------------------
# framing action via chained twist-linearity


def _transport(spec: SurfaceSpec, letters, curves: list, w2: list, sign: int) -> None:
    """Push curves and their doubled windings through letters, in place.

    Curves are coordinate lists.  Each letter acts as itself (sign 1) or
    as its inverse (sign -1), on all curves before the next letter: the
    inverse of a twist is (u, -phi) with the same declared winding, that of
    a push (-u, phi).  Twist letters update the winding by twist-linearity
    with the letter's declared winding; point-push letters use the
    mod-2-pinned increment kappa_i * <loop, class> (exact by the fixed
    convention), reading <u, x> from the partner slots i ^ 1 of u's support.
    """
    for letter in letters:
        u, phi = letter.rank_one
        if isinstance(letter, Twist):
            d = 2 * letter.winding
            for j, x in enumerate(curves):
                c = 0
                for i, v in phi:
                    c += v * x[i]
                if c:
                    c *= sign
                    w2[j] += d * c
                    for i, v in u:
                        x[i] += c * v
        else:
            d = 2 * sign * spec.kappa[letter.point - 1]
            for j, x in enumerate(curves):
                if d:
                    pairing = 0
                    for i, v in u:
                        pairing += -v * x[i ^ 1] if i & 1 else v * x[i ^ 1]
                    w2[j] += d * pairing
                c = 0
                for i, v in phi:
                    c += v * x[i]
                if c:
                    c *= sign
                    for i, v in u:
                        x[i] += c * v


def track_curve(
    word: Word, start: RelVec, winding2: int
) -> tuple[RelVec, int]:
    """Push a curve (class + doubled winding) through the word's letters.

    Rightmost letter first, with the updates of `_transport`.  Doubled
    values keep arc half-integers integral.
    """
    if start.spec != word.spec:
        raise SpecMismatch("word and curve live over different surfaces")
    curves, w2 = [list(start.coords)], [winding2]
    _transport(word.spec, reversed(word.letters), curves, w2, 1)
    return RelVec(word.spec, curves[0]), w2[0]


def act_framing(word: Word, f: Framing) -> Framing:
    """Transport a framing: (w . phi)(b) = phi(w^{-1}(b)) on every basis element.

    The basis curves x_1, y_1, ..., x_g, y_g (and a_2, ..., a_n with arc
    data) go, with their doubled windings, through the inverse letters of w
    in word order, all curves in one pass over the letters.
    """
    if f.spec != word.spec:
        raise SpecMismatch("word and framing live over different surfaces")
    spec = f.spec
    if f.has_arc_data and spec.n >= 2 and word.has_pushes():
        raise PointPushOnArcs(
            "point-push letters do not act on framings carrying arc data"
        )
    w2 = list(f.doubled())
    curves = [[int(i == j) for i in range(spec.rel_rank)] for j in range(len(w2))]
    _transport(spec, word.letters, curves, w2, -1)
    return Framing.from_doubled(spec, w2)


# ---------------------------------------------------------------------------
# the mod-2 winding defect of a word


def delta_word(word: Word, f: Framing) -> CohomClass:
    """Accumulated change of mod-2 winding numbers along the word.

    Processes letters with the crossed-homomorphism rule
    value(fg) = pullback(g) value(f) + value(g), rightmost letter acting
    first; twist letters contribute k <., c> w(c), point-pushes kappa_i <u, .>.
    A twist about c pulls back along the mod-2 transvection about c when its
    power is odd and trivially when it is even; pushes pull back trivially.
    """
    if f.spec != word.spec:
        raise SpecMismatch("word and framing live over different surfaces")
    spec = word.spec
    w = spec.abs_rank
    out = 0
    for letter in word.letters:
        image = letter.mod2_image
        if isinstance(letter, Twist):
            if letter.power & 1:
                out = mod2.pull_transvection(out, image, w)
            scale = letter.power * letter.winding
        else:
            scale = spec.kappa[letter.point - 1]
        if scale & 1:
            out ^= mod2.dual(image, w)
    return CohomClass.from_packed(spec.g, out)


# ---------------------------------------------------------------------------
# standard alphabet


def standard_alphabet(f: Framing) -> dict[str, Letter]:
    """Power-one letters consistent with the framing.

    Basis twists Tx_i / Ty_i carry the framing's windings; puncture twists
    Td_i carry the signature winding -1-kappa_i (Td1 exists only for n >= 2,
    where the loop class is nonzero).
    """
    spec = f.spec
    out: dict[str, Letter] = {}
    for i in range(1, spec.g + 1):
        out[f"Tx{i}"] = Twist(as_punct(x_curve(spec, i)), 1, f.wind_x[i - 1])
        out[f"Ty{i}"] = Twist(as_punct(y_curve(spec, i)), 1, f.wind_y[i - 1])
    for i in range(1, spec.n + 1):
        loop = point_loop(spec, i)
        if loop.is_zero():
            continue
        out[f"Td{i}"] = Twist(loop, 1, spec.delta_winding(i))
    return out


def check_twist_winding(letter: Twist, f: Framing) -> None:
    """Refuse a twist whose declared winding no simple curve in its class has under f.

    A simple closed curve in class c has winding q(c) + 1 mod 2 (Johnson,
    J. LMS 1980), q the framing's quadratic form on punctured homology mod
    2: q_phi on the absolute part plus kappa_i for each loop d_i in c.  The
    loops pair to zero with every class, and d_i has winding -1 - kappa_i.
    """
    spec = f.spec
    if letter.spec != spec:
        raise SpecMismatch("twist and framing live over different surfaces")
    loops = mod2.pack(letter.curve.coords[spec.abs_rank :])
    q = mod2.quad(f.qphi, letter.mod2_image, spec.abs_rank)
    q ^= (loops & mod2.pack(spec.kappa[1:])).bit_count() & 1
    if (letter.winding ^ q ^ 1) & 1:
        raise WindingParityMismatch(
            f"twist declares a winding of parity {letter.winding & 1}; a simple curve "
            f"in its class has winding parity {q ^ 1} under this framing"
        )
