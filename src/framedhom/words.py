"""Words in twist and point-push generators, with exact lattice and framing actions.

A word is an ordered tuple of letters, leftmost acting last (so a word reads
like a composition).  Twist letters carry the class of the twisting curve in
the punctured lattice together with the declared winding number of the chosen
simple representative; point-push letters carry the pushed point and the
primitive absolute class of the pushing loop.

On relative homology every letter is a rank-one unipotent map
x -> x + phi(x) u, u an absolute class and phi a functional on relative
coordinates; it changes a curve's doubled winding by a phi(x) + omega(x),
the paper's change of winding numbers.  `_letter_map` builds these four,
with u, phi and omega as sparse supports ((i, value), ...), and is the
only code that tells a twist from a push for the actions.  Each letter
keeps them in `rank_one` and their reduction mod 2 in `packed`, both built
on first use.  `act_rel` and `word_to_paut` read (u, phi), updating
coordinate lists in place (c = phi(x), then x_i += c u_i).  By
twist-linearity a word's winding change is one integral functional on
relative coordinates; `_winding_change` folds it into a row from all four,
and `track_curve` and `act_framing` read that row.  `delta_word` reads
`packed`: it is the same row halved mod 2 on the absolute slots.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import Union

from .errors import (
    DimensionMismatch,
    NotPrimitive,
    PointPushOnArcs,
    SpecMismatch,
    WindingParityMismatch,
)
from .framing import Framing, winding_parity
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
from .value import Value, _set


Support = tuple[tuple[int, int], ...]
LetterMap = tuple[Support, Support, int, Support]


class _Letter(Value):
    """What every letter keeps: its map and that map mod 2, each built on first use.

    Both caches are slots outside `_fields`, set to None by each letter's
    __init__, so they take no part in equality, hashing or repr.
    """

    __slots__ = ("_map", "_packed")

    @property
    def rank_one(self) -> LetterMap:
        """The supports of (u, phi) and the winding change (a, omega); see `_letter_map`."""
        m = self._map
        if m is None:
            m = _letter_map(self)
            _set(self, "_map", m)
        return m

    @property
    def packed(self) -> tuple[int, int, int]:
        """u, phi and (a phi + omega) / 2 mod 2 on the absolute slots, packed."""
        m = self._packed
        if m is None:
            u, phi, a, omega = self.rank_one
            k = self.spec.abs_rank
            phi2 = _pack(phi, k, 1)
            m = (_pack(u, k, 1), phi2, (phi2 if a & 2 else 0) ^ _pack(omega, k, 2))
            _set(self, "_packed", m)
        return m


class Twist(_Letter):
    """Dehn twist about a curve with a caller-declared winding number.

    Its map has u = the curve with its loop part dropped and phi = power
    times the pairing with the curve; the inverse twist has (u, -phi) and
    the same declared winding.
    """

    __slots__ = _fields = ("curve", "power", "winding")
    curve: PunctVec
    power: int
    winding: int

    def __init__(self, curve: PunctVec, power: int = 1, winding: int = 0) -> None:
        power, winding = index(power), index(winding)
        if power == 0:
            raise DimensionMismatch("twist power must be nonzero")
        if not curve.is_primitive():
            raise NotPrimitive("twist curve class must be primitive")
        _set(self, "curve", curve)
        _set(self, "power", power)
        _set(self, "winding", winding)
        _set(self, "_map", None)
        _set(self, "_packed", None)

    @property
    def spec(self) -> SurfaceSpec:
        return self.curve.spec

    def inverse(self) -> "Twist":
        return Twist(self.curve, -self.power, self.winding)


class PointPush(_Letter):
    """Push of marked point `point` (1-based) around a primitive loop.

    Its map has u = the loop and phi = the coefficient of the point in the
    boundary; the inverse push has (-u, phi).
    """

    __slots__ = _fields = ("point", "loop")
    point: int
    loop: AbsVec

    def __init__(self, point: int, loop: AbsVec) -> None:
        if not 1 <= (point := index(point)) <= loop.spec.n:
            raise DimensionMismatch(
                f"marked point {point} out of range 1..{loop.spec.n}"
            )
        if not loop.is_primitive():
            raise NotPrimitive("point-push loop class must be primitive")
        _set(self, "point", point)
        _set(self, "loop", loop)
        _set(self, "_map", None)
        _set(self, "_packed", None)

    @property
    def spec(self) -> SurfaceSpec:
        return self.loop.spec

    def inverse(self) -> "PointPush":
        return PointPush(self.point, -self.loop)


Letter = Union[Twist, PointPush]


class Word(Value):
    """Composable sequence of letters over one surface; leftmost acts last."""

    __slots__ = _fields = ("spec", "letters")
    spec: SurfaceSpec
    letters: tuple[Letter, ...]

    def __init__(self, spec: SurfaceSpec, letters: tuple[Letter, ...] = ()) -> None:
        letters = tuple(letters)
        for letter in letters:
            if letter.spec != spec:
                raise SpecMismatch("all letters of a word must share one surface")
        _set(self, "spec", spec)
        _set(self, "letters", letters)

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


def _letter_map(letter: Letter) -> LetterMap:
    """The map x -> x + phi(x) u and doubled-winding change a phi(x) + omega(x).

    u, phi and omega are ((i, value), ...) over the nonzero slots in
    increasing order, phi over relative coordinates, u and omega over
    absolute ones.  A twist about c with power k and winding w has u =
    c-bar, phi = k <., c>, a = 2w and no omega (twist-linearity); a push of
    p_i has u = the loop, phi = the coefficient of p_i in the boundary
    (minus the sum of all arc coefficients for i = 1), a = 0 and omega =
    2 kappa_i <u, .>.
    """
    spec = letter.spec
    k = spec.abs_rank
    if isinstance(letter, Twist):
        c, p = letter.curve.coords, letter.power
        u = tuple(_entry(i, v) for i, v in enumerate(c[:k]) if v)
        loops = tuple(_entry(i, p * v) for i, v in enumerate(c[k:], k) if v)
        return u, _pairing(u, p) + loops, 2 * letter.winding, ()
    u = tuple(_entry(i, v) for i, v in enumerate(letter.loop.coords) if v)
    if letter.point >= 2:
        phi = (_entry(k + letter.point - 2, 1),)
    else:
        phi = tuple(_entry(i, -1) for i in range(k, spec.rel_rank))
    return u, phi, 0, _pairing(u, -2 * spec.kappa[letter.point - 1])


def _pairing(u: Support, scale: int) -> Support:
    """The support of scale * <., u> on the symplectic block.

    <x, u> reads each slot i of u against x's partner slot i ^ 1 (x_h
    pairs with y_h), with +u_i for a y slot (odd i) and -u_i for an x slot.
    """
    if not scale:
        return ()
    return tuple(sorted(_entry(i ^ 1, scale * v if i & 1 else -scale * v) for i, v in u))


def _pack(support: Support, k: int, bit: int) -> int:
    """Bit i for each slot i < k whose value has `bit` set (1: v mod 2; 2: v / 2 mod 2 of an even v)."""
    return sum(1 << i for i, v in support if i < k and v & bit)


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
        u, phi, _, _ = letter.rank_one
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
        u, phi, _, _ = letter.rank_one
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


def _winding_change(letters, rank: int, sign: int) -> list[int]:
    """The doubled-winding change of a word as a row over relative coordinates.

    Folds the letters left to right: appending x -> x + phi(x) u with
    change a phi + omega to a word with change acc gives
    acc + (acc . u + a) phi + omega.  Sign -1 folds each letter's inverse
    (negated phi of a twist, negated u and omega of a push), which
    negates that increment.
    """
    acc = [0] * rank
    for letter in letters:
        u, phi, a, omega = letter.rank_one
        c = a
        for i, v in u:
            c += acc[i] * v
        if c:
            c *= sign
            for i, v in phi:
                acc[i] += c * v
        for i, v in omega:
            acc[i] += sign * v
    return acc


def track_curve(
    word: Word, start: RelVec, winding2: int
) -> tuple[RelVec, int]:
    """The word's image of a curve (class + doubled winding).

    The class goes through `act_rel`; the doubled winding gains the word's
    winding change read at the starting class.  Doubled values keep arc
    half-integers integral.
    """
    if start.spec != word.spec:
        raise SpecMismatch("word and curve live over different surfaces")
    acc = _winding_change(word.letters, word.spec.rel_rank, 1)
    return act_rel(word, start), winding2 + sum(c * x for c, x in zip(acc, start.coords))


def act_framing(word: Word, f: Framing) -> Framing:
    """Transport a framing: (w . phi)(b) = phi(w^{-1}(b)) on every basis element.

    Basis element j (x_1, y_1, ..., x_g, y_g, then a_2, ..., a_n with arc
    data) is relative coordinate j, so its new doubled winding is the old
    one plus entry j of the winding change of w^{-1}: the letters reversed,
    each inverted.  A twist's declared winding is read as its curve's
    winding under f, so w1 acting on w2 . f takes w1's twists declared
    under w2 . f.
    """
    if f.spec != word.spec:
        raise SpecMismatch("word and framing live over different surfaces")
    spec = f.spec
    if f.has_arc_data and spec.n >= 2 and word.has_pushes():
        raise PointPushOnArcs(
            "point-push letters do not act on framings carrying arc data"
        )
    acc = _winding_change(reversed(word.letters), spec.rel_rank, -1)
    return Framing.from_doubled(spec, [w + c for w, c in zip(f.doubled(), acc)])


# ---------------------------------------------------------------------------
# the mod-2 winding defect of a word


def delta_word(word: Word, f: Framing) -> CohomClass:
    """Accumulated change of mod-2 winding numbers along the word.

    Processes letters with the crossed-homomorphism rule
    value(fg) = pullback(g) value(f) + value(g), rightmost letter acting
    first.  Mod 2, a letter's map x -> x + phi(x) u pulls a functional f
    back to f + f(u) phi, and its value is its winding change
    (a phi + omega) / 2, both read off the letter's `packed` triple.
    """
    if f.spec != word.spec:
        raise SpecMismatch("word and framing live over different surfaces")
    out = 0
    for letter in word.letters:
        u, phi, value = letter.packed
        if (out & u).bit_count() & 1:
            out ^= phi
        out ^= value
    return CohomClass.from_packed(word.spec.g, out)


# ---------------------------------------------------------------------------
# standard alphabet


def standard_twists(f: Framing) -> list[tuple[str, PunctVec, int]]:
    """(name, curve, winding) of each standard letter, in the alphabet's order.

    Basis twists Tx_1, Ty_1, ..., Tx_g, Ty_g carry the framing's windings;
    for n >= 2, where every loop class is nonzero, the puncture twists
    Td_1, ..., Td_n follow with the signature winding -1-kappa_i.
    """
    spec = f.spec
    out = []
    for i in range(1, spec.g + 1):
        out.append((f"Tx{i}", as_punct(x_curve(spec, i)), f.wind_x[i - 1]))
        out.append((f"Ty{i}", as_punct(y_curve(spec, i)), f.wind_y[i - 1]))
    if spec.n >= 2:
        out += [(f"Td{i}", point_loop(spec, i), spec.delta_winding(i)) for i in range(1, spec.n + 1)]
    return out


def check_twist_winding(letter: Twist, f: Framing) -> None:
    """Refuse a twist whose declared winding no simple curve in its class has under f.

    The parity a simple closed curve in the twist's class must have is
    `framedhom.framing.winding_parity` (Johnson's rule on punctured classes).
    """
    if letter.spec != f.spec:
        raise SpecMismatch("twist and framing live over different surfaces")
    parity = winding_parity(f, letter.curve)
    if (letter.winding ^ parity) & 1:
        raise WindingParityMismatch(
            f"twist declares a winding of parity {letter.winding & 1}; a simple curve "
            f"in its class has winding parity {parity} under this framing"
        )
