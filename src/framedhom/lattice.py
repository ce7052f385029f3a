"""Coordinate model of the homology lattices of a marked surface.

Everything lives over fixed ordered bases:

* absolute classes      (x_1, y_1, ..., x_g, y_g)              rank 2g
* relative classes      (x_1, ..., y_g, a_2, ..., a_n)         rank 2g+n-1
* punctured classes     (x_1, ..., y_g, d_2, ..., d_n)         rank 2g+n-1

with <x_i, y_i> = 1 and <a_i, d_i> = 1.  All arithmetic is exact integer.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import ClassVar, Sequence

from . import mod2
from .errors import DimensionMismatch, InvalidSurface, SpecMismatch
from .value import Value, _set, ints


class SurfaceSpec(Value):
    """Genus, marked points and their signature partition.

    Also kept, outside `_fields` (so in no equality, hash or repr): n, the
    lattice ranks, and vbar, the reduced signature (kappa_2, ..., kappa_n)
    mod 2 packed with bit j for kappa_{j+2}; vbar is 0 exactly in the even
    regime, where every kappa entry is even.
    """

    __slots__ = ("g", "kappa", "n", "abs_rank", "rel_rank", "zero_rank", "vbar")
    _fields = ("g", "kappa")
    g: int
    kappa: tuple[int, ...]
    n: int
    abs_rank: int
    rel_rank: int
    zero_rank: int
    vbar: int

    def __init__(self, g: int, kappa: Sequence[int]) -> None:
        g, kappa = index(g), ints(kappa)
        if g < 2:
            raise InvalidSurface(f"genus must be >= 2, got {g}")
        if len(kappa) < 1:
            raise InvalidSurface("need at least one marked point")
        if sum(kappa) != 2 * g - 2:
            raise InvalidSurface(
                f"kappa sum must equal 2g-2 = {2 * g - 2}, got {sum(kappa)}"
            )
        n = len(kappa)
        _set(self, "g", g)
        _set(self, "kappa", kappa)
        _set(self, "n", n)
        _set(self, "abs_rank", 2 * g)
        _set(self, "rel_rank", 2 * g + n - 1)
        _set(self, "zero_rank", n - 1)
        _set(self, "vbar", mod2.pack(kappa[1:]))

    def delta_winding(self, i: int) -> int:
        """Winding number of the loop around marked point i (1-based): -1 - kappa_i."""
        if not 1 <= (i := index(i)) <= self.n:
            raise InvalidSurface(f"marked point index {i} out of range 1..{self.n}")
        return -1 - self.kappa[i - 1]


class _Vec(Value):
    """Exact integer vector over a surface; a subclass names its rank (a SurfaceSpec attribute) in _rank."""

    __slots__ = _fields = ("spec", "coords")
    _rank: ClassVar[str]
    spec: SurfaceSpec
    coords: tuple[int, ...]

    def __init__(self, spec: SurfaceSpec, coords: Sequence[int]) -> None:
        coords = ints(coords)
        rank = getattr(spec, self._rank)
        if len(coords) != rank:
            raise DimensionMismatch(
                f"{type(self).__name__} over g={spec.g}, n={spec.n} "
                f"needs {rank} coordinates, got {len(coords)}"
            )
        _set(self, "spec", spec)
        _set(self, "coords", coords)

    def _same_spec(self, other: "_Vec") -> None:
        if self.spec != other.spec:
            raise SpecMismatch("vectors live over different surfaces")

    def __add__(self, other):
        self._same_spec(other)
        if type(other) is not type(self):
            raise SpecMismatch(f"cannot add {type(other).__name__} to {type(self).__name__}")
        return type(self)(self.spec, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.spec, tuple(-a for a in self.coords))

    def __rmul__(self, k: int):
        k = index(k)
        return type(self)(self.spec, tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def is_primitive(self) -> bool:
        return gcd(*self.coords) == 1 if any(self.coords) else False


class AbsVec(_Vec):
    """Class in the absolute first homology of the closed surface."""

    __slots__ = ()
    _rank = "abs_rank"


class RelVec(_Vec):
    """Class in the homology of the surface relative to its marked points."""

    __slots__ = ()
    _rank = "rel_rank"


class PunctVec(_Vec):
    """Class in the first homology of the surface minus its marked points."""

    __slots__ = ()
    _rank = "rel_rank"


# ---------------------------------------------------------------------------
# basis vectors


def _unit(rank: int, j: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(rank))


def x_curve(spec: SurfaceSpec, i: int) -> AbsVec:
    """Basis curve x_i, 1 <= i <= g."""
    if not 1 <= (i := index(i)) <= spec.g:
        raise DimensionMismatch(f"handle index {i} out of range 1..{spec.g}")
    return AbsVec(spec, _unit(spec.abs_rank, 2 * (i - 1)))


def y_curve(spec: SurfaceSpec, i: int) -> AbsVec:
    """Basis curve y_i, 1 <= i <= g."""
    if not 1 <= (i := index(i)) <= spec.g:
        raise DimensionMismatch(f"handle index {i} out of range 1..{spec.g}")
    return AbsVec(spec, _unit(spec.abs_rank, 2 * (i - 1) + 1))


def abs_basis(spec: SurfaceSpec) -> list[AbsVec]:
    """The 2g absolute basis classes in order x_1, y_1, ..., x_g, y_g."""
    return [AbsVec(spec, _unit(spec.abs_rank, j)) for j in range(spec.abs_rank)]


def arc_class(spec: SurfaceSpec, i: int) -> RelVec:
    """Relative class of the arc a_i, 2 <= i <= n."""
    if not 2 <= (i := index(i)) <= spec.n:
        raise DimensionMismatch(f"arc index {i} out of range 2..{spec.n}")
    return RelVec(spec, _unit(spec.rel_rank, spec.abs_rank + i - 2))


def point_loop(spec: SurfaceSpec, i: int) -> PunctVec:
    """Punctured class of the counterclockwise loop around marked point i.

    For i >= 2 this is the basis vector d_i; the loop around p_1 is
    -(d_2 + ... + d_n), the zero class when n = 1.
    """
    if not 1 <= (i := index(i)) <= spec.n:
        raise DimensionMismatch(f"marked point index {i} out of range 1..{spec.n}")
    if i >= 2:
        return PunctVec(spec, _unit(spec.rel_rank, spec.abs_rank + i - 2))
    coords = [0] * spec.rel_rank
    for j in range(spec.abs_rank, spec.rel_rank):
        coords[j] = -1
    return PunctVec(spec, tuple(coords))


# ---------------------------------------------------------------------------
# maps between the lattices


def as_rel(v: AbsVec) -> RelVec:
    """Embed an absolute class into the relative lattice."""
    return RelVec(v.spec, v.coords + (0,) * v.spec.zero_rank)


def as_punct(v: AbsVec) -> PunctVec:
    """Embed an absolute class into the punctured lattice (no d components)."""
    return PunctVec(v.spec, v.coords + (0,) * v.spec.zero_rank)


def project_punct(c: PunctVec) -> AbsVec:
    """Kill the d components: the map induced by filling the punctures."""
    return AbsVec(c.spec, c.coords[: c.spec.abs_rank])


# ---------------------------------------------------------------------------
# pairings


def symplectic_pairing(u: AbsVec, v: AbsVec) -> int:
    """Algebraic intersection number in the fixed basis, <x_i, y_i> = 1."""
    u._same_spec(v)
    return sympl(u.coords, v.coords)


def sympl(u: Sequence[int], v: Sequence[int]) -> int:
    """Raw symplectic form on interleaved coordinates (x_1, y_1, ...)."""
    if len(u) != len(v):
        raise DimensionMismatch("symplectic pairing of different lengths")
    total = 0
    for i in range(0, len(u) - 1, 2):
        total += u[i] * v[i + 1] - u[i + 1] * v[i]
    return total


def rel_punct_pairing(x: RelVec, c: PunctVec) -> int:
    """Perfect pairing of relative against punctured classes.

    Restricts to the intersection form on the symplectic block, and
    <a_i, d_j> = delta_ij on the arc/loop block.
    """
    if x.spec != c.spec:
        raise SpecMismatch("pairing of vectors over different surfaces")
    r = x.spec.abs_rank
    total = sympl(x.coords[:r], c.coords[:r])
    for i in range(r, x.spec.rel_rank):
        total += x.coords[i] * c.coords[i]
    return total


# ---------------------------------------------------------------------------
# mod-2 cohomology classes


class CohomClass(mod2.Bits):
    """Element of H^1 of the closed surface with Z/2 coefficients.

    Packed (see mod2) as its evaluation table against the absolute basis; the
    value on a class is the parity of the table masked by its mod-2 coordinates.
    """

    __slots__ = ()

    @classmethod
    def zero(cls, g: int) -> "CohomClass":
        return cls.from_packed(g, 0)

    @classmethod
    def pairing_with(cls, v: AbsVec) -> "CohomClass":
        """The functional <v, .> mod 2."""
        w = v.spec.abs_rank
        return cls.from_packed(v.spec.g, mod2.dual(mod2.pack(v.coords[:w]), w))

    def __add__(self, other: "CohomClass") -> "CohomClass":
        if self.g != other.g:
            raise DimensionMismatch("cohomology classes of different genus")
        return CohomClass.from_packed(self.g, self.packed ^ other.packed)

    def evaluate(self, v: AbsVec | Sequence[int]) -> int:
        coords = v.coords if isinstance(v, AbsVec) else v
        if len(coords) != 2 * self.g:
            raise DimensionMismatch("evaluation on a class of the wrong rank")
        return (self.packed & mod2.pack(coords)).bit_count() & 1

    def is_zero(self) -> bool:
        return self.packed == 0
