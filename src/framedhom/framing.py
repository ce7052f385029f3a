"""Winding-number functions on the distinguished basis, Arf data and parity forms.

A framing is stored by its winding numbers on the basis curves (integers) and,
when the surface has several marked points, on the basis arcs.  Arc windings
are half-integers; they are kept doubled so that every stored value is an
exact integer (the doubled value is always odd).
"""

from __future__ import annotations

from typing import Sequence

from . import mod2
from .errors import (
    DimensionMismatch,
    InvalidSurface,
    MissingArcData,
    SomeKappaOdd,
    SpecMismatch,
)
from .lattice import AbsVec, PunctVec, SurfaceSpec
from .value import Value, _set, ints


class Framing(Value):
    """Winding numbers of a framing on the distinguished geometric basis.

    arc2 holds 2*phi(a_i) for i = 2..n; None means the relative data is
    absent (only legal when it is never consulted, or when n = 1).

    qphi, set at construction and outside `_fields`, packs the basis values
    phi(b) + 1 of the quadratic refinement q_phi: bit 2i is set when
    phi(x_i) is even and bit 2i+1 when phi(y_i) is.
    """

    __slots__ = ("spec", "wind_x", "wind_y", "arc2", "qphi")
    _fields = ("spec", "wind_x", "wind_y", "arc2")
    spec: SurfaceSpec
    wind_x: tuple[int, ...]
    wind_y: tuple[int, ...]
    arc2: tuple[int, ...] | None
    qphi: int

    def __init__(
        self,
        spec: SurfaceSpec,
        wind_x: Sequence[int],
        wind_y: Sequence[int],
        arc2: Sequence[int] | None = None,
    ) -> None:
        wind_x, wind_y = ints(wind_x), ints(wind_y)
        g = spec.g
        if len(wind_x) != g or len(wind_y) != g:
            raise DimensionMismatch(f"need {g} x- and y-windings")
        if arc2 is None and spec.n == 1:
            arc2 = ()
        if arc2 is not None:
            arc2 = ints(arc2)
            if len(arc2) != spec.n - 1:
                raise DimensionMismatch(f"need {spec.n - 1} doubled arc windings")
            for v in arc2:
                if v % 2 == 0:
                    raise InvalidSurface(
                        f"arc windings are half-integral: doubled value {v} must be odd"
                    )
        _set(self, "spec", spec)
        _set(self, "wind_x", wind_x)
        _set(self, "wind_y", wind_y)
        _set(self, "arc2", arc2)
        _set(self, "qphi", mod2.pack(w + 1 for pair in zip(wind_x, wind_y) for w in pair))

    @classmethod
    def zeros(cls, spec: SurfaceSpec) -> "Framing":
        """Preset with all curve windings 0 and every arc winding -1/2."""
        g = spec.g
        return cls(spec, (0,) * g, (0,) * g, (-1,) * (spec.n - 1))

    @property
    def has_arc_data(self) -> bool:
        return self.arc2 is not None

    def doubled(self) -> tuple[int, ...]:
        """Doubled windings x_1, y_1, ..., x_g, y_g, then arc2 when present."""
        return tuple([2 * w for pair in zip(self.wind_x, self.wind_y) for w in pair]) + (self.arc2 or ())

    @classmethod
    def from_doubled(cls, spec: SurfaceSpec, w2: Sequence[int]) -> "Framing":
        """Framing with doubled() == w2; no arc tail means no arc data."""
        k = spec.abs_rank
        for v in w2[:k]:
            if v % 2:
                raise InvalidSurface(f"curve windings are integral: doubled value {v} must be even")
        halves = [v // 2 for v in w2[:k]]
        return cls(spec, halves[0::2], halves[1::2], tuple(w2[k:]) or None)


class QForm(mod2.Bits):
    """Quadratic refinement of the mod-2 intersection form, by basis values."""

    __slots__ = ()

    def __init__(self, qx: Sequence[int], qy: Sequence[int]) -> None:
        if len(qx) != len(qy):
            raise DimensionMismatch("qx and qy must have length g")
        super().__init__(b for pair in zip(qx, qy) for b in pair)

    @property
    def qx(self) -> tuple[int, ...]:
        return self.bits[0::2]

    @property
    def qy(self) -> tuple[int, ...]:
        return self.bits[1::2]

    def basis_bits(self) -> tuple[int, ...]:
        return self.bits


def arf(f: Framing) -> int:
    """Arf invariant of a (relative) framing.

    Handle terms (phi(x_i)+1)(phi(y_i)+1) plus, for each arc,
    (phi(a_i)+1/2)(phi(Delta_i)+1) -- an exact integer since arc windings are
    half-integral and the product clears the denominator.
    """
    total = 0
    for wx, wy in zip(f.wind_x, f.wind_y):
        total += (wx + 1) * (wy + 1)
    if f.spec.n >= 2:
        if f.arc2 is None:
            raise MissingArcData("Arf invariant needs arc windings when n >= 2")
        for j, a2 in enumerate(f.arc2):
            # (phi(a)+1/2)(phi(Delta)+1) = ((arc2+1)/2) * (-kappa)
            total += ((a2 + 1) // 2) * (-f.spec.kappa[j + 1])
    return total & 1


def spin_form(f: Framing) -> QForm:
    """Classical spin structure q(b) = phi(b) + 1 induced by an even framing."""
    if f.spec.vbar:
        raise SomeKappaOdd(
            "no classical spin structure: kappa has odd entries "
            f"{tuple(f.spec.kappa)}"
        )
    return QForm.from_packed(f.spec.g, f.qphi)


def winding_parity(f: Framing, c: AbsVec | PunctVec) -> int:
    """Mod-2 winding number of a simple closed curve in an absolute or punctured class c.

    Johnson's rule (J. LMS 1980): q(c) + 1, q the framing's quadratic form
    on punctured homology mod 2: q_phi (basis values phi(b) + 1) on the
    absolute part plus kappa_i for each loop d_i in c, since the loops pair
    to zero with every class and d_i has winding -1 - kappa_i.  It packages
    the crossing rule and the pants rule for sums.  A relative class, whose
    arc part has no such rule, or any other type raises SpecMismatch.
    """
    if type(c) not in (AbsVec, PunctVec):
        raise SpecMismatch(f"winding parity needs an AbsVec or a PunctVec, got {type(c).__name__}")
    spec = f.spec
    if c.spec != spec:
        raise SpecMismatch("class and framing live over different surfaces")
    # quad reads only the absolute bits below k; the loop bits sit above them
    v, k = mod2.pack(c.coords), spec.abs_rank
    return (mod2.quad(f.qphi, v, k) + ((v >> k) & spec.vbar).bit_count() + 1) & 1
