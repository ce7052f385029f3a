"""Packed linear algebra over Z/2 on the fixed symplectic basis.

One encoding serves every mod-2 object of a genus-g surface, with w = 2g:

* a vector (class in H_1 with Z/2 coefficients) or a functional (class in
  H^1) is an int whose bit j is the coordinate on, or the value at, the j-th
  basis class in the order x_1, y_1, ..., x_g, y_g;
* a w x w matrix is the list of its w packed columns;
* a quadratic refinement of the intersection form is packed by its values on
  the basis classes.

Bit tuples appear only as read-only views (`Bits.bits`), for JSON output.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .value import Value, _set


# pack parses one binary string of the coordinates' parities and unpack
# formats one: linear in the length, where moving one bit at a time into
# or out of a big int is quadratic.  columns does set one bit at a time,
# row by row, building no string per column: its ints are only as wide as
# the matrix is tall, so each bit costs about the same.


def pack(coords: Iterable[int]) -> int:
    """Reduce integer coordinates mod 2 and pack them, coordinate j into bit j."""
    return int("".join("1" if c & 1 else "0" for c in coords)[::-1] or "0", 2)


def unpack(v: int, w: int) -> tuple[int, ...]:
    """The low w bits of v as a 0/1 tuple, bit j at position j."""
    return tuple(map(int, format(v, f"0{w}b")[::-1][:w]))


def _x_bits(w: int) -> int:
    """Mask of the x-slots (even bits) below bit w."""
    return ((1 << w) - 1) // 3


def dual(v: int, w: int) -> int:
    """The functional <v, .> mod 2: swap the (x, y) bits of every handle."""
    em = _x_bits(w)
    return ((v >> 1) & em) | ((v & em) << 1)


def quad(q: int, v: int, w: int) -> int:
    """Value at v of the quadratic refinement with basis values q.

    q(sum c_j b_j) = sum c_j q(b_j) + sum_{i<j} c_i c_j <b_i, b_j>; in the
    fixed basis the pairing term is one product per handle.
    """
    return ((q & v).bit_count() + (v & (v >> 1) & _x_bits(w)).bit_count()) & 1


def arf(q: int, w: int) -> int:
    """Classical Arf invariant sum q(x_i) q(y_i)."""
    return (q & (q >> 1) & _x_bits(w)).bit_count() & 1


def sp2_order(g: int) -> int:
    """Order of the symplectic group Sp(2g, Z/2): 2^(g^2) * prod(4^i - 1)."""
    out = 1 << (g * g)
    for i in range(1, g + 1):
        out *= 4**i - 1
    return out


def columns(mat: Sequence[Sequence[int]]) -> list[int]:
    """Packed columns of an integer matrix given by rows, reduced mod 2.

    Row r sets bit r of each column where its entry is odd.
    """
    cols = [0] * (len(mat[0]) if mat else 0)
    for r, row in enumerate(mat):
        bit = 1 << r
        for j, v in enumerate(row):
            if v & 1:
                cols[j] |= bit
    return cols


def apply(cols: Sequence[int], v: int) -> int:
    """S v for the matrix with packed columns cols."""
    out = 0
    for j, c in enumerate(cols):
        if (v >> j) & 1:
            out ^= c
    return out


def pullback(cols: Sequence[int], f: int) -> int:
    """S^T f: the functional x -> f(S x)."""
    out = 0
    for j, c in enumerate(cols):
        out |= ((c & f).bit_count() & 1) << j
    return out


def pull_transvection(f: int, v: int, w: int) -> int:
    """Pullback along the transvection T_v: f + f(v) <., v>."""
    return f ^ dual(v, w) if (f & v).bit_count() & 1 else f


def is_symplectic(cols: Sequence[int], w: int) -> bool:
    """S^T J S = J mod 2: the columns pair with each other like the basis does.

    The form is alternating mod 2, so each pair a < b is checked once:
    <c_a, c_b> must be 1 for (a, b) = (x_h, y_h) and 0 otherwise.
    """
    if len(cols) != w:
        return False
    duals = [dual(c, w) for c in cols]
    for a in range(w - 1):
        ca = cols[a]
        for b in range(a + 1, w):
            if (ca & duals[b]).bit_count() & 1 != (b == a + 1 and not a & 1):
                return False
    return True


def qhat(q: int, cols: Sequence[int], w: int) -> int:
    """Defect x -> q(S x) - q(x) of a quadratic form under S, as a functional.

    Bit j is quad(q, c_j, w) + q(b_j) for column c_j, quad written out.
    """
    em = _x_bits(w)
    out = 0
    for j, c in enumerate(cols):
        out |= (((q & c).bit_count() + (c & (c >> 1) & em).bit_count() + (q >> j)) & 1) << j
    return out


class Bits(Value):
    """Packed mod-2 vector of rank 2g, built from its bit tuple or packed int."""

    __slots__ = _fields = ("g", "packed")
    g: int
    packed: int

    def __init__(self, bits: Iterable[int]) -> None:
        bits = tuple(bits)
        if len(bits) % 2 != 0:
            raise DimensionMismatch(f"{type(self).__name__} needs 2g bits")
        for i, b in enumerate(bits):
            if b != 0 and b != 1:
                raise DimensionMismatch(f"{type(self).__name__} bit {i} is {b!r}, not 0 or 1")
        _set(self, "g", len(bits) // 2)
        _set(self, "packed", pack(bits))

    @classmethod
    def from_packed(cls, g: int, packed: int):
        out = object.__new__(cls)
        _set(out, "g", g)
        _set(out, "packed", packed)
        return out

    @property
    def bits(self) -> tuple[int, ...]:
        return unpack(self.packed, 2 * self.g)
