"""Pure automorphisms of the relative homology lattice as validated block matrices.

An element acts on relative coordinates by [[S, M], [0, I]]: S is an integer
symplectic 2g x 2g matrix, M a 2g x (n-1) integer matrix recording how point
classes are transvected into absolute homology.  The trailing identity block
is the purity constraint and is never stored.

S^T J S = J is checked where a matrix enters from outside: the public
constructor `PAutElem(...)` (hence the CLI's JSON loader), which also
rejects g < 2 and n < 1 as `SurfaceSpec` does, and `factor_sp`.  The check
(`is_symplectic`) is the pairing form: the columns of S must pair with each
other as the basis does, <c_a, c_b> = J[a][b] for a < b, one dot product
per pair and no product matrix.  `factor_sp` runs it only on failure: its
reduction checks that the transvections it applies take S to I, which
proves S symplectic, and `is_symplectic` then tells a non-symplectic
input (`NotSymplectic`) from a fault of the reduction.
Results built inside the library from elements already checked or from
transvections -- `compose`, `invert`, word matrices, kernel lifts and
`sampling.random_paut` -- are symplectic by construction and go through
the unchecked `PAutElem._trusted`.
"""

from __future__ import annotations

from operator import index, mul
from typing import Sequence

from . import mod2
from .errors import DimensionMismatch, InvalidSurface, NotSymplectic, SpecMismatch
from .lattice import AbsVec, CohomClass, SurfaceSpec
from .value import Value, _set, ints

Mat = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# small exact matrix helpers (row-major tuples)


def freeze(rows: Sequence[Sequence[int]]) -> Mat:
    return tuple(map(ints, rows))


def identity_mat(k: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def zero_mat(rows: int, cols: int) -> Mat:
    return tuple((0,) * cols for _ in range(rows))


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and len(a[0]) != len(b):
        raise DimensionMismatch("matrix product shape mismatch")
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def is_symplectic(s: Mat, g: int) -> bool:
    """Check S^T J S = J exactly, as the pairings of S's columns.

    Entry (a, b) of S^T J S is <c_a, c_b>, and <c, c> = 0 for every c, so
    S^T J S = J holds iff <c_a, c_b> = J[a][b] for every a < b: 1 when
    (a, b) = (x_h, y_h) and 0 otherwise.
    """
    m = 2 * g
    if len(s) != m or any(len(row) != m for row in s):
        return False
    cols = list(zip(*s))
    # J c: the pairing <x, c> is the dot product of x with J c = (c_y, -c_x) per handle
    jcols = [[v for h in range(0, m, 2) for v in (c[h + 1], -c[h])] for c in cols]
    for a in range(m - 1):
        ca = cols[a]
        for b in range(a + 1, m):
            if sum(map(mul, ca, jcols[b])) != (b == a + 1 and not a & 1):
                return False
    return True


def sp_inverse(s: Mat, g: int) -> Mat:
    """Inverse of a symplectic matrix: -J S^T J, exact over the integers.

    The only nonzero entries of J are J[i][i^1], +1 for an x slot i and -1
    for a y slot, so entry (i, j) of -J S^T J is (-1)^(i+j) S[j^1][i^1].
    """
    return tuple(
        tuple(-s[j ^ 1][i ^ 1] if (i ^ j) & 1 else s[j ^ 1][i ^ 1] for j in range(2 * g))
        for i in range(2 * g)
    )


# ---------------------------------------------------------------------------
# the group


class PAutElem(Value):
    """Block automorphism of the relative lattice of a genus-g, n-point surface."""

    __slots__ = _fields = ("g", "n", "S", "M")
    g: int
    n: int
    S: Mat
    M: Mat

    def __init__(self, g: int, n: int, S: Sequence[Sequence[int]], M: Sequence[Sequence[int]]) -> None:
        g, n = index(g), index(n)
        if g < 2:
            raise InvalidSurface(f"genus must be >= 2, got {g}")
        if n < 1:
            raise InvalidSurface(f"need at least one marked point, got n={n}")
        S, M = freeze(S), freeze(M)
        k = 2 * g
        if len(S) != k or any(len(row) != k for row in S):
            raise DimensionMismatch(f"S must be {k}x{k}")
        if len(M) != k or any(len(row) != n - 1 for row in M):
            raise DimensionMismatch(f"M must be {k}x{n - 1}")
        if not is_symplectic(S, g):
            raise NotSymplectic("S does not preserve the intersection pairing")
        _set(self, "g", g)
        _set(self, "n", n)
        _set(self, "S", S)
        _set(self, "M", M)

    @classmethod
    def _trusted(cls, g: int, n: int, s: Mat, m: Mat) -> "PAutElem":
        """Element from blocks that are well shaped and symplectic by construction."""
        out = object.__new__(cls)
        _set(out, "g", g)
        _set(out, "n", n)
        _set(out, "S", s)
        _set(out, "M", m)
        return out

    def matches(self, spec: SurfaceSpec) -> bool:
        return self.g == spec.g and self.n == spec.n

    def is_identity(self) -> bool:
        return self.S == identity_mat(2 * self.g) and all(
            all(v == 0 for v in row) for row in self.M
        )


def compose(a: PAutElem, b: PAutElem) -> PAutElem:
    """Block product: (S_a S_b, S_a M_b + M_a)."""
    if (a.g, a.n) != (b.g, b.n):
        raise SpecMismatch("composing automorphisms of different surfaces")
    s = mat_mul(a.S, b.S)
    sm = mat_mul(a.S, b.M) if a.n > 1 else b.M
    m = tuple(
        tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(sm, a.M)
    )
    return PAutElem._trusted(a.g, a.n, s, m)


def invert(a: PAutElem) -> PAutElem:
    """Block inverse: (S^{-1}, -S^{-1} M)."""
    sinv = sp_inverse(a.S, a.g)
    m = mat_mul(sinv, a.M)
    return PAutElem._trusted(a.g, a.n, sinv, tuple(tuple(-v for v in row) for row in m))


# ---------------------------------------------------------------------------
# transvections and their factorization


def transvection(v: AbsVec, k: int) -> Mat:
    """Matrix of x -> x + k <x, v> v in the absolute basis."""
    c, k = v.coords, index(k)
    # <x, v> = sum_j jv[j] x_j with jv = (v_y, -v_x) per handle, so row i is
    # k c_i jv with 1 added on the diagonal
    jv = [u for i in range(0, len(c), 2) for u in (c[i + 1], -c[i])]
    rows = []
    for i, ci in enumerate(c):
        f = k * ci
        row = [f * u for u in jv]
        row[i] += 1
        rows.append(tuple(row))
    return tuple(rows)


def pullback_h1(sbar: Mat, theta: CohomClass) -> CohomClass:
    """Precompose a class with the mod-2 action of S (integer or 0/1): bits -> S^T bits."""
    k = 2 * theta.g
    if len(sbar) != k or any(len(row) != k for row in sbar):
        raise DimensionMismatch("pullback matrix has the wrong size")
    return CohomClass.from_packed(theta.g, mod2.pullback(mod2.columns(sbar), theta.packed))


def factor_sp(s: Mat) -> list[tuple[tuple[int, ...], int]]:
    """Factor an integer symplectic matrix into transvections.

    Returns pairs (v, k), each a primitive vector with its power, whose
    ordered product T_{v_1}^{k_1} ... T_{v_m}^{k_m} equals S exactly.  The
    list is one valid factorization, not a canonical one.  The reduction is
    symplectic Gaussian elimination: bring each basis column pair to
    (e_{2h}, e_{2h+1}) with transvections supported on the remaining
    handles, then recurse.  Each applied transvection T^k is recorded as its
    inverse T^{-k}: the applied ones satisfy T_m ... T_1 S = I, so
    S = T_1^{-1} T_2^{-1} ... T_m^{-1} in application order.

    Column 2h is brought to x_h by Euclid on each later handle's (x_i, y_i)
    slots, then by steps that move the x_i slots into the x_h slot.  Column
    2h+1 then pairs to -1 with x_h and every later column pairs to 0 with
    it, so each x_i or y_i slot e of column 2h+1, holding k, is cleared by
    the shear T_{x_h+e}^k T_{x_h}^{-k} T_e^{-k}: three commuting
    transvections whose product is x -> x + k(<x, x_h> e + <x, e> x_h).  It
    changes the later columns only in their x_h row, and a final power of
    T_{x_h} clears the x_h slot of column 2h+1.

    Every class used is a basis vector e_p or a sum e_p + e_q of two on
    different handles, and the working matrix is updated by rows: T_v^k adds
    k v_i <., v> to the one or two rows where v is nonzero, and the pairing
    <., v> reads only the partner rows w[p^1] (and w[q^1]).  A shear is two
    row updates: row e gains -k row y_h and row x_h gains k <., e>, a
    multiple of row e^1.  Row y_h is e_{y_h} by then (the checks below
    confirm it), so row e changes only in its column 2h+1 entry.  Each step
    of the x_i absorption, T_{x_a+y_b}^k T_{y_b}^{-k}, is two as well: row
    y_b gains -k row y_a, and row x_a gains the same plus k row x_b.  The
    vectors come from one table per call, each built once; e_p and e_p + e_q
    are primitive, so no gcd is taken.  Euclid's quotients depend only on
    the pivot pair, so each handle's Euclid runs on two integers and its
    accumulated unimodular 2x2 map is applied to rows x_i and y_i once.

    The working matrix shrinks as handles finish.  Later transvections read
    and change only the rows of later handles, and those rows are 0 in the
    finished columns, so both finished rows and finished columns are
    dropped: at handle h each row holds the 2(g-h) entries of the columns
    2h onwards, and emitted vectors keep their global slots.  Each finished
    column is compared with its unit vector on the rows still held, and
    rows x_h and y_h are checked to be 0 in the later columns before they
    go, so the whole working matrix is still checked against I.
    Symplecticity forces those zeros: every later column pairs to 0 with
    columns 2h and 2h+1, which are now x_h and y_h.

    These checks are where S^T J S = J is checked.  A product of
    transvections is symplectic, so a list comes back only for a symplectic
    S.  When a check fails, `is_symplectic` decides: `NotSymplectic` for an
    input that is not symplectic, the check's `AssertionError` otherwise,
    since then the reduction itself is at fault.
    """
    m = len(s)
    if m % 2 != 0 or any(len(row) != m for row in s):
        raise DimensionMismatch("factor_sp needs a 2g x 2g matrix")
    g = m // 2

    # w[r] holds row r of the working matrix from column 2h on, at handle h;
    # the copy applies the integer rule (operator.index) to every entry
    w = [list(map(index, row)) for row in s]
    out: list[tuple[tuple[int, ...], int]] = []
    emit = out.append
    unit = identity_mat(m)
    pairs: dict[int, tuple[int, ...]] = {}

    def pair(p: int, q: int) -> tuple[int, ...]:
        v = pairs.get(p * m + q)
        if v is None:
            u = [0] * m
            u[p] = u[q] = 1
            v = pairs[p * m + q] = tuple(u)
        return v

    def t_one(p: int, k: int) -> None:
        # left-multiply W by T_{e_p}^k: row p gains k <col, e_p> = -+k row p^1
        if k:
            f = k if p & 1 else -k
            w[p] = [a + f * b for a, b in zip(w[p], w[p ^ 1])]
            emit((unit[p], -k))

    def absorb(x: int, y: int, k: int) -> None:
        # T_{x+y}^k T_y^{-k} for an x slot x and a y slot y on different
        # handles: row y gains k <col, x> = -k row x^1, row x gains
        # k <col, x + y>, the same plus k row y^1
        if k:
            d = [-k * b for b in w[x + 1]]
            w[y] = [a + b for a, b in zip(w[y], d)]
            w[x] = [a + b + k * c for a, b, c in zip(w[x], d, w[y - 1])]
            emit((pair(x, y), -k))
            emit((unit[y], k))

    def check_column(xh: int, c: int) -> None:
        # column 2h + c must be e_{x_h + c} on the rows still held
        if any(w[r][c] != (r == xh + c) for r in range(xh, m)):
            raise AssertionError("column reduction failed; input not symplectic?")

    def euclid_handle(i: int) -> None:
        # zero the y_i slot of column 2h, gcd collects in the x_i slot; the map
        # (row x_i, row y_i) -> (p x + q y, r x + t y) accumulates over the steps.
        # T_{x_i}^k takes a to a - k b and T_{y_i}^k takes b to b + k a.  A step
        # on a runs when a = 0 or |a| > |b|, else a step on b; a step on b
        # leaves |b| < |a| and a step on a leaves |a| < |b|, so they alternate
        # once started, with one extra step on a (a -> a + b) when a reaches 0.
        x, y = w[2 * i], w[2 * i + 1]
        a0, b0 = a, b = x[0], y[0]
        if b == 0:
            return
        xi, yi = unit[2 * i], unit[2 * i + 1]
        # only the map's first column (p, r) is tracked; the map takes (a0, b0)
        # to (a, 0), which gives its second column (q, t) at the end (b0 != 0)
        p, r = 1, 0
        if a and abs(a) <= abs(b):
            k, b = divmod(b, a)  # T_{y_i}^{-k}: b -> b mod a
            emit((yi, k))
            r = -k
        while b:
            if a:
                k, a = divmod(a, b)  # T_{x_i}^k: a -> a mod b
                emit((xi, -k))
                p -= k * r
            if not a:
                emit((xi, 1))  # T_{x_i}^{-1}: a -> a + b
                a, p = b, p + r
            k, b = divmod(b, a)
            emit((yi, k))
            r -= k * p
        q, t = (a - p * a0) // b0, -(r * a0) // b0
        w[2 * i] = [p * c + q * d for c, d in zip(x, y)]
        w[2 * i + 1] = [r * c + t * d for c, d in zip(x, y)]

    def reduce_first(h: int) -> None:
        xh = 2 * h
        yh = xh + 1
        for i in range(h, g):
            euclid_handle(i)
        # absorb the remaining x_i coefficients into the x_h slot
        for i in range(h + 1, g):
            xi, yi = 2 * i, 2 * i + 1
            while w[xi][0] != 0:
                ah, ai = w[xh][0], w[xi][0]
                if ah == 0:
                    absorb(xh, yi, 1)  # a_h += a_i
                    absorb(xi, yh, -1)  # a_i -= a_h
                elif abs(ai) >= abs(ah):
                    absorb(xi, yh, -(ai // ah))  # a_i -> a_i mod a_h
                else:
                    absorb(xh, yi, -(ah // ai))  # a_h -> a_h mod a_i
        if w[xh][0] == -1:
            t_one(yh, 1)
            t_one(xh, 2)
            t_one(yh, 1)
        check_column(xh, 0)

    def reduce_second(h: int) -> None:
        # all moves here fix x_h (no y_h component in any transvection class)
        xh = 2 * h
        row_xh, row_yh = w[xh], w[xh + 1]
        for e in range(xh + 2, m):
            k = w[e][1]
            if k:
                # <col 2h+1, x_h> = -1, so this shear takes the e slot from k to 0
                w[e][1] -= k * row_yh[1]
                f = k if e & 1 else -k
                row_xh = [a + f * b for a, b in zip(row_xh, w[e ^ 1])]
                emit((pair(xh, e), -k))
                emit((unit[xh], k))
                emit((unit[e], k))
        w[xh] = row_xh
        t_one(xh, row_xh[1])
        check_column(xh, 1)
        if any(w[xh][2:]) or any(row_yh[2:]):
            raise AssertionError("finished handle's rows not clear; input not symplectic?")

    try:
        for h in range(g):
            reduce_first(h)
            reduce_second(h)
            for r in range(2 * h + 2, m):
                del w[r][:2]
    except AssertionError:
        if not is_symplectic(s, g):
            raise NotSymplectic("factor_sp input must be symplectic over the integers") from None
        raise
    return out
