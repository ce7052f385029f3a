"""Exhaustive mod-2 verification engine for small genus.

An element of Sp(2g, Z/2) is keyed by its packed columns (see mod2) side by
side in one int: column j occupies bits [j*2g, (j+1)*2g); matrix_to_key
reduces an integer matrix mod 2 itself.  The group is one strictly
increasing uint64 array of keys, every symplectic frame enumerated column
by column (enumerate_sp2): an element's position in it indexes every
per-element table (Mod2Group.find), and its columns, unpacked once on
first use (Mod2Group.columns), are shared by the theta table, the edge walk
and the kernel count.  The enumeration, the theta table, the edge
certificates and the exhaustive kernel count are vectorized with numpy,
imported with this module; the rest is packed-int arithmetic from mod2.
The enumeration and the edge walk work in blocks of about BLOCK keys or
products, so memory stays bounded at g=3.  theta on the group is
Johnson's closed form (theta_table), the q-defect of q_phi; one certificate
(check_theta_edges), an edge walk along Humphries's generators that sorts
each row of products against the keys, checks it, and verify_qhat_crossed
runs it on one form of each Arf class.  The kernel count (kernel_order_mod2
"enumerate", one solve per element) and the form census, its orbits walked
along the same generators, are the oracles of kernel.structure_report's
regime formula, up to the sizes kernel.MOD2_MAX_G and MOD2_MAX_N.  Only the
census and kernel-order suites of framedhom.verify load this module, and
with it numpy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any

import numpy as np

from . import mod2
from .errors import SpecMismatch, TooLarge
from .framing import Framing
from .kernel import MOD2_MAX_G, MOD2_MAX_N, check_mod2_genus, mod2_countable, structure_report
from .lattice import SurfaceSpec
from .mod2 import sp2_order
from .value import Value, _set

Mat = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# group keys


def matrix_to_key(mat: Mat) -> int:
    w = len(mat)
    return sum(c << (j * w) for j, c in enumerate(mod2.columns(mat)))


def key_columns(key: int, w: int) -> list[int]:
    mask = (1 << w) - 1
    return [(key >> (j * w)) & mask for j in range(w)]


def _identity_key(w: int) -> int:
    return sum(1 << (j * w + j) for j in range(w))


def _spread(bits: int, w: int) -> int:
    """Key with a 1 at the bottom of column slot j for every bit j of bits.

    Multiplying a packed vector u by it puts a copy of u in each such slot,
    so key ^ (S v) * _spread(<., v>) is the key of S T_v = S + (S v) <., v>.
    """
    return sum(1 << (j * w) for j in range(w) if (bits >> j) & 1)


# ---------------------------------------------------------------------------
# group enumeration


class Mod2Group(Value):
    """The mod-2 symplectic group as one sorted array of keys.

    keys holds every element once, as a strictly increasing, read-only
    uint64 array; an element's position in it is its index (find).  gens
    are the packed vectors v of transvections T_v that generate it, the
    edges the certificates walk (_holds_on_edges).  Two groups compare by
    identity.

    columns is the (w, N) uint8 array _columns(keys, w), row j holding
    column j of every key, read by theta_table, check_theta_edges and
    kernel_order_mod2.  It is built on first use into a slot outside
    _fields, read-only, and kept for the group's life; enumerate_sp2 does
    not build it, so the census, which never reads it, does not spend the
    8.7 MB it takes at g=3.
    """

    __slots__ = ("g", "keys", "gens", "_columns")
    _fields = ("g", "keys", "gens")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    g: int
    keys: Any
    gens: list[int]

    def __init__(self, g: int, keys: Any, gens: list[int]) -> None:
        _set(self, "g", g)
        _set(self, "keys", keys)
        _set(self, "gens", gens)
        _set(self, "_columns", None)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def w(self) -> int:
        return 2 * self.g

    @property
    def columns(self):
        """Packed columns of every key: row j holds column j, as a read-only uint8 array."""
        cols = self._columns
        if cols is None:
            cols = _columns(self.keys, self.w)
            cols.flags.writeable = False
            _set(self, "_columns", cols)
        return cols

    def find(self, keys):
        """Position in keys of a key, or an array of them shaped like keys; KeyError outside the group."""
        keys = np.asarray(keys, dtype=np.uint64)
        pos, hit = _locate(self.keys, keys.ravel())
        if not hit.all():
            raise KeyError("key outside the enumerated group")
        return int(pos[0]) if keys.ndim == 0 else pos.reshape(keys.shape)

    def mul(self, a: int, b: int) -> int:
        """Key of the product AB: its columns are A applied to the columns of B."""
        w = self.w
        cols = key_columns(a, w)
        return sum(mod2.apply(cols, c) << (j * w) for j, c in enumerate(key_columns(b, w)))


def _locate(ordered, keys):
    """Binary-search positions in the sorted array ordered at which to look for keys, and which hold them."""
    pos = np.minimum(np.searchsorted(ordered, keys), len(ordered) - 1)
    return pos, ordered[pos] == keys


def _columns(keys, w: int):
    """Packed columns of every key in the uint64 array keys: row j holds column j, as uint8."""
    mask = np.uint64((1 << w) - 1)
    return np.stack([((keys >> np.uint64(j * w)) & mask).astype(np.uint8) for j in range(w)])


def _parities(w: int):
    """parity[u]: the number of set bits of u mod 2, for every packed vector u, as uint8."""
    return np.array([u.bit_count() & 1 for u in range(1 << w)], dtype=np.uint8)


# new keys per block of enumerate_sp2, products per block of _product_blocks:
# about 0.5 MB of uint64
BLOCK = 1 << 16


@lru_cache(maxsize=8)  # keyed by generator list: bounded, as callers may pass any list
def _generator_table(gens: tuple[int, ...], w: int):
    """Read-only arrays per T_v, v in gens: v, <., v>, bits of v (k x w x 1), spread of <., v>, key of T_v."""
    vs = np.array(gens, dtype=np.uint8)
    duals = np.array([mod2.dual(v, w) for v in gens], dtype=np.uint8)
    picks = (vs[:, None, None] >> np.arange(w, dtype=np.uint8)[:, None]) & 1
    spreads = np.array([_spread(int(d), w) for d in duals], dtype=np.uint64)
    out = vs, duals, picks, spreads, np.uint64(_identity_key(w)) ^ vs.astype(np.uint64) * spreads
    for a in out:  # shared by every caller
        a.flags.writeable = False
    return out


def _product_blocks(keys, cols, gens, w: int):
    """Yield (blk, prods): prods[r] = keys * T_v for v = gens[blk][r], keys a uint64 array.

    S T_v = S + (S v) <., v>: S v is the xor of the columns of S that v
    selects, and the rank-one term is S v times the spread of <., v>.  A
    block holds about BLOCK products and at least one generator, so no
    pass holds more than max(BLOCK, len(keys)) of them.  cols is
    _columns(keys, w).
    """
    _, _, picks, spreads, _ = _generator_table(tuple(gens), w)
    step = max(1, BLOCK // len(keys))
    for a in range(0, len(gens), step):
        blk = slice(a, a + step)
        prods = np.bitwise_xor.reduce(cols * picks[blk], axis=1).astype(np.uint64)
        prods *= spreads[blk, None]
        prods ^= keys
        yield blk, prods


def humphries(g: int) -> list[int]:
    """Packed classes of Humphries's 2g+1 generating twists (S. Humphries, 1979).

    The chain x1, y1, x1+x2, y2, ..., x_{g-1}+x_g, y_g, each class meeting
    the next once, then x2, meeting only y2.  The twists generate the
    mapping class group, so their transvections generate Sp(2g, 2).  Below
    g = 2 there is no x2, so the engine's genera are required.
    """
    check_mod2_genus(g, "Humphries's generating set")
    chain = [0b01, 0b10]
    for i in range(1, g):
        chain += [0b0101 << (2 * i - 2), 0b10 << (2 * i)]  # x_i + x_{i+1}, y_{i+1}
    return chain + [0b0100]


def _set_bits(masks, w: int):
    """(rows, vs): every set bit v of masks[row], rows ascending and each row's v ascending.

    masks is a uint64 array of 2^w-bit masks, 8 <= 2^w <= 64.
    """
    octets = masks.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, : (1 << w) // 8]
    rows, vs = np.nonzero(np.unpackbits(octets, axis=1, bitorder="little"))
    return rows, vs.astype(np.uint64)


@lru_cache(maxsize=None)
def enumerate_sp2(g: int) -> Mod2Group:
    """Sp(2g, 2), 2 <= g <= MOD2_MAX_G, every element as its frame of columns, with Humphries's generators.

    An element is a list of columns c_0 ... c_{w-1} with <c_a, c_b> = 1
    exactly when {a, b} = {x_h, y_h}.  The columns are chosen from the top
    slot (y_g) down, the highest bits of a key: a y slot takes the nonzero
    vectors orthogonal to every column chosen, an x slot the vectors that
    pair to 1 with its y and are orthogonal to the later handles.  Each
    candidate set is one AND of 2^w-bit masks (pair[c], the v with
    <v, c> = 1, or orth[c], its complement), expanded in ascending order
    (_set_bits), so the partial keys stay strictly increasing with no sort.
    Every partial frame extends, and a frame's Gram matrix is J, so the
    keys are the whole group; a count other than sp2_order(g) raises
    AssertionError.  A stage takes its partial keys in blocks of about
    BLOCK children, a partial key for slot j having about 2^(j+1)
    candidates.

    Measured on a 2-core machine (Python 3.11, numpy 2.4): g=2 in
    0.17-0.22 ms (medians of 15), g=3 in 0.35-0.53 s and 67 MB peak RSS for
    the process.  The enumeration is 10 of the mod2 benchmark's 39 ops.
    """
    check_mod2_genus(g, "exhaustive enumeration")
    w = 2 * g
    u = np.arange(1 << w, dtype=np.uint8)
    octets = np.zeros((1 << w, 8), dtype=np.uint8)
    pairs = _parities(w)[mod2.dual(u, w)[:, None] & u]  # pairs[c, v] = <v, c>
    octets[:, : (1 << w) // 8] = np.packbits(pairs, axis=1, bitorder="little")
    pair = octets.view("<u8").ravel().astype(np.uint64)
    every = np.uint64((1 << (1 << w)) - 1)
    orth = pair ^ every
    low = np.uint64((1 << w) - 1)
    keys = np.zeros(1, dtype=np.uint64)
    done = np.array([every], dtype=np.uint64)  # the v orthogonal to every handle chosen
    for j in reversed(range(w)):
        shift = np.uint64(j * w)
        step = max(1, BLOCK >> (j + 1))
        out_keys, out_done = [], []
        for a in range(0, len(keys), step):
            part, seen = keys[a : a + step], done[a : a + step]
            if j & 1:  # a y slot: the handle stays open
                rows, vs = _set_bits(seen & ~np.uint64(1), w)
                out_done.append(seen[rows])
            else:  # an x slot: pair to 1 with its y, then the handle is done
                y = (part >> (shift + np.uint64(w))) & low
                rows, vs = _set_bits(seen & pair[y], w)
                if j:
                    out_done.append(seen[rows] & orth[y[rows]] & orth[vs])
            out_keys.append(part[rows] | vs << shift)
        keys = np.concatenate(out_keys)
        done = np.concatenate(out_done) if j else None
    if len(keys) != sp2_order(g):
        raise AssertionError("frame enumeration did not reach |Sp(2g, 2)|")
    keys.flags.writeable = False
    return Mod2Group(g, keys, humphries(g))


# ---------------------------------------------------------------------------
# the crossed homomorphism on the enumerated group


def _letters(vs, f: Framing):
    """The letter value P(v) <., v> of theta at T_v for each packed v in vs, as uint8, P the winding parity."""
    w, qphi = 2 * f.spec.g, f.qphi
    return np.array([0 if mod2.quad(qphi, v, w) else mod2.dual(v, w) for v in vs], dtype=np.uint8)


def _holds_on_edges(keys, cols, table, gens, w: int) -> bool:
    """Whether table obeys the cocycle rule on every Cayley edge S -> S T_x, x in gens.

    keys is a strictly increasing uint64 array, cols its _columns(keys, w),
    table a packed functional per key (by position), as uint8.  The rule
    is t(S T_x) = T_x^* t(S) + t(T_x), T_x^* f = f + f(x) <., x> the
    pullback, t(T_x) read from the table (a T_x outside keys fails).  Keys
    (at most 36 bits) and products are tagged with their values (at most 6
    bits) as key << 8 | value: a sorted row of tagged products S T_x
    equals the tagged keys iff right multiplication by T_x permutes the
    keys and carries the rule.

    If the gens generate the group the keys hold, a table t that obeys the
    rule is a crossed homomorphism.  The edge I -> T_x reads t(T_x) =
    T_x^* t(I) + t(T_x), so t(I) = 0.  Then t(AB) = B^* t(A) + t(B) by
    induction on the length of B as a word in gens: for B = C T_x the edges
    at AC and at C give t(A C T_x) = T_x^* t(AC) + t(T_x) = T_x^* (C^* t(A)
    + t(C)) + t(T_x) = B^* t(A) + t(B).
    """
    vs, duals, _, _, tx_keys = _generator_table(tuple(gens), w)
    at_tx, hit = _locate(keys, tx_keys)
    if not hit.all():
        return False
    values = table[at_tx]
    parity = _parities(w)
    tagged = keys << np.uint64(8) | table
    for blk, prods in _product_blocks(keys, cols, gens, w):
        prods <<= np.uint64(8)
        prods |= table ^ parity[table & vs[blk, None]] * duals[blk, None] ^ values[blk, None]
        prods.sort(axis=1)
        if not (prods == tagged).all():
            return False
    return True


def theta_table(group: Mod2Group, f: Framing):
    """Packed crossed-homomorphism value on every group element, as a uint8 array by position in keys.

    Johnson's closed form theta(S) = qhat(q_phi, S), the defect
    x -> q_phi(S x) - q_phi(x) (kernel.theta with M = 0): bit j is
    q_phi(S b_j) + q_phi(b_j).  One table of q_phi over all 2^w packed
    vectors, one gather of all the group's columns, shifted to bit j in
    row j and OR-reduced over the rows.  check_theta_edges certifies that
    the table is the crossed homomorphism with letter values P(v) <., v>.
    """
    if f.spec.g != group.g:
        raise SpecMismatch("framing genus does not match the enumerated group")
    w, qphi = group.w, f.qphi
    quads = np.array([mod2.quad(qphi, u, w) for u in range(1 << w)], dtype=np.uint8)
    bits = quads[group.columns]
    bits <<= np.arange(w, dtype=np.uint8)[:, None]
    return np.bitwise_or.reduce(bits, axis=0) ^ np.uint8(qphi)  # the q_phi(b_j) bits


def check_theta_edges(group: Mod2Group, f: Framing) -> bool:
    """Certify theta_table as the crossed homomorphism with letter values c_v = P(v) <., v>.

    Three checks on the table t: t(I) = 0; the cocycle rule on every Cayley
    edge S -> S T_x, x in group.gens (_holds_on_edges), which makes t a
    crossed homomorphism; and t(T_v) = c_v at each of the 2^(2g) - 1
    transvections.  The first and the last are one lookup of every packed
    v, T_0 = I having c_0 = 0.  Together they give
    t(S T_v) = T_v^* t(S) + t(T_v) = T_v^* t(S) + c_v for every element S
    and every v: the rule on the edges of all transvections, which fixes t
    from t(I) = 0 along any word in them.  The crossed homomorphism passes
    all three, so they certify exactly that.
    """
    w, keys = group.w, group.keys
    table = theta_table(group, f)
    vs = tuple(range(1 << w))
    at, hit = _locate(keys, _generator_table(vs, w)[-1])  # the keys of all T_v
    return bool(hit.all() and (table[at] == _letters(vs, f)).all()) and _holds_on_edges(
        keys, group.columns, table, group.gens, w
    )


# ---------------------------------------------------------------------------
# quadratic form census


class QFormCensus(Value):
    __slots__ = _fields = ("even_count", "odd_count", "stabilizer_orders", "per_form")
    even_count: int
    odd_count: int
    stabilizer_orders: dict[int, int]  # arf value -> stabilizer order
    per_form: tuple[tuple[int, int, int], ...]  # (packed basis bits, arf, stab)

    def __init__(
        self,
        even_count: int,
        odd_count: int,
        stabilizer_orders: dict[int, int],
        per_form: tuple[tuple[int, int, int], ...],
    ) -> None:
        _set(self, "even_count", even_count)
        _set(self, "odd_count", odd_count)
        _set(self, "stabilizer_orders", stabilizer_orders)
        _set(self, "per_form", per_form)


def _form_orbit(bits: int, w: int, gens: list[int]) -> set[int]:
    """Orbit of a quadratic form under the group generated by the transvections T_v, v in gens.

    T_v moves the form b to b + <., v> when b(v) = 0.  b(v) is the parity
    of b & v plus the pairing term c_v = quad(0, v, w), so each call builds
    one table of moves (v, <., v>, c_v) and tests b(v) inline.  The group is
    finite, so closing under these moves alone reaches the orbit.
    """
    moves = [(v, mod2.dual(v, w), mod2.quad(0, v, w)) for v in gens]
    seen = {bits}
    frontier = [bits]
    while frontier:
        nxt = []
        for b in frontier:
            for v, dv, cv in moves:
                if not ((b & v).bit_count() + cv) & 1:
                    b2 = b ^ dv
                    if b2 not in seen:
                        seen.add(b2)
                        nxt.append(b2)
        frontier = nxt
    return seen


def qform_census(g: int) -> QFormCensus:
    """Count quadratic refinements by Arf value and compute stabilizer orders.

    Stabilizers come from orbit-stabilizer against the closed-form group
    order, each orbit found by search along the 2g+1 moves of humphries(g)
    (_form_orbit): per_form holds every form's, stabilizer_orders one form's
    per Arf value.  The census suite checks each per_form entry against
    |Sp(2g, 2)| over the count of its Arf value, which holds iff each Arf
    value is one orbit, as the regime formula of kernel.structure_report
    assumes; generators of a smaller group would split an orbit and fail it.
    The g=2 values are cross-checked against direct counting over the
    enumerated group in the test suite.
    """
    check_mod2_genus(g, "census")
    w, gens = 2 * g, humphries(g)
    order = sp2_order(g)
    orbit_cache: dict[int, int] = {}
    per_form = []
    for bits in range(1 << w):
        if bits not in orbit_cache:
            orbit = _form_orbit(bits, w, gens)
            orbit_cache.update(dict.fromkeys(orbit, len(orbit)))
        per_form.append((bits, mod2.arf(bits, w), order // orbit_cache[bits]))
    odd = sum(a for _, a, _ in per_form)
    stabs = {a: stab for bits, a, stab in per_form}
    return QFormCensus((1 << w) - odd, odd, stabs, tuple(per_form))


def verify_qhat_crossed(g: int) -> bool:
    """Certify the crossed-homomorphism identity of the q-defect on Sp(2g, 2).

    The defect of a form q under S is x -> q(S x) - q(x), and the identity
    is qhat(AB) = B^* qhat(A) + qhat(B) for all pairs (A, B), B^* the
    pullback along B.  theta_table is that defect for q = q_phi, so
    check_theta_edges certifies the identity for q_phi, at every pair by
    the induction in _holds_on_edges.  The certificate runs on one framing
    per Arf class, g = 2 and kappa = (2): windings 1 on every class give
    q_phi = 0 (Arf 0), windings 0 on x1, y1 and 1 on x2, y2 give
    q_phi = 0b0011 (Arf 1).
    """
    if g != 2:
        raise TooLarge("the q-hat certificate is sized for g = 2")
    group, spec = enumerate_sp2(g), SurfaceSpec(2, (2,))
    return all(check_theta_edges(group, Framing(spec, wind, wind)) for wind in ((1, 1), (0, 1)))


# ---------------------------------------------------------------------------
# kernel orders


def kernel_order_mod2(f: Framing, method: str) -> int:
    """Exact number of mod-2 pairs (S, M) in the kernel, for g <= MOD2_MAX_G, n <= MOD2_MAX_N.

    method "enumerate" counts the pairs with theta(S, M) = 0, i.e.
    S^T <M vbar, .> = theta(S) for the theta table of the framing: the M
    blocks are enumerated literally and binned by their value M vbar.  As
    S^-T = J S J mod 2, only v_S = S J theta(S) can solve it at S: for every
    S at once, the bin of v_S counts where S^T <v_S, .> equals theta(S), a
    comparison no shortcut skips.  It is the oracle for "structure", the
    regime formula of kernel.structure_report (its mod2_kernel_order).  Any
    other method raises ValueError before any work.
    """
    if method not in ("enumerate", "structure"):
        raise ValueError(f"unknown method {method!r}; choose from 'enumerate', 'structure'")
    spec = f.spec
    if not mod2_countable(spec):
        raise TooLarge(f"mod-2 kernel counting is sized for g <= {MOD2_MAX_G}, n <= {MOD2_MAX_N}")
    if method == "structure":
        return structure_report(f).mod2_kernel_order
    g, n = spec.g, spec.n
    w = 2 * g
    mfree = 1 << (w * (n - 1))
    group = enumerate_sp2(g)
    thetas = theta_table(group, f)
    # blocks[v]: number of mod-2 M blocks with M vbar = v; vbar is read off
    # kappa here, not spec.vbar, which the "structure" side reads
    mkeys = np.arange(mfree)
    mvbar = np.zeros(mfree, dtype=np.intp)
    for t in range(n - 1):
        if spec.kappa[t + 1] & 1:
            mvbar ^= (mkeys >> (t * w)) & ((1 << w) - 1)
    blocks = np.bincount(mvbar, minlength=1 << w)
    cols, bits = group.columns, np.arange(w, dtype=np.uint8)[:, None]
    v = np.bitwise_xor.reduce(cols * (mod2.dual(thetas, w) >> bits & 1), axis=0)
    pulled = np.bitwise_or.reduce(_parities(w)[cols & mod2.dual(v, w)] << bits, axis=0)
    return int(blocks[v][pulled == thetas].sum())
