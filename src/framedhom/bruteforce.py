"""Exhaustive mod-2 verification engine for small genus.

An element of Sp(2g, Z/2) is keyed by its packed columns (see mod2) side by
side in one int: column j occupies bits [j*2g, (j+1)*2g); matrix_to_key
reduces an integer matrix mod 2 itself.  The group is one strictly
increasing uint64 array of keys, the closure of a list of transvections:
an element's position in it indexes every per-element table
(Mod2Group.find).  The closure, the theta table, the edge certificates and
the exhaustive kernel count are vectorized with numpy, imported only inside
them; the rest is packed-int arithmetic from mod2.  The closure and the
edge walk take the products with the generators in blocks of about BLOCK,
so memory stays bounded at g=3.  theta on the group is Johnson's closed
form (theta_table); one edge walk (_holds_on_edges) certifies it and the
q-defect qhat.  The kernel count (kernel_order_mod2 "enumerate") and the
form census are the oracles of kernel.structure_report's regime formula;
only verification code loads this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from . import mod2
from .errors import GenusTooLarge, SpecMismatch, TooLarge
from .framing import Framing
from .kernel import structure_report
from .mod2 import sp2_order

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


@dataclass(frozen=True, eq=False)
class Mod2Group:
    """The mod-2 symplectic group as one sorted array of keys.

    keys holds every element once, as a strictly increasing, read-only
    uint64 array; an element's position in it is its index (find).  gens
    are the packed vectors v of the transvections T_v it was closed from.
    """

    g: int
    keys: Any
    gens: list[int]

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def w(self) -> int:
        return 2 * self.g

    def matrix(self, i: int) -> Mat:
        cols = key_columns(int(self.keys[i]), self.w)
        return tuple(tuple((c >> r) & 1 for c in cols) for r in range(self.w))

    def find(self, keys):
        """Position in keys of a key, or an array of them shaped like keys; KeyError outside the group."""
        import numpy as np

        keys = np.asarray(keys, dtype=np.uint64)
        pos, hit = _search(self.keys, keys.ravel())
        if not hit.all():
            raise KeyError("key outside the enumerated group")
        return int(pos[0]) if keys.ndim == 0 else pos.reshape(keys.shape)

    def mul(self, a: int, b: int) -> int:
        """Key of the product AB: its columns are A applied to the columns of B."""
        w = self.w
        cols = key_columns(a, w)
        return sum(mod2.apply(cols, c) << (j * w) for j, c in enumerate(key_columns(b, w)))


def _search(ordered, keys):
    """Positions in the sorted array ordered at which to look for keys, and which hold them.

    The queries are searched in ascending order, which visits nearby parts
    of ordered in turn: about 4x faster at g=3.  They are sorted by one
    sort of key << b | position, b the bits of a position, which is about
    ten times faster than a stable argsort, and four times faster than any
    argsort, of uint64.  The low bits are a permutation in any case, and
    the one that sorts keys below 2^(64 - b), as group keys (at most 36
    bits) are.
    """
    import numpy as np

    b = np.uint64(max(1, (len(keys) - 1).bit_length()))
    packed = keys << b
    packed |= np.arange(len(keys), dtype=np.uint64)
    packed.sort()
    by = (packed & ((np.uint64(1) << b) - np.uint64(1))).view(np.intp)
    pos = np.empty(len(keys), dtype=np.intp)
    pos[by] = np.minimum(np.searchsorted(ordered, keys[by]), len(ordered) - 1)
    return pos, ordered[pos] == keys


def _columns(keys, w: int):
    """Packed columns of every key in the uint64 array keys: row j holds column j, as uint8."""
    import numpy as np

    mask = np.uint64((1 << w) - 1)
    return np.stack([((keys >> np.uint64(j * w)) & mask).astype(np.uint8) for j in range(w)])


def _parities(w: int):
    """parity[u]: the number of set bits of u mod 2, for every packed vector u, as uint8."""
    import numpy as np

    return np.array([u.bit_count() & 1 for u in range(1 << w)], dtype=np.uint8)


# products per block of _product_blocks: about 0.5 MB of uint64
BLOCK = 1 << 16


@lru_cache(maxsize=8)  # keyed by generator list: bounded, as closure takes any list
def _generator_table(gens: tuple[int, ...], w: int):
    """Read-only arrays per T_v, v in gens: v, <., v>, bits of v (k x w x 1), spread of <., v>, key of T_v."""
    import numpy as np

    vs = np.array(gens, dtype=np.uint8)
    duals = np.array([mod2.dual(v, w) for v in gens], dtype=np.uint8)
    picks = (vs[:, None, None] >> np.arange(w, dtype=np.uint8)[:, None]) & 1
    spreads = np.array([_spread(int(d), w) for d in duals], dtype=np.uint64)
    out = vs, duals, picks, spreads, np.uint64(_identity_key(w)) ^ vs.astype(np.uint64) * spreads
    for a in out:  # shared by every caller
        a.flags.writeable = False
    return out


def _product_blocks(keys, gens, w: int):
    """Yield (blk, prods): prods[r] = keys * T_v for v = gens[blk][r], keys a uint64 array.

    S T_v = S + (S v) <., v>: S v is the xor of the columns of S that v
    selects, and the rank-one term is S v times the spread of <., v>.  A
    block holds about BLOCK products and at least one generator, so no
    pass holds more than max(BLOCK, len(keys)) of them.
    """
    import numpy as np

    cols = _columns(keys, w)
    _, _, picks, spreads, _ = _generator_table(tuple(gens), w)
    step = max(1, BLOCK // len(keys))
    for a in range(0, len(gens), step):
        blk = slice(a, a + step)
        prods = np.bitwise_xor.reduce(cols * picks[blk], axis=1).astype(np.uint64)
        prods *= spreads[blk, None]
        prods ^= keys
        yield blk, prods


def closure(gens: list[int], g: int) -> Mod2Group:
    """The subgroup of Sp(2g, 2), g = 2 or 3, that the transvections T_v, v in gens, generate.

    Breadth-first from the identity, a level at a time in blocks of
    products (_product_blocks), each block sorted and its new keys kept.
    The generators are involutions, so a product of level k lies in level
    k - 1, k or k + 1: near, the sorted keys of those levels met so far, is
    all it is searched in and inserted into.  The levels are sorted into
    one array at the end.
    """
    if g not in (2, 3):
        raise GenusTooLarge("exhaustive enumeration supports g = 2 and 3 only")
    import numpy as np

    w = 2 * g
    level = np.array([_identity_key(w)], dtype=np.uint64)
    near = level
    levels = [level]
    while len(level):
        new = []
        for _, prods in _product_blocks(level, gens, w):
            prods = np.sort(prods.ravel())
            fresh = np.empty(len(prods), dtype=bool)
            fresh[0] = True
            np.not_equal(prods[1:], prods[:-1], out=fresh[1:])
            pos = np.searchsorted(near, prods)
            fresh &= near.take(pos, mode="clip") != prods
            near = np.insert(near, pos[fresh], prods[fresh])
            new.append(prods[fresh])
        near = np.sort(np.concatenate([level, *new]))  # levels k and k + 1
        level = np.concatenate(new)
        levels.append(level)
    keys = np.sort(np.concatenate(levels))
    keys.flags.writeable = False
    return Mod2Group(g, keys, list(gens))


def humphries(g: int) -> list[int]:
    """Packed classes of Humphries's 2g+1 generating twists (S. Humphries, 1979).

    The chain x1, y1, x1+x2, y2, ..., x_{g-1}+x_g, y_g, each class meeting
    the next once, then x2, meeting only y2.  The twists generate the
    mapping class group, so their transvections generate Sp(2g, 2).
    """
    chain = [0b01, 0b10]
    for i in range(1, g):
        chain += [0b0101 << (2 * i - 2), 0b10 << (2 * i)]  # x_i + x_{i+1}, y_{i+1}
    return chain + [0b0100]


@lru_cache(maxsize=None)
def enumerate_sp2(g: int) -> Mod2Group:
    """Sp(2g, 2) for g = 2 or 3, as the closure of a list of transvections.

    The lists, measured on a 2-core machine (Python 3.11, numpy 2.4).  g=3:
    Humphries's 7 classes close 1 451 520 elements in 32 levels, 1.0-1.3 s
    and 76 MB peak RSS for the process; all 63 transvections took 10 s, and
    63 product blocks per edge walk.  g=2: all 15 transvections close 720 elements in 6
    levels and 1.1 ms, Humphries's 5 in 16 levels and 1.6 ms (medians of
    400 runs); the closure is 10 of the mod2 benchmark's 39 ops.
    """
    gens = humphries(g) if g == 3 else list(range(1, 1 << 2 * g))
    return closure(gens, g)


# ---------------------------------------------------------------------------
# the crossed homomorphism on the enumerated group


def _letters(vs, f: Framing):
    """The letter value P(v) <., v> of theta at T_v for each packed v in vs, as uint8, P the winding parity."""
    import numpy as np

    w, qphi = 2 * f.spec.g, f.qphi
    return np.array([0 if mod2.quad(qphi, v, w) else mod2.dual(v, w) for v in vs], dtype=np.uint8)


def _holds_on_edges(keys, tables, gens, w: int) -> bool:
    """Whether each of k tables obeys the cocycle rule on every Cayley edge S -> S T_x, x in gens.

    keys is a sorted uint64 array and tables, k x len(keys), a packed
    functional per key (by position in keys) for each table, as uint8.
    The rule is t(S T_x) = T_x^* t(S) + t(T_x), T_x^* f = f + f(x) <., x>
    the pullback, each letter value t(T_x) read from the table.  One search
    per product block serves all k tables; a product or a T_x missing from
    keys fails.

    If the keys are the closure of gens, a table t that obeys the rule is a
    crossed homomorphism.  The edge I -> T_x reads t(T_x) = T_x^* t(I)
    + t(T_x), so t(I) = 0, T_x being invertible.  Then t(AB) = B^* t(A)
    + t(B) by induction on the length of B as a word in gens: at B = I it
    reads t(I) = 0, and for B = C T_x the edges at AC and at C give
    t(A C T_x) = T_x^* t(AC) + t(T_x) = T_x^* (C^* t(A) + t(C)) + t(T_x)
    = B^* t(A) + t(B).
    """
    vs, duals, _, _, tx_keys = _generator_table(tuple(gens), w)
    at_tx, hit = _search(keys, tx_keys)
    if not hit.all():
        return False
    values = tables[:, at_tx]
    parity = _parities(w)
    k = len(tables)
    stacked = tables[:, None, :]
    for blk, prods in _product_blocks(keys, gens, w):
        expected = stacked ^ parity[stacked & vs[blk, None]] * duals[blk, None] ^ values[:, blk, None]
        pos, hit = _search(keys, prods.ravel())
        if not (hit.all() and (tables[:, pos] == expected.reshape(k, -1)).all()):
            return False
        del pos, hit  # a block's worth of positions: freed before the next block is built (13 MB at g=3)
    return True


def theta_table(group: Mod2Group, f: Framing):
    """Packed crossed-homomorphism value on every group element, as a uint8 array by position in keys.

    Johnson's closed form theta(S) = qhat(q_phi, S), the defect
    x -> q_phi(S x) - q_phi(x) (theta.theta with M = 0): bit j is
    q_phi(S b_j) + q_phi(b_j).  One table of q_phi over all 2^w packed
    vectors, one gather per column.  check_theta_edges certifies that the
    table is the crossed homomorphism with letter values P(v) <., v>.
    """
    if f.spec.g != group.g:
        raise SpecMismatch("framing genus does not match the enumerated group")
    import numpy as np

    w, qphi = group.w, f.qphi
    quads = np.array([mod2.quad(qphi, u, w) for u in range(1 << w)], dtype=np.uint8)
    thetas = np.full(len(group), qphi, dtype=np.uint8)  # the q_phi(b_j) bits
    for j, col in enumerate(_columns(group.keys, w)):
        thetas ^= quads[col] << j
    return thetas


def check_theta_edges(group: Mod2Group, f: Framing) -> bool:
    """Certify theta_table as the crossed homomorphism with letter values c_v = P(v) <., v>.

    Three checks on the table t: t(I) = 0; the cocycle rule on every Cayley
    edge S -> S T_x, x in group.gens (_holds_on_edges, a stack of one
    table), which makes t a crossed homomorphism; and t(T_v) = c_v at each
    of the 2^(2g) - 1 transvections.  The first and the last are one
    lookup of every packed v, T_0 = I having c_0 = 0.  Together they give
    t(S T_v) = T_v^* t(S) + t(T_v) = T_v^* t(S) + c_v for every element S
    and every v: the rule on the edges of all transvections, which fixes t
    from t(I) = 0 along any word in them.  The crossed homomorphism passes
    all three, so they certify exactly that.
    """
    w, keys = group.w, group.keys
    table = theta_table(group, f)
    vs = tuple(range(1 << w))
    at, hit = _search(keys, _generator_table(vs, w)[-1])  # the keys of all T_v
    return bool(hit.all() and (table[at] == _letters(vs, f)).all()) and _holds_on_edges(
        keys, table[None], group.gens, w
    )


# ---------------------------------------------------------------------------
# quadratic form census


# largest genus the census serves
CENSUS_MAX_G = 3


@dataclass(frozen=True)
class QFormCensus:
    even_count: int
    odd_count: int
    stabilizer_orders: dict[int, int]  # arf value -> stabilizer order
    per_form: tuple[tuple[int, int, int], ...]  # (packed basis bits, arf, stab)


def _form_orbit(bits: int, w: int) -> set[int]:
    """Orbit of a quadratic form under all mod-2 transvections.

    T_v moves the form b to b + <., v> when b(v) = 0.  b(v) is the parity
    of b & v plus the pairing term c_v = quad(0, v, w), so each call builds
    one table of moves (v, <., v>, c_v) and tests b(v) inline.
    """
    moves = [(v, mod2.dual(v, w), mod2.quad(0, v, w)) for v in range(1, 1 << w)]
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
    order, each orbit found by search (_form_orbit): so the census checks
    that the Arf value classifies the forms, which the regime formula of
    kernel.structure_report assumes.  The g=2 values are independently
    cross-checked against direct counting over the enumerated group in the
    test suite.
    """
    if g > CENSUS_MAX_G:
        raise GenusTooLarge(f"census supports g <= {CENSUS_MAX_G}")
    w = 2 * g
    order = sp2_order(g)
    orbit_cache: dict[int, int] = {}
    per_form = []
    even = odd = 0
    for bits in range(1 << w):
        a = mod2.arf(bits, w)
        if a:
            odd += 1
        else:
            even += 1
        if bits not in orbit_cache:
            orbit = _form_orbit(bits, w)
            size = len(orbit)
            for b in orbit:
                orbit_cache[b] = size
        per_form.append((bits, a, order // orbit_cache[bits]))
    stabs = {a: stab for bits, a, stab in per_form}
    return QFormCensus(even, odd, stabs, tuple(per_form))


def verify_qhat_crossed(g: int = 2) -> bool:
    """Certify the crossed-homomorphism identity of the q-defect on Sp(2g, 2).

    For one even and one odd representative form q, qhat(S) is the defect
    x -> q(S x) - q(x) of q under S, evaluated once per element
    (mod2.qhat).  The identity is qhat(AB) = B^* qhat(A) + qhat(B) for all
    pairs (A, B), B^* the pullback along B.  It is checked on the Cayley
    edges A -> A T_x alone, x in group.gens, both forms in one edge walk
    (_holds_on_edges) over the group's keys; a product or a T_x missing
    from them fails.  The keys are then closed under the generators, which
    are involutions, so they are the whole group, and the rule on every
    edge gives the identity at every pair (A, B) by the induction in
    _holds_on_edges.
    """
    if g != 2:
        raise GenusTooLarge("the q-hat certificate is sized for g = 2")
    import numpy as np

    group = enumerate_sp2(g)
    w = group.w
    cols = [key_columns(key, w) for key in group.keys.tolist()]
    reps = (0b0000, 0b0011)  # arf 0 and arf 1 representatives
    qhats = np.array([[mod2.qhat(rep, c, w) for c in cols] for rep in reps], dtype=np.uint8)
    return _holds_on_edges(group.keys, qhats, group.gens, w)


# ---------------------------------------------------------------------------
# kernel orders


def kernel_order_mod2(f: Framing, method: str) -> int:
    """Exact number of mod-2 pairs (S, M) in the kernel, for g <= 3, n <= 3.

    method "enumerate" counts the pairs with theta(S, M) = 0, i.e.
    S^T <M vbar, .> = theta(S) for the theta table of the framing: the M
    blocks are enumerated literally and binned by their value M vbar, then
    for each value met the condition is tested on every group element at
    once, reading theta(S) for every S; there is no shortcut branch.  It is
    the oracle for "structure", the regime formula of kernel.structure_report
    (its mod2_kernel_order).  Any other method raises ValueError before any
    work.
    """
    if method not in ("enumerate", "structure"):
        raise ValueError(f"unknown method {method!r}; choose from 'enumerate', 'structure'")
    spec = f.spec
    if spec.g > 3 or spec.n > 3:
        raise TooLarge("mod-2 kernel counting is sized for g <= 3, n <= 3")
    if method == "structure":
        return structure_report(f).mod2_kernel_order
    import numpy as np

    g, n = spec.g, spec.n
    w = 2 * g
    mfree = 1 << (w * (n - 1))
    group = enumerate_sp2(g)
    thetas = theta_table(group, f)
    cols = _columns(group.keys, w)
    # rows[b]: packed row b of every S, i.e. the pullback S^T of the basis functional b
    rows = [np.zeros(len(group), dtype=np.uint8) for _ in range(w)]
    for j, c in enumerate(cols):
        for b in range(w):
            rows[b] |= ((c >> b) & 1) << j
    # blocks[v]: number of mod-2 M blocks with M vbar = v
    mkeys = np.arange(mfree)
    mvbar = np.zeros(mfree, dtype=np.intp)
    for t in range(n - 1):
        if spec.kappa[t + 1] & 1:
            mvbar ^= (mkeys >> (t * w)) & ((1 << w) - 1)
    blocks = np.bincount(mvbar, minlength=1 << w)
    # S^T <v, .> is linear in v: walk v in Gray-code order, one xor per step;
    # flipping bit b of v flips bit b ^ 1 of the functional <v, .>
    pulled = np.zeros(len(group), dtype=np.uint8)
    count = int(blocks[0]) * int(np.count_nonzero(thetas == 0))
    for k in range(1, 1 << w):
        b = (k & -k).bit_length() - 1
        pulled ^= rows[b ^ 1]
        v = k ^ (k >> 1)
        if blocks[v]:
            count += int(blocks[v]) * int(np.count_nonzero(pulled == thetas))
    return count
