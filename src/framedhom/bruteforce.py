"""Exhaustive mod-2 verification engine for small genus.

An element of Sp(2g, Z/2) is keyed by its packed columns (see mod2) side by
side in one int: column j occupies bits [j*2g, (j+1)*2g); matrix_to_key
reduces an integer matrix mod 2 itself.  The group is a set of keys, and
its index is those keys sorted as one uint64 array (Mod2Group.find); the
q-hat certificate sorts the keys afresh, so that it checks them and not
the closure's index.  The closure, the theta table, the Cayley-edge
certificates and the exhaustive kernel count are vectorized with numpy,
imported only inside them; everything else, the census's form orbits
included, is packed-int arithmetic from mod2.  The closure works a whole
BFS level at a time, and the closure and the edge certificates see the
products with all generators in blocks of about BLOCK, so memory stays
bounded at g=3.  theta on the group is Johnson's closed form, the defect
qhat(q_phi, S) of the framing's quadratic form (theta_table).  One edge
walk (_holds_on_edges) certifies both crossed homomorphisms, theta with
its letter values and the q-defect qhat: a cocycle rule that holds on
every Cayley edge holds on every pair of group elements.  The kernel count
reads the theta table of every group element for every size it serves; it
never falls back on the structure formula it is compared with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from . import mod2
from .errors import GenusTooLarge, SpecMismatch, TooLarge
from .framing import Framing, spin_form

Mat = tuple[tuple[int, ...], ...]


def sp2_order(g: int) -> int:
    """Order of the symplectic group over Z/2: 2^(g^2) * prod(4^i - 1)."""
    out = 1 << (g * g)
    for i in range(1, g + 1):
        out *= 4**i - 1
    return out


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


@dataclass
class Mod2Group:
    """The mod-2 symplectic group as a set of keys, with its sorted index.

    keys lists every element once, level by level as the closure met them,
    identity first; gens are the packed vectors v of the generators T_v.
    ordered holds the keys sorted as uint64 and order the position in keys
    of each; together they are the group's index (find).
    """

    g: int
    keys: list[int]
    gens: list[int]
    ordered: Any = field(repr=False)
    order: Any = field(repr=False)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def w(self) -> int:
        return 2 * self.g

    def matrix(self, i: int) -> Mat:
        cols = key_columns(self.keys[i], self.w)
        return tuple(tuple((c >> r) & 1 for c in cols) for r in range(self.w))

    def find(self, keys):
        """Position in keys of a key, or an array of them shaped like keys; KeyError outside the group."""
        import numpy as np

        keys = np.asarray(keys, dtype=np.uint64)
        pos, hit = _search(self.ordered, keys.ravel())
        if not hit.all():
            raise KeyError("key outside the enumerated group")
        found = self.order[pos].reshape(keys.shape)
        return int(found) if keys.ndim == 0 else found

    def mul_gen(self, key: int, gi: int) -> int:
        """key * T_{gens[gi]} by the rank-one update."""
        v, w = self.gens[gi], self.w
        return key ^ mod2.apply(key_columns(key, w), v) * _spread(mod2.dual(v, w), w)


def _search(ordered, keys):
    """Positions in the sorted array ordered at which to look for keys, and which hold them."""
    import numpy as np

    by = _sort_order(keys)[1]  # ascending queries search nearby parts of ordered: ~4x faster at g=3
    pos = np.empty(len(keys), dtype=np.intp)
    pos[by] = np.minimum(np.searchsorted(ordered, keys[by]), len(ordered) - 1)
    return pos, ordered[pos] == keys


def _sort_order(keys):
    """keys sorted, and the position in keys of each; equal keys keep their order.

    One sort of key << b | position, b the bits of a position: about ten
    times faster than a stable argsort, and four times faster than any
    argsort, of uint64.  The sorted keys are exact for keys below
    2^(64 - b), as group keys (at most 36 bits) are in every pass here;
    for other keys the positions are still a permutation, which is all
    _search needs.
    """
    import numpy as np

    b = np.uint64(max(1, (len(keys) - 1).bit_length()))
    packed = keys << b
    packed |= np.arange(len(keys), dtype=np.uint64)
    packed.sort()
    pos = (packed & ((np.uint64(1) << b) - np.uint64(1))).view(np.intp)
    packed >>= b
    return packed, pos


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


@lru_cache(maxsize=None)
def _gray(w: int):
    """Generator indices in Gray-code order, the column that S v gains at each step, and each spread <., v>."""
    import numpy as np

    ks = np.arange(1, 1 << w)
    vs = ks ^ (ks >> 1)
    low = np.array([(k & -k).bit_length() - 1 for k in ks.tolist()])
    spreads = np.array([_spread(mod2.dual(v, w), w) for v in vs.tolist()], dtype=np.uint64)
    out = vs - 1, low, spreads
    for a in out:  # shared by every caller
        a.flags.writeable = False
    return out


def _product_blocks(keys, w: int):
    """Yield (gis, prods): prods[r] = keys * T_v for v = gis[r] + 1, keys a uint64 array.

    Every generator appears once, in Gray-code order, so S v changes by one
    column per step: the S v of a block are one running xor over those
    columns.  A block holds about BLOCK products and at least one
    generator, so no pass holds more than max(BLOCK, len(keys)) of them.
    """
    import numpy as np

    cols = _columns(keys, w)
    gis, low, spreads = _gray(w)
    step = max(1, BLOCK // len(keys))
    sv = np.zeros(len(keys), dtype=np.uint8)
    for a in range(0, len(gis), step):
        blk = slice(a, a + step)
        svs = np.bitwise_xor.accumulate(cols[low[blk]], axis=0)
        svs ^= sv
        sv = svs[-1]
        prods = svs.astype(np.uint64)
        prods *= spreads[blk, None]
        prods ^= keys
        yield gis[blk], prods


def _next_level(seen, level, w: int):
    """The BFS level after level, seen the sorted uint64 array of the keys met so far.

    Returns seen grown by the new keys, and the new keys, sorted within
    each block of products.  Per block: one sort, one search that drops
    the repeats and the keys met before, and one sorted insert into seen.
    """
    import numpy as np

    new = []
    for _, prods in _product_blocks(level, w):
        prods = np.sort(prods.ravel())
        fresh = np.empty(len(prods), dtype=bool)
        fresh[0] = True
        np.not_equal(prods[1:], prods[:-1], out=fresh[1:])
        pos = np.searchsorted(seen, prods)
        fresh &= seen.take(pos, mode="clip") != prods
        seen = np.insert(seen, pos[fresh], prods[fresh])
        new.append(prods[fresh])
    return seen, np.concatenate(new)


@lru_cache(maxsize=None)
def enumerate_sp2(g: int) -> Mod2Group:
    """Breadth-first closure of all mod-2 transvections (g = 2 or 3).

    Each BFS level is one pass (_next_level) over blocks of its products
    with every generator, generators in Gray-code order (_product_blocks).
    g=2 (720 elements, six levels) closes in about a millisecond, each
    level one block; g=3 (1 451 520) is opt-in: about 10 s and 135 MB
    peak RSS on a 2-core machine with Python 3.11 and numpy 2.4.
    """
    if g not in (2, 3):
        raise GenusTooLarge("exhaustive enumeration supports g = 2 and 3 only")
    import numpy as np

    w = 2 * g
    level = np.array([_identity_key(w)], dtype=np.uint64)
    seen = level  # every key met so far, sorted
    keys = [level]
    while len(level):
        seen, level = _next_level(seen, level, w)
        keys.append(level)
    keys = np.concatenate(keys)
    order = np.empty(len(keys), dtype=np.intp)
    order[np.searchsorted(seen, keys)] = np.arange(len(keys))  # seen is keys sorted
    return Mod2Group(g, keys.tolist(), list(range(1, 1 << w)), seen, order)


# ---------------------------------------------------------------------------
# the crossed homomorphism on the enumerated group


@lru_cache(maxsize=None)
def _transvections(w: int):
    """Per generator T_v, in the order of Mod2Group.gens, as uint8 arrays: v and <., v>."""
    import numpy as np

    gens = np.arange(1, 1 << w, dtype=np.uint8)
    duals = np.array([mod2.dual(v, w) for v in range(1, 1 << w)], dtype=np.uint8)
    for a in (gens, duals):  # shared by every caller
        a.flags.writeable = False
    return gens, duals


def _letters(group: Mod2Group, f: Framing):
    """The letter value P(v) <., v> of theta on each generator T_v, as uint8, P the winding parity."""
    import numpy as np

    w, qphi = group.w, f.qphi
    return np.array([0 if mod2.quad(qphi, v, w) else mod2.dual(v, w) for v in group.gens], dtype=np.uint8)


def _holds_on_edges(ordered, tables, values, w: int) -> bool:
    """Whether each of k tables obeys the cocycle rule on every Cayley edge S -> S T_v.

    ordered holds keys sorted as uint64; tables, k x len(ordered), a packed
    functional per key (aligned with ordered) for each table, and values,
    k x generators, one letter value per generator and table, as uint8
    arrays.  The rule is table(S T_v) = T_v^* table(S) + values(v): pull
    back along T_v, where T_v^* f = f + f(v) <., v>, then add the letter
    value.  The edges come in the closure's product blocks, one search per
    block for all k tables: at g=2 one search covers every edge.  A product
    missing from ordered fails the rule.
    """
    gens, duals = _transvections(w)
    parity = _parities(w)
    k = len(tables)
    stacked = tables[:, None, :]
    for gis, prods in _product_blocks(ordered, w):
        expected = stacked ^ parity[stacked & gens[gis, None]] * duals[gis, None] ^ values[:, gis, None]
        pos, hit = _search(ordered, prods.ravel())
        if not (hit.all() and (tables[:, pos] == expected.reshape(k, -1)).all()):
            return False
        del pos, hit  # a block's worth of positions: freed before the next block is built (13 MB at g=3)
    return True


def theta_table(group: Mod2Group, f: Framing):
    """Packed crossed-homomorphism value on every group element, as a uint8 array aligned with keys.

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
    for j, col in enumerate(_columns(group.ordered, w)):
        thetas ^= quads[col] << j
    out = np.empty_like(thetas)
    out[group.order] = thetas
    return out


def check_theta_edges(group: Mod2Group, f: Framing) -> bool:
    """Certify theta_table as the crossed homomorphism with letter values P(v) <., v>.

    The cocycle rule theta(S T_v) = T_v^* theta(S) + P(v) <., v> is checked
    on every Cayley edge (_holds_on_edges, a stack of one table), and value
    0 at the identity.  Every element is a word in the generators, so these
    two fix the table: each value is the letter-by-letter value of every
    word for its element, and the rule holding on every edge makes the
    table a crossed homomorphism on the whole group.
    """
    thetas = theta_table(group, f)
    edges = _holds_on_edges(group.ordered, thetas[group.order][None], _letters(group, f)[None], group.w)
    return edges and bool(thetas[0] == 0)


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
    order; the g=2 values are independently cross-checked against direct
    counting over the enumerated group in the test suite.
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
    edges A -> A T_v alone, for every key A and generator T_v, the letter
    value qhat(T_v) read from the table, both forms in one edge walk
    (_holds_on_edges), with every product and every T_v looked up in a
    sorted index of the group's keys; one missing fails the check.  If the
    rule holds on every edge:

    * the keys are closed under the generators and hold T_v T_v = I, so
      they hold every word in the generators: the whole group;
    * the edge I -> T_v reads qhat(T_v) = T_v^* qhat(I) + qhat(T_v), so
      qhat(I) = 0, T_v being invertible;
    * the identity holds at every pair (A, B), by induction on the word
      length of B: at B = I it reads qhat(A) = qhat(A) + qhat(I), and for
      B = C T_v the edges at AC and at C give qhat(A C T_v)
      = T_v^* qhat(AC) + qhat(T_v) = T_v^* (C^* qhat(A) + qhat(C)) + qhat(T_v)
      = B^* qhat(A) + qhat(B).
    """
    if g != 2:
        raise GenusTooLarge("the q-hat certificate is sized for g = 2")
    import numpy as np

    group = enumerate_sp2(g)
    w = group.w
    ordered, by = _sort_order(np.array(group.keys, dtype=np.uint64))
    ident = _identity_key(w)
    tvs = np.array([group.mul_gen(ident, gi) for gi in range(len(group.gens))], dtype=np.uint64)
    at_tv, hit = _search(ordered, tvs)
    if not hit.all():
        return False
    cols = [key_columns(key, w) for key in group.keys]
    reps = (0b0000, 0b0011)  # arf 0 and arf 1 representatives
    qhats = np.array([[mod2.qhat(rep, c, w) for c in cols] for rep in reps], dtype=np.uint8)
    qhats = qhats[:, by]  # one row per form, aligned with ordered
    return _holds_on_edges(ordered, qhats, qhats[:, at_tv], w)


# ---------------------------------------------------------------------------
# kernel orders


def kernel_order_mod2(f: Framing, method: str = "auto") -> int:
    """Exact number of mod-2 pairs (S, M) in the kernel, for g <= 3, n <= 3.

    method "enumerate" counts the pairs with theta(S, M) = 0, i.e.
    S^T <M vbar, .> = theta(S) for the theta table of the framing: the M
    blocks are enumerated literally and binned by their value M vbar, then
    for each value met the condition is tested on every group element at
    once, reading theta(S) for every S; there is no shortcut branch.
    "structure" uses the regime decomposition: spin stabilizer times a free
    M block when every kappa is even, full group times the M solution count
    otherwise.  "auto" enumerates for g = 2 and uses the structure count for
    g = 3.  Any other method raises ValueError before any work.
    """
    if method not in ("auto", "enumerate", "structure"):
        raise ValueError(f"unknown method {method!r}; choose from 'auto', 'enumerate', 'structure'")
    spec = f.spec
    if spec.g > 3 or spec.n > 3:
        raise TooLarge("mod-2 kernel counting is sized for g <= 3, n <= 3")
    if method == "auto":
        method = "enumerate" if spec.g <= 2 else "structure"
    even = all(k % 2 == 0 for k in spec.kappa)
    g, n = spec.g, spec.n
    w = 2 * g
    mfree = 1 << (w * (n - 1))

    if method == "structure":
        if even:
            stab = sp2_order(g) // len(_form_orbit(spin_form(f).packed, w))
            return stab * mfree
        # odd regime: every symplectic part admits exactly this many M blocks
        return sp2_order(g) * (1 << (w * (n - 2)))

    import numpy as np

    group = enumerate_sp2(g)
    # aligned with group.ordered
    thetas = theta_table(group, f)[group.order]
    cols = _columns(group.ordered, w)
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
