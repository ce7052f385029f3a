"""Exhaustive mod-2 verification engine for small genus.

An element of Sp(2g, Z/2) is keyed by its packed columns (see mod2) side by
side in one int: column j occupies bits [j*2g, (j+1)*2g); matrix_to_key
reduces an integer matrix mod 2 itself.  The group's only index is its keys
sorted as one uint64 array (Mod2Group.find).  The closure, the Cayley-edge
certificate, the exhaustive kernel count and the all-pairs sweep are
vectorized with numpy, imported only inside them; everything else is
packed-int arithmetic from mod2.  The kernel count reads the theta table of
every group element for every size it serves; it never falls back on the
structure formula it is compared with.
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
    """BFS closure of the mod-2 transvections, with a factorization tree.

    keys are in discovery order (identity first); parent/gen_of record, for
    each element, the earlier element and right-multiplied generator that
    produced it, so every element carries an implicit transvection word.
    ordered holds the keys sorted as uint64 and order the discovery index
    of each; together they are the group's index (find).
    """

    g: int
    keys: list[int]
    parent: list[int]
    gen_of: list[int]
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
        """Discovery index of a key, or an array of them shaped like keys; KeyError outside the group."""
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

    by = np.argsort(keys)  # ascending queries search nearby parts of ordered: ~4x faster at g=3
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


def _right_products(keys, w: int):
    """Yield (gi, keys * T_v) for every generator v = gi + 1, keys a uint64 array.

    Generators come in Gray-code order, so S v changes by one column per
    step and each product is one multiply and one xor per element.
    """
    import numpy as np

    cols = _columns(keys, w)
    sv = np.zeros(len(keys), dtype=np.uint64)
    for k in range(1, 1 << w):
        sv ^= cols[(k & -k).bit_length() - 1]
        v = k ^ (k >> 1)
        yield v - 1, keys ^ (sv * np.uint64(_spread(mod2.dual(v, w), w)))


@lru_cache(maxsize=None)
def enumerate_sp2(g: int) -> Mod2Group:
    """Breadth-first closure of all mod-2 transvections (g = 2 or 3).

    A product is new unless the sorted array of keys met so far holds it;
    the first occurrence wins.  g=2 (720 elements) closes in
    milliseconds; g=3 (1 451 520) is opt-in: 13 s and 263 MB peak RSS on a
    2-core machine with Python 3.11 and numpy 2.4.
    """
    if g not in (2, 3):
        raise GenusTooLarge("exhaustive enumeration supports g = 2 and 3 only")
    import numpy as np

    w = 2 * g
    level = np.array([sum(1 << (j * w + j) for j in range(w))], dtype=np.uint64)
    seen = level  # every key met so far, sorted
    keys, parent, gen_of = [level], [np.array([-1])], [np.array([-1])]
    start = 0  # discovery index of the level's first element
    while len(level):
        new, src, gen = [], [], []
        for gi, prod in _right_products(level, w):
            fresh = np.nonzero(~_search(seen, prod)[1])[0]
            new.append(prod[fresh])
            met = np.sort(new[-1])
            seen = np.insert(seen, np.searchsorted(seen, met), met)
            src.append(fresh + start)
            gen.append(np.full(len(fresh), gi))
        start += len(level)
        level = np.concatenate(new)
        keys.append(level)
        parent.append(np.concatenate(src))
        gen_of.append(np.concatenate(gen))

    arr = np.concatenate(keys)
    order = np.argsort(arr)
    return Mod2Group(
        g, arr.tolist(), np.concatenate(parent).tolist(), np.concatenate(gen_of).tolist(),
        list(range(1, 1 << w)), arr[order], order,
    )


# ---------------------------------------------------------------------------
# the crossed homomorphism on the enumerated group


def _letter_values(group: Mod2Group, f: Framing) -> list[int]:
    """Packed value P(v) <., v> of every generator T_v, P the winding parity."""
    w, qphi = group.w, f.qphi
    return [0 if mod2.quad(qphi, v, w) else mod2.dual(v, w) for v in group.gens]


def theta_table(group: Mod2Group, f: Framing) -> list[int]:
    """Packed crossed-homomorphism value on every group element.

    Values are accumulated along the BFS tree with the cocycle rule; the
    letter value of T_v is P(v) <., v> for the winding parity P of the
    framing.  Path-independence is checked separately (check_theta_edges).
    """
    if f.spec.g != group.g:
        raise SpecMismatch("framing genus does not match the enumerated group")
    w = group.w
    values = _letter_values(group, f)
    thetas = [0] * len(group)
    for idx in range(1, len(group)):
        gi = group.gen_of[idx]
        th = mod2.pull_transvection(thetas[group.parent[idx]], group.gens[gi], w)
        thetas[idx] = th ^ values[gi]
    return thetas


def check_theta_edges(group: Mod2Group, f: Framing) -> bool:
    """Verify the cocycle rule on every Cayley edge, not just the BFS tree.

    Together with value 0 at the identity this certifies that the table is a
    well-defined crossed homomorphism on the whole group.
    """
    import numpy as np

    thetas = theta_table(group, f)
    w = group.w
    values = _letter_values(group, f)
    th = np.array(thetas, dtype=np.int64)
    parity = _parities(w)
    for gi, prods in _right_products(np.array(group.keys, dtype=np.uint64), w):
        v = group.gens[gi]
        # pullback along T_v, then the letter value: the cocycle rule on edge S -> S T_v
        expected = th ^ parity[th & v] * mod2.dual(v, w) ^ values[gi]
        if not np.array_equal(th[group.find(prods)], expected):
            return False
    return thetas[0] == 0


# ---------------------------------------------------------------------------
# quadratic form census


@dataclass(frozen=True)
class QFormCensus:
    even_count: int
    odd_count: int
    stabilizer_orders: dict[int, int]  # arf value -> stabilizer order
    per_form: tuple[tuple[int, int, int], ...]  # (packed basis bits, arf, stab)


def _form_orbit(bits: int, w: int) -> set[int]:
    """Orbit of a quadratic form under all mod-2 transvections."""
    seen = {bits}
    frontier = [bits]
    while frontier:
        nxt = []
        for b in frontier:
            for v in range(1, 1 << w):
                if mod2.quad(b, v, w) == 0:
                    b2 = b ^ mod2.dual(v, w)
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
    if g > 3:
        raise GenusTooLarge("census supports g <= 3")
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
    """Exhaustively check the crossed-homomorphism identity of the q-defect.

    For one even and one odd representative form, over all |Sp(2g,2)|^2
    pairs: qhat(AB) = pullback(B) qhat(A) + qhat(B).  qhat is evaluated
    once per element (mod2.qhat); the pairs are checked in blocks of rows A
    against every B, each product AB looked up in a table indexed by its
    16-bit key.  A product outside the group fails the check.
    """
    if g != 2:
        raise GenusTooLarge("the all-pairs sweep is sized for g = 2")
    import numpy as np

    group = enumerate_sp2(g)
    w, size = group.w, len(group)
    keys = np.array(group.keys, dtype=np.uint64)
    cols = _columns(keys, w)
    parity = _parities(w)
    vecs = np.arange(1 << w, dtype=np.uint8)
    # pull[b, p]: pullback along B of the functional p; image[a, u] = A u
    pull = np.zeros((size, 1 << w), dtype=np.uint8)
    image = np.zeros((size, 1 << w), dtype=np.uint16)
    for j, c in enumerate(cols):
        pull |= parity[c[:, None] & vecs] << j
        image ^= c[:, None] * ((vecs >> j) & 1)
    index = np.full(1 << (w * w), -1, dtype=np.int16)
    index[keys] = np.arange(size)
    # arf 0 and arf 1 representatives
    qhats = [
        np.array([mod2.qhat(rep, key_columns(key, w), w) for key in group.keys], dtype=np.uint8)
        for rep in (0b0000, 0b0011)
    ]
    for start in range(0, size, 60):
        block = slice(start, start + 60)  # rows A of this block, against every B
        rows = image[block]
        # column j of AB is A applied to column j of B
        ab = np.zeros((len(rows), size), dtype=np.uint16)
        for j, c in enumerate(cols):
            ab |= rows[:, c] << (j * w)
        ab = index[ab]
        if (ab < 0).any():
            return False
        for qhat in qhats:
            if not np.array_equal(qhat[ab], pull[:, qhat[block]].T ^ qhat):
                return False
    return True


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
    g = 3.
    """
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
    thetas = np.array(theta_table(group, f), dtype=np.uint8)[group.order]
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
