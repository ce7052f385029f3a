import random

import numpy as np
import pytest

from framedhom import bruteforce as bf
from framedhom import mod2
from framedhom.errors import TooLarge
from framedhom.framing import Framing
from framedhom.kernel import structure_report, theta
from framedhom.lattice import SurfaceSpec, sympl
from framedhom.paut import PAutElem, mat_mul, zero_mat
from framedhom.sampling import random_framing, random_paut, random_spec


def _transvection_key(v, w):
    """Key of T_v mod 2: column j is b_j + <b_j, v> v."""
    return sum(((1 << j) ^ (v if (mod2.dual(v, w) >> j) & 1 else 0)) << (j * w) for j in range(w))


def _matrix(group, i):
    """Element i of group as a 0/1 matrix, read off its packed columns."""
    cols = bf.key_columns(int(group.keys[i]), group.w)
    return tuple(tuple((c >> r) & 1 for c in cols) for r in range(group.w))


def test_group_order_and_identity():
    group = bf.enumerate_sp2(2)
    assert len(group) == 720 == bf.sp2_order(2)
    ident = _matrix(group, group.find(bf._identity_key(4)))
    assert ident == tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    with pytest.raises(TooLarge):
        bf.enumerate_sp2(4)


@pytest.mark.parametrize("g", [0, 1])
def test_engine_refuses_genus_below_two(g):
    # below g = 2 there is no x2 for Humphries's last class, and no census to take
    for fn in (bf.humphries, bf.qform_census, bf.enumerate_sp2):
        with pytest.raises(TooLarge, match=r"g >= 2"):
            fn(g)


def test_group_closed_under_sampled_products():
    group = bf.enumerate_sp2(2)
    rng = random.Random(0)
    for _ in range(300):
        key = int(group.keys[rng.randrange(len(group))])
        prod = group.mul(key, _transvection_key(rng.choice(group.gens), group.w))
        assert group.keys[group.find(prod)] == prod


def test_mul_is_the_matrix_product():
    group = bf.enumerate_sp2(2)
    rng = random.Random(6)
    for _ in range(100):
        a, b = rng.randrange(len(group)), rng.randrange(len(group))
        expected = bf.matrix_to_key(mat_mul(_matrix(group, a), _matrix(group, b)))
        assert group.mul(int(group.keys[a]), int(group.keys[b])) == expected


def test_group_closed_under_inverse():
    from framedhom.paut import sp_inverse

    group = bf.enumerate_sp2(2)
    rng = random.Random(4)
    for _ in range(100):
        mat = _matrix(group, rng.randrange(len(group)))
        inv = bf.matrix_to_key(sp_inverse(mat, 2))
        assert group.keys[group.find(inv)] == inv


def _closure_by_ints(gens, g):
    """BFS closure of the T_v, v in gens, in packed ints, no numpy: keys, parent, gen_of, level starts.

    Each level takes the generators in list order and, for each, the
    level's elements in order; a product not met before is new, and its
    parent and generator index make a tree that reaches every key from the
    identity.
    """
    w = 2 * g
    ident = sum(1 << (j * w + j) for j in range(w))
    keys, parent, gen_of, levels = [ident], [-1], [-1], [0]
    index = {ident: 0}
    while levels[-1] < len(keys):
        start, end = levels[-1], len(keys)
        for gi, v in enumerate(gens):
            spread = bf._spread(mod2.dual(v, w), w)
            for i in range(start, end):
                prod = keys[i] ^ mod2.apply(bf.key_columns(keys[i], w), v) * spread
                if prod not in index:
                    index[prod] = len(keys)
                    keys.append(prod)
                    parent.append(i)
                    gen_of.append(gi)
        levels.append(end)
    return keys, parent, gen_of, levels


def test_closure_matches_pure_int_bfs():
    group = bf.enumerate_sp2(2)
    keys, _, _, _ = _closure_by_ints(range(1, 16), 2)  # all 15 transvections
    assert len(keys) == len(set(keys)) == 720
    # the same key set, sorted
    assert group.keys.dtype == np.uint64 and group.keys.tolist() == sorted(keys)
    assert not group.keys.flags.writeable
    assert [int(group.keys[group.find(key)]) for key in keys] == keys


def test_humphries_classes_close_the_same_group():
    group = bf.enumerate_sp2(2)
    # x1, y1, x1+x2, y2, x2
    assert group.gens == bf.humphries(2) == [0b0001, 0b0010, 0b0101, 0b1000, 0b0100]
    # 16 levels in the pure-int BFS over Humphries's generators, the same key set
    keys, _, _, levels = _closure_by_ints(group.gens, 2)
    assert len(levels) == 17
    assert group.keys.tolist() == sorted(keys)
    assert bf.enumerate_sp2(3).gens == bf.humphries(3)
    assert bf.humphries(3) == [0b000001, 0b000010, 0b000101, 0b001000, 0b010100, 0b100000, 0b000100]


def test_frames_are_symplectic():
    group = bf.enumerate_sp2(2)
    assert all(mod2.is_symplectic(bf.key_columns(key, 4), 4) for key in group.keys.tolist())
    keys = bf.enumerate_sp2(3).keys
    rng = random.Random(47)
    sample = [int(keys[rng.randrange(len(keys))]) for _ in range(2000)]
    assert all(mod2.is_symplectic(bf.key_columns(key, 6), 6) for key in sample)


def test_enumeration_asserts_its_count(monkeypatch):
    monkeypatch.setattr(bf, "sp2_order", lambda g: 719)
    with pytest.raises(AssertionError):
        bf.enumerate_sp2.__wrapped__(2)  # past the cache


def test_passes_run_in_blocks_of_block_keys(monkeypatch):
    # a smaller BLOCK gives the same keys and products in more, smaller
    # passes: at g = 2 each enumeration stage and the Humphries products of
    # the whole group fit one block each
    calls = []
    set_bits = bf._set_bits
    monkeypatch.setattr(bf, "_set_bits", lambda masks, w: calls.append(len(masks)) or set_bits(masks, w))
    group = bf.enumerate_sp2.__wrapped__(2)  # bypasses the cache, so the stages run
    assert len(group) == 720 and len(calls) == 4  # one pass per column slot
    assert len(list(bf._product_blocks(group.keys, group.gens, 4))) == 1
    # at g = 3 a block of BLOCK products holds less than one generator's
    # 1 451 520, so each of the 7 generators gets a block of its own
    keys = bf.enumerate_sp2(3).keys
    blocks = [(blk.start, blk.stop) for blk, _ in bf._product_blocks(keys, bf.humphries(3), 6)]
    assert blocks == [(r, r + 1) for r in range(7)]


def test_find_positions_and_outsiders():
    group = bf.enumerate_sp2(2)
    assert group.find(group.keys[5]) == 5
    assert group.find(group.keys[::-1]).tolist() == list(range(len(group)))[::-1]
    with pytest.raises(KeyError):
        group.find(0)  # the zero matrix
    with pytest.raises(KeyError):
        group.find([group.keys[0], 0])


def test_find_keeps_the_query_shape():
    group = bf.enumerate_sp2(2)
    keys = group.keys
    ident = group.find(bf._identity_key(4))
    # a block of products A B, one row per A
    rows = [[bf.matrix_to_key(mat_mul(_matrix(group, a), _matrix(group, b))) for b in range(0, 720, 9)]
            for a in (ident, 3, 500)]
    found = group.find(rows)
    assert found.shape == (3, 80)
    assert (keys[found] == np.array(rows, dtype=np.uint64)).all()
    assert found[0].tolist() == list(range(0, 720, 9))  # the identity row
    one = group.find(keys[[42]])
    assert one.shape == (1,) and one.tolist() == [42]


def test_packed_matrix_roundtrip():
    group = bf.enumerate_sp2(2)
    for i in (0, 1, 100, 719):
        assert group.find(bf.matrix_to_key(_matrix(group, i))) == i


def test_census_counts():
    c = bf.qform_census(2)
    assert (c.even_count, c.odd_count) == (10, 6)
    assert c.stabilizer_orders == {0: 72, 1: 120}
    c3 = bf.qform_census(3)
    assert (c3.even_count, c3.odd_count) == (36, 28)
    assert c3.stabilizer_orders == {0: 1451520 // 36, 1: 1451520 // 28}


def _form_orbit_by_quad(bits, w):
    """Orbit of a form by BFS, b(v) evaluated by mod2.quad for every move."""
    seen, frontier = {bits}, [bits]
    while frontier:
        nxt = []
        for b in frontier:
            for v in range(1, 1 << w):
                b2 = b ^ mod2.dual(v, w)
                if mod2.quad(b, v, w) == 0 and b2 not in seen:
                    seen.add(b2)
                    nxt.append(b2)
        frontier = nxt
    return seen


def test_form_orbit_matches_bfs_by_quad():
    # Humphries's 2g+1 moves against all 2^(2g) - 1 transvections
    for w in (4, 6):
        for bits in range(1 << w):
            assert bf._form_orbit(bits, w, bf.humphries(w // 2)) == _form_orbit_by_quad(bits, w)


def test_census_stabilizers_against_direct_count():
    # orbit-stabilizer values must equal literal stabilizer counting
    group = bf.enumerate_sp2(2)
    w = 4
    for bits, a, stab in bf.qform_census(2).per_form:
        direct = 0
        for key in group.keys.tolist():
            cols = bf.key_columns(key, w)
            same = all(
                mod2.quad(bits, cols[j], w) == mod2.quad(bits, 1 << j, w)
                for j in range(w)
            )
            direct += same
        assert direct == stab


def _quad_by_definition(qbits, coords):
    """q(sum c_j b_j) = sum c_j q(b_j) + sum_{i<j} c_i c_j <b_i, b_j>, pairing via sympl."""
    w = len(coords)
    units = [tuple(int(i == j) for i in range(w)) for j in range(w)]
    total = sum(c * q for c, q in zip(coords, qbits))
    for i in range(w):
        for j in range(i + 1, w):
            total += coords[i] * coords[j] * sympl(units[i], units[j])
    return total % 2


def test_quad_packed_matches_defining_formula():
    for w in (4, 6):
        for q in range(1 << w):
            qbits = mod2.unpack(q, w)
            for v in range(1 << w):
                assert mod2.quad(q, v, w) == _quad_by_definition(qbits, mod2.unpack(v, w))


def test_qhat_matches_quad():
    # bit j of the defect is q(S b_j) - q(b_j)
    rng = random.Random(11)
    for w in (4, 6, 10):
        for _ in range(200):
            q = rng.randrange(1 << w)
            cols = [rng.randrange(1 << w) for _ in range(w)]
            expected = [mod2.quad(q, c, w) ^ mod2.quad(q, 1 << j, w) for j, c in enumerate(cols)]
            assert mod2.unpack(mod2.qhat(q, cols, w), w) == tuple(expected)


def test_arf_matches_zero_count():
    # Arf 0 exactly when q has 2^(g-1) (2^g + 1) zeros, otherwise 2^(g-1) (2^g - 1)
    for g in (2, 3):
        w = 2 * g
        even_zeros = 2 ** (g - 1) * (2**g + 1)
        for q in range(1 << w):
            qbits = mod2.unpack(q, w)
            zeros = sum(_quad_by_definition(qbits, mod2.unpack(v, w)) == 0 for v in range(1 << w))
            assert zeros in (even_zeros, 2 ** (g - 1) * (2**g - 1))
            assert mod2.arf(q, w) == (zeros != even_zeros)


def test_verify_qhat_crossed():
    assert bf.verify_qhat_crossed(2)


def test_verify_qhat_crossed_catches_one_wrong_value(monkeypatch):
    # one entry of one representative form's table, for each of the two forms
    for rep in (0b0000, 0b0011):
        with monkeypatch.context() as m:
            _flip_theta_at(m, 100, 1, qphi=rep)
            assert not bf.verify_qhat_crossed(2), rep


def test_verify_qhat_crossed_rejects_products_outside_the_group(monkeypatch):
    group = bf.enumerate_sp2(2)
    # the last element swapped for the zero matrix: its products with the rest fall outside
    keys = np.concatenate(([0], group.keys[:-1])).astype(np.uint64)
    broken = bf.Mod2Group(group.g, keys, group.gens)
    assert (broken.keys[1:] > broken.keys[:-1]).all()
    monkeypatch.setattr(bf, "enumerate_sp2", lambda g: broken)
    assert not bf.verify_qhat_crossed(2)


def _qhat_crossed_all_pairs():
    """Reference for verify_qhat_crossed: qhat(AB) = B^* qhat(A) + qhat(B) on all 720^2 pairs.

    The pairs are checked in blocks of rows A against every B, each product
    AB looked up in a table indexed by its 16-bit key; a product outside
    the group fails the check.
    """
    group = bf.enumerate_sp2(2)
    w, size = group.w, len(group)
    keys = group.keys
    cols = bf._columns(keys, w)
    parity = bf._parities(w)
    vecs = np.arange(1 << w, dtype=np.uint8)
    # pull[b, p]: pullback along B of the functional p; image[a, u] = A u
    pull = np.zeros((size, 1 << w), dtype=np.uint8)
    image = np.zeros((size, 1 << w), dtype=np.uint16)
    for j, c in enumerate(cols):
        pull |= parity[c[:, None] & vecs] << j
        image ^= c[:, None] * ((vecs >> j) & 1)
    index = np.full(1 << (w * w), -1, dtype=np.int16)
    index[keys] = np.arange(size)
    qhats = [
        np.array([mod2.qhat(rep, bf.key_columns(key, w), w) for key in keys.tolist()], dtype=np.uint8)
        for rep in (0b0000, 0b0011)
    ]
    for start in range(0, size, 60):
        block = slice(start, start + 60)
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


def test_qhat_certificate_agrees_with_all_pairs():
    assert _qhat_crossed_all_pairs() and bf.verify_qhat_crossed(2)


def test_qhat_certificate_and_all_pairs_catch_every_flip(monkeypatch):
    # the certificate reads theta_table, the all-pairs reference mod2.qhat:
    # the same entry is flipped in both
    group = bf.enumerate_sp2(2)
    rng = random.Random(29)
    # the identity, a transvection, then 18 random elements
    ident = group.find(bf._identity_key(group.w))
    transvection = group.find(_transvection_key(group.gens[0], group.w))
    targets = [ident, transvection] + [rng.randrange(len(group)) for _ in range(18)]
    true_qhat = mod2.qhat
    for idx in targets:
        wrong = bf.key_columns(int(group.keys[idx]), group.w)
        rep, bit = rng.choice((0b0000, 0b0011)), 1 << rng.randrange(group.w)

        def flipped(q, cols, w):
            return true_qhat(q, cols, w) ^ (bit if q == rep and list(cols) == wrong else 0)

        with monkeypatch.context() as m:
            _flip_theta_at(m, idx, bit, qphi=rep)
            m.setattr(mod2, "qhat", flipped)
            assert not bf.verify_qhat_crossed(2), (idx, rep, bit)
            assert not _qhat_crossed_all_pairs(), (idx, rep, bit)


def _framing_with_form(q: int) -> Framing:
    """A g=2, kappa=(2) framing whose q_phi is the packed form q: winding parity 1 - q(b)."""
    wind_x, wind_y = [tuple(1 - ((q >> (2 * i + o)) & 1) for i in range(2)) for o in (0, 1)]
    f = Framing(SurfaceSpec(2, (2,)), wind_x, wind_y)
    assert f.qphi == q
    return f


def _forms_where_qhat_differs_from_the_theta_table():
    """The g=2 forms q at which mod2.qhat and theta_table disagree at some element."""
    group = bf.enumerate_sp2(2)
    cols = [bf.key_columns(key, group.w) for key in group.keys.tolist()]
    return [
        q for q in range(1 << group.w)
        if bf.theta_table(group, _framing_with_form(q)).tolist() != [mod2.qhat(q, c, group.w) for c in cols]
    ]


def test_qhat_matches_the_theta_table_everywhere():
    # the scalar defect against the vectorized table at all 720 elements, for all 16 forms
    assert _forms_where_qhat_differs_from_the_theta_table() == []


def test_qhat_equality_catches_a_flipped_qhat(monkeypatch):
    true_qhat = mod2.qhat
    wrong = bf.key_columns(int(bf.enumerate_sp2(2).keys[100]), 4)

    def flipped(q, cols, w):
        return true_qhat(q, cols, w) ^ (1 if q == 0b0011 and list(cols) == wrong else 0)

    monkeypatch.setattr(mod2, "qhat", flipped)
    assert _forms_where_qhat_differs_from_the_theta_table() == [0b0011]


def test_edge_walk_fails_on_a_product_outside_the_keys():
    group = bf.enumerate_sp2(2)
    zeros = np.zeros(len(group), dtype=np.uint8)
    # the zero table obeys the rule on every edge, so only the lookup can fail
    assert bf._holds_on_edges(group.keys, zeros, group.gens, group.w)
    assert not bf._holds_on_edges(group.keys[:-1], zeros[:-1], group.gens, group.w)


def test_edge_walk_fails_on_a_product_row_that_repeats_a_key(monkeypatch):
    # every product is a key and the zero table gives every one the value the
    # rule expects, so only the check that T_x permutes the keys can fail
    group = bf.enumerate_sp2(2)
    zeros = np.zeros(len(group), dtype=np.uint8)
    true_blocks = bf._product_blocks

    def repeating(keys, gens, w):
        for blk, prods in true_blocks(keys, gens, w):
            prods[0, 1] = prods[0, 0]  # one key twice, another never
            yield blk, prods

    monkeypatch.setattr(bf, "_product_blocks", repeating)
    assert not bf._holds_on_edges(group.keys, zeros, group.gens, group.w)


def test_theta_edges_consistent():
    group = bf.enumerate_sp2(2)
    rng = random.Random(1)
    for _ in range(4):
        spec = random_spec(rng, 2, rng.choice([1, 2, 3]))
        f = random_framing(rng, spec)
        assert bf.check_theta_edges(group, f)


def _theta_by_tree(closure, gens, f):
    """theta on every key of a _closure_by_ints tree over gens, by key, one letter at a time.

    The cocycle rule theta(S T_v) = T_v^* theta(S) + P(v) <., v> along the
    tree, from value 0 at the identity.
    """
    keys, parent, gen_of, _ = closure
    w, qphi = 2 * f.spec.g, f.qphi
    thetas = [0] * len(keys)
    for idx in range(1, len(keys)):
        v = gens[gen_of[idx]]
        th = mod2.pull_transvection(thetas[parent[idx]], v, w)
        thetas[idx] = th if mod2.quad(qphi, v, w) else th ^ mod2.dual(v, w)
    return dict(zip(keys, thetas))


@pytest.mark.parametrize("kappa", [(2,), (2, 0), (1, 1), (2, 0, 0), (1, 2, -1)])
def test_theta_table_matches_per_element_recurrence(kappa):
    group = bf.enumerate_sp2(2)
    closure = _closure_by_ints(group.gens, 2)
    rng = random.Random(sum(kappa) * 31 + len(kappa))
    for _ in range(4):
        f = random_framing(rng, SurfaceSpec(2, kappa))
        table = bf.theta_table(group, f).tolist()
        assert dict(zip(group.keys.tolist(), table)) == _theta_by_tree(closure, group.gens, f)


def _flip_theta_at(monkeypatch, idx, bit, qphi=None):
    """Flip bit of theta_table's entry idx, for every framing or only those with this q_phi."""
    true_table = bf.theta_table

    def flipped(group, framing):
        table = true_table(group, framing)
        if qphi is None or framing.qphi == qphi:
            table[idx] ^= bit
        return table

    monkeypatch.setattr(bf, "theta_table", flipped)


def test_theta_edges_catch_one_wrong_value(monkeypatch):
    group = bf.enumerate_sp2(2)
    rng = random.Random(37)
    f = random_framing(rng, SurfaceSpec(2, (1, 2, -1)))
    # the identity, then a seeded element
    for idx in (group.find(bf._identity_key(group.w)), rng.randrange(1, len(group))):
        with monkeypatch.context() as m:
            _flip_theta_at(m, idx, 1 << rng.randrange(group.w))
            assert not bf.check_theta_edges(group, f), idx


def test_theta_edges_catch_one_wrong_letter(monkeypatch):
    group = bf.enumerate_sp2(2)
    rng = random.Random(41)
    f = random_framing(rng, SurfaceSpec(2, (2, 0)))
    true_letters = bf._letters
    gi, bit = rng.randrange(len(group.gens)), 1 << rng.randrange(group.w)

    def wrong(vs, framing):
        values = true_letters(vs, framing)
        values[gi] ^= bit
        return values

    monkeypatch.setattr(bf, "_letters", wrong)
    assert not bf.check_theta_edges(group, f)


def test_theta_edges_catch_one_wrong_letter_outside_the_generators(monkeypatch):
    # on the Humphries group only the transvection lookups see the letter value at v
    group = bf.enumerate_sp2(2)
    rng = random.Random(43)
    f = random_framing(rng, SurfaceSpec(2, (1, 2, -1)))
    assert bf.check_theta_edges(group, f)
    v = rng.choice([u for u in range(1, 1 << group.w) if u not in group.gens])
    bit = 1 << rng.randrange(group.w)
    true_letters = bf._letters

    def wrong(vs, framing):
        return [c ^ (bit if u == v else 0) for u, c in zip(vs, true_letters(vs, framing))]

    monkeypatch.setattr(bf, "_letters", wrong)
    assert not bf.check_theta_edges(group, f)


def test_theta_table_matches_integer_theta():
    # the packed mod-2 table agrees with the exact evaluation on lifts
    group = bf.enumerate_sp2(2)
    rng = random.Random(5)
    spec = random_spec(rng, 2, 2)
    f = random_framing(rng, spec)
    thetas = bf.theta_table(group, f)
    from framedhom.sampling import random_symplectic

    for _ in range(40):
        s = random_symplectic(rng, spec)
        a = PAutElem(2, spec.n, s, zero_mat(4, spec.zero_rank))
        packed = thetas[group.find(bf.matrix_to_key(s))]
        bits = tuple((packed >> j) & 1 for j in range(4))
        assert theta(a, f).bits == bits


def test_kernel_orders_two_ways():
    cases = [
        (Framing.zeros(SurfaceSpec(2, (2, 0))), 1152),
        (Framing.zeros(SurfaceSpec(2, (1, 1))), 720),
        (Framing.zeros(SurfaceSpec(2, (2,))), 72),
        (Framing(SurfaceSpec(2, (2,)), (1, 0), (1, 0)), 120),
        (Framing.zeros(SurfaceSpec(2, (1, 1, 0))), 720 * 16),
        (Framing.zeros(SurfaceSpec(2, (2, 0, 0))), 18432),
        (Framing.zeros(SurfaceSpec(2, (1, 2, -1))), 11520),
    ]
    for f, expected in cases:
        assert bf.kernel_order_mod2(f, "enumerate") == expected
        assert bf.kernel_order_mod2(f, "structure") == expected
    # every g=2 form as the framing's q_phi, at n = 1, 2, 3 in each regime that exists there
    seen = set()
    for kappa in [(2,), (2, 0), (1, 1), (2, 0, 0), (1, 2, -1)]:
        spec = SurfaceSpec(2, kappa)
        for bits in range(16):
            winds = [1 - ((bits >> j) & 1) for j in range(4)]
            f = Framing(spec, winds[0::2], winds[1::2], (-1,) * (spec.n - 1))
            assert f.qphi == bits
            assert bf.kernel_order_mod2(f, "enumerate") == bf.kernel_order_mod2(f, "structure")
            seen.add((spec.n, kappa[0] % 2, mod2.arf(bits, 4)))
    assert seen == {(n, odd, a) for n in (1, 2, 3) for odd in (0, 1) for a in (0, 1)} - {(1, 1, 0), (1, 1, 1)}


def test_regime_formula_counts_the_form_orbits():
    # the even-regime order is |Sp(2g, 2)| / #forms of the Arf value: Sp(2g, 2) is transitive on them
    for g in (2, 3):
        w = 2 * g
        for bits in range(1 << w):
            winds = [1 - ((bits >> j) & 1) for j in range(w)]
            f = Framing(SurfaceSpec(g, (2 * g - 2,)), winds[0::2], winds[1::2])
            orbit = bf._form_orbit(bits, w, bf.humphries(g))
            assert structure_report(f).mod2_kernel_order == bf.sp2_order(g) // len(orbit)


@pytest.mark.parametrize("f, flip", [
    (Framing.zeros(SurfaceSpec(2, (2, 0, 0))), 1),
    # odd regime: M vbar takes every value equally often and S^T is onto, so
    # any functional in theta's place gives the same count; only a value no
    # pullback takes shows that theta(S) is compared for every S
    (Framing.zeros(SurfaceSpec(2, (1, 2, -1))), 1 << 4),
])
def test_kernel_order_enumerate_reads_theta(monkeypatch, f, flip):
    _flip_theta_at(monkeypatch, bf.enumerate_sp2(2).find(bf._identity_key(4)), flip)  # the identity's value
    assert bf.kernel_order_mod2(f, "enumerate") != bf.kernel_order_mod2(f, "structure")


@pytest.mark.parametrize("g, kappa", [(2, (2,)), (3, (4,))])
def test_kernel_order_rejects_an_unknown_method(monkeypatch, g, kappa):
    def no_closure(g):
        raise AssertionError("the closure ran before the method was checked")

    monkeypatch.setattr(bf, "enumerate_sp2", no_closure)
    for method in ("structur", "auto"):
        with pytest.raises(ValueError, match=r"unknown method .*; choose from 'enumerate', 'structure'$"):
            bf.kernel_order_mod2(Framing.zeros(SurfaceSpec(g, kappa)), method)


def test_kernel_order_guard():
    for method in ("enumerate", "structure"):
        with pytest.raises(TooLarge):
            bf.kernel_order_mod2(Framing.zeros(SurfaceSpec(4, (6,))), method)
        with pytest.raises(TooLarge):
            bf.kernel_order_mod2(Framing.zeros(SurfaceSpec(2, (1, 1, 0, 0))), method)


def test_theta_depends_only_on_mod2_data():
    rng = random.Random(9)
    from framedhom.paut import compose, transvection
    from framedhom.sampling import random_primitive_abs

    for _ in range(40):
        spec = random_spec(rng, 2, rng.choice([1, 2]))
        f = random_framing(rng, spec)
        a = random_paut(rng, spec)
        base = theta(a, f)
        # perturb the framing windings by even amounts
        f2 = Framing(
            spec,
            tuple(w + 2 * rng.randint(-2, 2) for w in f.wind_x),
            tuple(w + 2 * rng.randint(-2, 2) for w in f.wind_y),
            f.arc2,
        )
        assert theta(a, f2) == base
        # perturb the M block by even matrices
        m2 = tuple(
            tuple(v + 2 * rng.randint(-2, 2) for v in row) for row in a.M
        )
        assert theta(PAutElem(spec.g, spec.n, a.S, m2), f) == base
        # perturb the S block inside its mod-2 class: squared transvections
        # are even perturbations that keep the block symplectic over Z
        sq = PAutElem(
            spec.g, spec.n,
            transvection(random_primitive_abs(rng, spec), 2),
            zero_mat(spec.abs_rank, spec.zero_rank),
        )
        assert theta(compose(a, sq), f) == base


def test_theta_depends_only_on_kappa_mod2():
    rng = random.Random(15)
    spec_a = SurfaceSpec(2, (1, 1))
    spec_b = SurfaceSpec(2, (3, -1))  # same kappa mod 2
    for _ in range(25):
        fa = random_framing(rng, spec_a)
        fb = Framing(spec_b, fa.wind_x, fa.wind_y, fa.arc2)
        a = random_paut(rng, spec_a)
        b = PAutElem(2, 2, a.S, a.M)
        assert theta(a, fa) == theta(b, fb)


def test_enumerate_sp2_genus3():
    from framedhom.sampling import random_symplectic

    group = bf.enumerate_sp2(3)
    keys = group.keys
    # one strictly increasing uint64 array, so no key twice
    assert keys.dtype == np.uint64 and keys.shape == (1451520,) and (keys[1:] > keys[:-1]).all()
    assert len(group) == bf.sp2_order(3) == 1451520
    assert bf._identity_key(6) in keys
    # every product of a key with a Humphries generator is a key: with the
    # identity among them, the keys hold the group the generators generate
    zeros = np.zeros(len(group), dtype=np.uint8)
    assert bf._holds_on_edges(keys, zeros, bf.humphries(3), 6)
    rng = random.Random(3)
    even = Framing.zeros(SurfaceSpec(3, (4,)))
    odd = Framing(SurfaceSpec(3, (3, 1)), (1, 0, 0), (1, 0, 0), (-1,))
    for f in (even, odd):
        # the cocycle rule on every Cayley edge, for one framing of each regime
        assert bf.check_theta_edges(group, f)
        # the table against the exact theta on seeded integer lifts
        spec, thetas = f.spec, bf.theta_table(group, f)
        for _ in range(200):
            s = random_symplectic(rng, spec)
            a = PAutElem(3, spec.n, s, zero_mat(6, spec.zero_rank))
            assert theta(a, f).packed == thetas[group.find(bf.matrix_to_key(s))]


@pytest.mark.parametrize("f", [
    Framing.zeros(SurfaceSpec(3, (4,))),
    Framing(SurfaceSpec(3, (3, 1)), (1, 0, 0), (1, 0, 0), (-1,)),
    Framing.zeros(SurfaceSpec(3, (2, 1, 1))),
])
def test_kernel_order_genus3(f):
    assert bf.kernel_order_mod2(f, "enumerate") == bf.kernel_order_mod2(f, "structure")
