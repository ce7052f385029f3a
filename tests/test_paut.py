import hashlib
import random
from math import gcd

import pytest

from framedhom import mod2, paut
from framedhom.errors import NotSymplectic, SpecMismatch
from framedhom.lattice import AbsVec, CohomClass, SurfaceSpec, x_curve, y_curve
from framedhom.paut import (
    PAutElem,
    compose,
    factor_sp,
    freeze,
    identity_mat,
    invert,
    is_symplectic,
    mat_mul,
    pullback_h1,
    sp_inverse,
    transvection,
    zero_mat,
)
from framedhom.sampling import random_paut, random_primitive_abs, random_spec, random_symplectic

import reference

SPEC = SurfaceSpec(2, (1, 1))


def test_validation():
    with pytest.raises(NotSymplectic):
        PAutElem(2, 1, tuple(tuple(2 if i == j else 0 for j in range(4)) for i in range(4)), zero_mat(4, 0))
    with pytest.raises(Exception):
        PAutElem(2, 2, identity_mat(4), zero_mat(4, 3))
    assert PAutElem(2, 2, identity_mat(4), zero_mat(4, 1)).is_identity()


def test_compose_examples():
    rng = random.Random(1)
    a = random_paut(rng, SPEC)
    ident = PAutElem(2, 2, identity_mat(4), zero_mat(4, 1))
    c = compose(a, ident)
    assert c.S == a.S and c.M == a.M
    c = compose(a, invert(a))
    assert c.is_identity()
    m1 = ((1,), (2,), (0,), (0,))
    m2 = ((0,), (-1,), (3,), (0,))
    r1 = PAutElem(2, 2, identity_mat(4), m1)
    r2 = PAutElem(2, 2, identity_mat(4), m2)
    both = compose(r1, r2)
    assert both.S == identity_mat(4)
    assert both.M == ((1,), (1,), (3,), (0,))
    # point-transvection block is abelian
    assert compose(r2, r1).M == both.M


def test_compose_spec_mismatch():
    with pytest.raises(SpecMismatch):
        compose(PAutElem(2, 2, identity_mat(4), zero_mat(4, 1)), PAutElem(2, 1, identity_mat(4), zero_mat(4, 0)))


def test_transvection_examples():
    x1, y1 = x_curve(SPEC, 1), y_curve(SPEC, 1)
    t = transvection(x1, 1)
    assert tuple(t[i][j] for i, j in ((0, 1),)) == (-1,)
    assert AbsVec(SPEC, tuple(r[1] for r in t)) == y1 + -x1  # column of y_1
    v = AbsVec(SPEC, (1, 2, 3, 4))
    tv = transvection(v, 5)
    assert mat_mul(tv, tuple(zip(v.coords))) == tuple(zip(v.coords))  # T_v(v) = v
    assert mat_mul(transvection(x1, 1), transvection(x1, 1)) == transvection(x1, 2)
    assert is_symplectic(tv, 2)


def test_transvection_columns_match_the_pairing_formula():
    # column b of T_v^k is T_v^k(b) = b + k <b, v> v: the benchmark's rank-one
    # product I + k v (J v)^T of the one factor (v, k)
    rng = random.Random(75)
    for g in (2, 3, 4, 5):
        spec = SurfaceSpec(g, (2 * g - 2,))
        for _ in range(12):
            v = random_primitive_abs(rng, spec).coords
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            assert transvection(AbsVec(spec, v), k) == reference.checks.factor_product([(v, k)], 2 * g)


def test_sp_inverse():
    rng = random.Random(5)
    for _ in range(30):
        spec = random_spec(rng, rng.choice([2, 3]), 1)
        s = random_symplectic(rng, spec)
        assert mat_mul(s, sp_inverse(s, spec.g)) == identity_mat(2 * spec.g)


def test_sp_inverse_is_minus_j_st_j():
    # the index rule against the product -J S^T J, also on matrices that are not symplectic
    rng = random.Random(23)
    for _ in range(60):
        g = rng.choice([2, 3, 4])
        s = random_symplectic(rng, SurfaceSpec(g, (2 * g - 2,)), rng.randint(1, 8))
        if rng.random() < 0.5:
            s = tuple(tuple(v + rng.randint(-3, 3) for v in row) for row in s)
        j = reference.gram(2 * g)
        product = reference.mat_mul(reference.mat_mul(j, tuple(zip(*s))), j)
        assert sp_inverse(s, g) == tuple(tuple(-v for v in row) for row in product)


def test_random_symplectic_replays_transvections():
    # the seeded inputs of the tests and the benchmark: replay the same draws
    # from a second generator and multiply them out by the benchmark's product
    for g in (2, 3, 4, 5):
        for factors in (2, 8, 20):
            for seed in range(3):
                spec = SurfaceSpec(g, (2 * g - 2,) if seed % 2 else (1, 2 * g - 3))
                replay = random.Random(seed)
                drawn = [(random_primitive_abs(replay, spec).coords, replay.choice([-2, -1, 1, 2]))
                         for _ in range(factors)]
                s = reference.checks.factor_product(drawn, 2 * g)
                assert random_symplectic(random.Random(seed), spec, factors) == s


def test_factor_sp_examples():
    assert factor_sp(identity_mat(4)) == []
    x1 = x_curve(SPEC, 1)
    fac = factor_sp(transvection(x1, 1))
    assert fac == [((1, 0, 0, 0), 1)]
    with pytest.raises(NotSymplectic):
        factor_sp(tuple(tuple(2 if i == j else 0 for j in range(4)) for i in range(4)))


@pytest.mark.parametrize("slot", [2, 3, 4, 5])
def test_factor_sp_single_shear(slot):
    # S = T_{x_1+e}^k T_{x_1}^{-k} T_e^{-k}: x -> x + k(<x, x_1> e + <x, e> x_1),
    # the map that clears one slot of the second column; it factors as itself
    k = 7
    spec = SurfaceSpec(3, (4,))
    x1 = x_curve(spec, 1)
    e = AbsVec(spec, tuple(int(i == slot) for i in range(6)))
    s = mat_mul(mat_mul(transvection(x1 + e, k), transvection(x1, -k)), transvection(e, -k))
    assert factor_sp(s) == [((x1 + e).coords, k), (x1.coords, -k), (e.coords, -k)]


# Largest length and largest power (in bits) over four seeded 20-factor
# inputs per genus, with 29-61-bit entries, measured on this implementation:
#   g        2    3    4     5     6     7
#   length  92  235  548  1146  2630  4913
#   bits    89  193  454   940  2135  4024
# The bounds are about 1.25 times these.  Both still double per genus: the
# handle Euclid of the first column is not yet bounded.
FACTOR_BOUNDS = {2: (115, 112), 3: (295, 242), 4: (685, 570), 5: (1435, 1175),
                 6: (3290, 2670), 7: (6145, 5030)}


@pytest.mark.parametrize("g", sorted(FACTOR_BOUNDS))
def test_factor_sp_growth_bounds(g):
    max_len, max_bits = FACTOR_BOUNDS[g]
    spec = SurfaceSpec(g, (2 * g - 2,))
    for seed in range(4):
        s = random_symplectic(random.Random(100 * g + seed), spec, factors=20)
        fac = factor_sp(s)
        assert len(fac) <= max_len
        assert max(abs(k).bit_length() for _, k in fac) <= max_bits
        # the product applied to one vector, last factor first, is S applied to it
        x = list(range(1, 2 * g + 1))
        for v, k in reversed(fac):
            t = k * reference.pairing(x, v)
            x = [a + t * b for a, b in zip(x, v)]
        assert tuple(zip(x)) == mat_mul(s, tuple(zip(range(1, 2 * g + 1))))


def test_factor_sp_roundtrip_random():
    rng = random.Random(20)
    for trial in range(1000):
        g = rng.choice([2, 3, 4])
        spec = SurfaceSpec(g, (2 * g - 2,))
        # a few long products keep entry growth honest without dominating runtime
        nfac = 20 if trial % 10 == 0 else rng.randint(2, 8)
        s = random_symplectic(rng, spec, factors=nfac)
        fac = factor_sp(s)
        assert all(gcd(*v) == 1 for v, _ in fac)
        assert reference.checks.factor_product(fac, 2 * g) == s


def test_factor_sp_lists_are_pinned():
    # sha256 of the factor lists of 200 seeded matrices (g 2-6, 2-20 factors,
    # 96 836 factors in all), recorded before the row kernels replaced the
    # generic transvection update: the lists must not change
    rng = random.Random(2002)
    digest = hashlib.sha256()
    for trial in range(200):
        g = 2 + trial % 5
        s = random_symplectic(rng, SurfaceSpec(g, (2 * g - 2,)), rng.randint(2, 20))
        digest.update(repr(factor_sp(s)).encode())
    assert digest.hexdigest() == "d5d3dbcb6e18937e44f53322630c43d8d627e198ffe9b0727dd1f47186508261"


def test_factor_sp_refuses_a_non_symplectic_matrix_past_its_entry_check(monkeypatch):
    # the reduction's own checks must catch a unimodular matrix that is not
    # symplectic; is_symplectic runs only after one of them fails, and patched
    # to True it calls the failure a fault, so the check's error comes through.
    # A product of transvections is symplectic, so no list can multiply back
    # to such an S: the only right outcome is an error, never a list
    rng = random.Random(404)
    monkeypatch.setattr(paut, "is_symplectic", lambda s, g: True)
    refused = 0
    for trial in range(300):
        g = 2 + trial % 3
        m = 2 * g
        rows = [list(r) for r in random_symplectic(rng, SurfaceSpec(g, (2 * g - 2,)), rng.randint(1, 6))]
        # one to three elementary row or column operations keep det = +-1
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(m), 2)
            k = rng.choice([-2, -1, 1, 2])
            if rng.random() < 0.5:
                rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
            else:
                for row in rows:
                    row[i] += k * row[j]
        s = freeze(rows)
        if reference.is_symplectic(s):
            continue
        with pytest.raises(AssertionError, match="not symplectic"):
            factor_sp(s)
        refused += 1
    assert refused > 250


def test_factor_sp_never_runs_is_symplectic_on_symplectic_input(monkeypatch):
    # the reduction reaching I is the certificate; the pairing check is for failures only
    def refuse(_s, _g):
        raise AssertionError("factor_sp must not run is_symplectic on symplectic input")

    rng = random.Random(606)
    cases = []
    for trial in range(40):
        g = 2 + trial % 4
        s = random_symplectic(rng, SurfaceSpec(g, (2 * g - 2,)), rng.randint(1, 16))
        cases.append((s, factor_sp(s)))
    monkeypatch.setattr(paut, "is_symplectic", refuse)
    for s, expected in cases:
        assert factor_sp(s) == expected


def test_random_paut_never_runs_is_symplectic(monkeypatch):
    # S is a product of transvections (test_random_symplectic_replays_transvections)
    def refuse(_s, _g):
        raise AssertionError("random_paut must not re-check the matrix it builds")

    def draw():
        rng = random.Random(607)
        return [random_paut(rng, random_spec(rng, g, n)) for g in (2, 3, 4, 5) for n in (1, 2, 3)]

    expected = draw()
    # the checked constructor accepts every drawn element
    assert all(PAutElem(a.g, a.n, a.S, a.M) == a for a in expected)
    monkeypatch.setattr(paut, "is_symplectic", refuse)
    assert draw() == expected


def _symplectic_rows(rng, g):
    return [list(r) for r in random_symplectic(rng, SurfaceSpec(g, (2 * g - 2,)), rng.randint(1, 6))]


def _unimodular_non_symplectic(rng, g):
    # a symplectic matrix moved by one to three elementary row or column
    # operations, as in the entry-check test above: det stays +-1
    m = 2 * g
    rows = _symplectic_rows(rng, g)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(m), 2)
        k = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.5:
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        else:
            for row in rows:
                row[i] += k * row[j]
    return freeze(rows)


def _singular(rng, g):
    # a symplectic matrix with one column copied over another
    rows = _symplectic_rows(rng, g)
    i, j = rng.sample(range(2 * g), 2)
    for row in rows:
        row[i] = row[j]
    return freeze(rows)


def _non_primitive_column(rng, g):
    # a symplectic matrix with one column times 2 or -3
    rows = _symplectic_rows(rng, g)
    i, k = rng.randrange(2 * g), rng.choice([2, -3])
    for row in rows:
        row[i] *= k
    return freeze(rows)


def _near_a_million(rng, g):
    return freeze([[rng.choice([-1, 1]) * (10**6 + rng.randint(-50, 50)) for _ in range(2 * g)]
                   for _ in range(2 * g)])


def _shifted_by_a_million(rng, g):
    # a symplectic matrix with one entry moved by 10^6
    rows = _symplectic_rows(rng, g)
    rows[rng.randrange(2 * g)][rng.randrange(2 * g)] += rng.choice([-1, 1]) * 10**6
    return freeze(rows)


@pytest.mark.parametrize("draw", [
    _unimodular_non_symplectic,
    _singular,
    lambda rng, g: zero_mat(2 * g, 2 * g),
    _non_primitive_column,
    _near_a_million,
    _shifted_by_a_million,
], ids=["unimodular", "singular", "zero", "non-primitive-column", "near-1e6", "shifted-by-1e6"])
def test_factor_sp_refuses_non_symplectic_input(draw):
    # NotSymplectic with the message the up-front check gave, never a list and
    # never the reduction's bare AssertionError
    rng = random.Random(505)
    refused = 0
    for trial in range(60):
        g = 2 + trial % 4
        s = draw(rng, g)
        if reference.is_symplectic(s):
            continue
        with pytest.raises(NotSymplectic) as info:
            factor_sp(s)
        assert str(info.value) == "factor_sp input must be symplectic over the integers"
        refused += 1
    assert refused > 50


def test_is_symplectic_matches_the_product_form():
    rng = random.Random(17)
    seen = set()
    for _ in range(60):
        g = rng.choice([2, 3, 4])
        s = random_symplectic(rng, SurfaceSpec(g, (2 * g - 2,)), rng.randint(1, 8))
        assert is_symplectic(s, g)
        for _ in range(6):
            # one entry moved by +-1
            rows = [list(row) for row in s]
            rows[rng.randrange(2 * g)][rng.randrange(2 * g)] += rng.choice([-1, 1])
            expected = reference.is_symplectic(rows)
            assert is_symplectic(rows, g) == expected
            seen.add(expected)
    assert seen == {True, False}


def test_pullback_examples():
    x1 = x_curve(SPEC, 1).coords
    th = CohomClass.from_packed(2, mod2.dual(mod2.pack(x1), 4))  # <x_1, .>
    assert pullback_h1(identity_mat(4), th) == th
    assert pullback_h1(identity_mat(4), CohomClass.from_packed(2, 0)).is_zero()
    # pullback of <x_1, .> along the mod-2 transvection about x_1 is itself,
    # checked on all 16 classes
    tbar = tuple(tuple(v & 1 for v in row) for row in transvection(x_curve(SPEC, 1), 1))
    pulled = pullback_h1(tbar, th)
    for c in range(16):
        coords = tuple((c >> i) & 1 for i in range(4))
        image = tuple(v & 1 for (v,) in mat_mul(tbar, tuple(zip(coords))))
        assert (pulled.packed & c).bit_count() & 1 == reference.pairing(x1, image) & 1
    assert pulled == th


def test_group_closure_validates():
    rng = random.Random(8)
    for _ in range(50):
        spec = random_spec(rng, 2, rng.choice([1, 2, 3]))
        a = random_paut(rng, spec)
        b = random_paut(rng, spec)
        c = compose(a, invert(b))  # built unchecked; the exact check runs here
        assert is_symplectic(c.S, 2)
