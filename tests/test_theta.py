import hashlib
import random

import pytest

from framedhom import kernel, mod2, paut
from framedhom.errors import NoLiftExists, NotSymplectic, SpecMismatch
from framedhom.framing import Framing, spin_form
from framedhom.kernel import kernel_test, q_hat, theta, v_kappa_star
from framedhom.lattice import CohomClass, SurfaceSpec, x_curve
from framedhom.paut import (
    PAutElem,
    compose,
    identity_mat,
    invert,
    mat_mul,
    pullback_h1,
    transvection,
    zero_mat,
)
from framedhom.sampling import random_framing, random_paut, random_primitive_abs, random_spec
from framedhom.verify import theta_by_factorization

import reference

SPEC11 = SurfaceSpec(2, (1, 1))
SPEC2 = SurfaceSpec(2, (2,))


def test_v_kappa_star_examples():
    spec = SurfaceSpec(2, (0, 2))
    m = ((1,), (0,), (0,), (0,))
    assert v_kappa_star(m, spec).is_zero()  # all kappa even
    th = v_kappa_star(m, SPEC11)
    assert th == CohomClass.from_packed(2, mod2.dual(mod2.pack(x_curve(SPEC11, 1).coords), 4))
    assert th.bits[1] == 1  # the value at y_1
    assert v_kappa_star(zero_mat(4, 1), SPEC11).is_zero()
    assert v_kappa_star(zero_mat(4, 0), SPEC2).is_zero()


@pytest.mark.parametrize("m", [((1,), (0,), (0,), (0,)), ()])
def test_v_kappa_star_checks_the_shape_at_one_puncture(m):
    # at n = 1 the value is zero whatever M holds, but a block of another shape is refused first
    with pytest.raises(SpecMismatch, match=r"M must be 4x0"):
        v_kappa_star(m, SPEC2)


def test_q_hat_examples():
    q = spin_form(Framing(SPEC2, (1, 0), (0, 0)))
    assert q_hat(q, identity_mat(4)).is_zero()
    tbar = transvection(x_curve(SPEC2, 1), 1)
    th = q_hat(q, tbar)
    assert th.bits[1] == 1  # the value at y_1
    # brute force: the defect must equal q(Sx) - q(x) on all 16 classes
    for c in range(16):
        coords = tuple((c >> i) & 1 for i in range(4))
        image = tuple(v & 1 for (v,) in mat_mul(tbar, tuple(zip(coords))))
        assert (th.packed & c).bit_count() & 1 == mod2.quad(q.packed, mod2.pack(image), 4) ^ mod2.quad(q.packed, c, 4)
    with pytest.raises(NotSymplectic):
        q_hat(q, tuple(tuple(0 for _ in range(4)) for _ in range(4)))


def test_q_hat_crossed_identity_random():
    rng = random.Random(31)
    from framedhom.paut import mat_mul
    from framedhom.sampling import random_symplectic

    for _ in range(60):
        spec = random_spec(rng, 2, 1, even_only=True)
        q = spin_form(random_framing(rng, spec))
        s1 = random_symplectic(rng, spec)
        s2 = random_symplectic(rng, spec)
        prod = mat_mul(s1, s2)
        assert q_hat(q, prod) == pullback_h1(s2, q_hat(q, s1)) + q_hat(q, s2)


def test_theta_examples():
    f = Framing(SPEC11, (0, 0), (0, 0), (-1,))
    assert theta(PAutElem(2, 2, identity_mat(4), zero_mat(4, 1)), f).is_zero()
    m = ((1,), (0,), (0,), (0,))
    a = PAutElem(2, 2, identity_mat(4), m)
    assert theta(a, f) == CohomClass.from_packed(2, mod2.dual(mod2.pack(x_curve(SPEC11, 1).coords), 4))
    f2 = Framing(SPEC2, (1, 0), (0, 0))
    a2 = PAutElem(2, 1, transvection(x_curve(SPEC2, 1), 1), zero_mat(4, 0))
    th = theta(a2, f2)
    # the functional x -> <x, x_1>
    assert th == CohomClass((0, 1, 0, 0))
    with pytest.raises(SpecMismatch):
        theta(a, f2)


def test_theta_crossed_homomorphism():
    rng = random.Random(17)
    for _ in range(80):
        spec = random_spec(rng, 2, rng.choice([1, 2, 3]))
        f = random_framing(rng, spec)
        a = random_paut(rng, spec)
        b = random_paut(rng, spec)
        lhs = theta(compose(a, b), f)
        rhs = pullback_h1(b.S, theta(a, f)) + theta(b, f)
        assert lhs == rhs


def test_theta_factorization_independent():
    # theta of a product of transvections against the crossed rule folded letter by letter
    rng = random.Random(23)
    for _ in range(60):
        spec = random_spec(rng, rng.choice([2, 3]), rng.choice([1, 2]))
        f = random_framing(rng, spec)
        s = identity_mat(2 * spec.g)
        odd = []  # the classes of odd power: an even power is the identity mod 2
        for _ in range(rng.randint(0, 8)):
            v = random_primitive_abs(rng, spec)
            k = rng.choice([-2, -1, 1, 2])
            s = mat_mul(s, transvection(v, k))
            if k & 1:
                odd.append(v.coords)
        a = PAutElem(spec.g, spec.n, s, zero_mat(spec.abs_rank, spec.zero_rank))
        assert theta(a, f).bits == reference.theta(tuple(odd), f)


def test_theta_never_factors(monkeypatch):
    def refuse(_s):
        raise AssertionError("theta must not factor S")

    rng = random.Random(47)
    spec = random_spec(rng, 4, 3)
    f = random_framing(rng, spec)
    a = random_paut(rng, spec, factors=16)
    expected = theta_by_factorization(a, f)
    monkeypatch.setattr(paut, "factor_sp", refuse)
    monkeypatch.setattr(kernel, "factor_sp", refuse, raising=False)
    assert theta(a, f) == expected
    assert kernel_test(a, f) == expected.is_zero()


def test_qhat_of_the_shifted_form():
    # q_hat(q + f, S) = q_hat(q, S) + S^T f + f: theta's one qhat call on
    # q_phi + v against the pullback-plus-qhat formula it replaced, for every
    # q and f on all of Sp(4, 2) and on random integral S at g 3-6
    from framedhom import bruteforce as bf

    group = bf.enumerate_sp2(2)
    for key in group.keys:
        cols = bf.key_columns(int(key), 4)
        for q in range(16):
            for f in range(16):
                assert mod2.qhat(q ^ f, cols, 4) ^ f == mod2.pullback(cols, f) ^ mod2.qhat(q, cols, 4)
    rng = random.Random(53)
    for trial in range(80):
        g = 3 + trial % 4
        w = 2 * g
        cols = mod2.columns(random_paut(rng, random_spec(rng, g, 1), factors=16).S)
        for _ in range(8):
            q, f = rng.getrandbits(w), rng.getrandbits(w)
            assert mod2.qhat(q ^ f, cols, w) ^ f == mod2.pullback(cols, f) ^ mod2.qhat(q, cols, w)


def _check_theta_on_products_and_inverses(monkeypatch):
    # theta(AB) = B^* theta(A) + theta(B) and theta(A^-1) = (A^-1)^* theta(A)
    # at g 2-8, n 1-4, A and B each a product of four random elements (entries
    # of 100-200 bits, AB's of 200-370), with factor_sp refused.  theta reads
    # S and M only mod 2, so a sign error in the inverse cannot move a theta
    # value; A A^-1 = I = A^-1 A is what ties invert(A) to A
    def refuse(_s):
        raise AssertionError("theta must not factor S")

    monkeypatch.setattr(paut, "factor_sp", refuse)
    rng = random.Random(59)
    widest = 0
    for trial in range(28):
        g, n = 2 + trial % 7, 1 + trial % 4
        spec = random_spec(rng, g, n)
        f = random_framing(rng, spec)
        a, b = (random_paut(rng, spec, factors=16) for _ in range(2))
        for _ in range(3):
            a, b = compose(a, random_paut(rng, spec, factors=16)), compose(random_paut(rng, spec, factors=16), b)
        widest = max(widest, max(abs(v).bit_length() for x in (a, b) for row in x.S for v in row))
        th_a, th_b = theta(a, f), theta(b, f)
        assert theta(compose(a, b), f) == pullback_h1(b.S, th_a) + th_b
        inv = invert(a)
        assert compose(a, inv).is_identity() and compose(inv, a).is_identity()
        assert theta(inv, f) == pullback_h1(inv.S, th_a)
    assert widest >= 100


def test_theta_on_integral_products_and_inverses(monkeypatch):
    _check_theta_on_products_and_inverses(monkeypatch)


def test_theta_product_check_catches_a_sign_flipped_inverse(monkeypatch):
    inverse = paut.sp_inverse

    def flipped(s, g):
        return tuple(tuple(-v for v in row) for row in inverse(s, g))

    monkeypatch.setattr(paut, "sp_inverse", flipped)
    with pytest.raises(AssertionError):
        _check_theta_on_products_and_inverses(monkeypatch)


def test_theta_path_is_pinned():
    # sha256 of theta, kernel_test, lift_transvection, q_hat (and the mod-2
    # symplectic check behind it), v_kappa_star, Framing.qphi and
    # transvection on 112 seeded cases: g 2-5, n 1-4, both regimes, elements
    # of 4 and 16 factors, windings in [-3, 3].  Recorded before theta's
    # inputs stopped going through string packing: the results must not change
    rng = random.Random(2424)
    digest = hashlib.sha256()
    for g in (2, 3, 4, 5):
        for n in (1, 2, 3, 4):
            for regime in ("even", "odd") if n > 1 else ("even",):
                for factors in (4, 16, 4, 16):
                    spec = random_spec(rng, g, n, even_only=regime == "even")
                    while regime == "odd" and not any(k & 1 for k in spec.kappa):
                        spec = random_spec(rng, g, n)
                    f = random_framing(rng, spec)
                    a = random_paut(rng, spec, factors)
                    v = random_primitive_abs(rng, spec)
                    try:
                        lift = kernel.lift_transvection(v, f)
                        lifted = (lift.S, lift.M)
                    except NoLiftExists:
                        lifted = None
                    q = spin_form(Framing(SurfaceSpec(g, (2 * g - 2,)), f.wind_x, f.wind_y))
                    cols = mod2.columns(a.S)
                    cols[rng.randrange(2 * g)] ^= 1 << rng.randrange(2 * g)
                    digest.update(
                        repr(
                            (
                                theta(a, f).bits,
                                kernel_test(a, f),
                                lifted,
                                q_hat(q, a.S).bits,
                                mod2.is_symplectic(cols, 2 * g),
                                v_kappa_star(a.M, spec).bits,
                                f.qphi,
                                transvection(v, rng.choice([-3, -2, -1, 1, 2, 3])),
                            )
                        ).encode()
                    )
    assert digest.hexdigest() == "688805395d74475e02f7db03b59a99ccdf7e6635e47c9117b288d236bfe674fc"
