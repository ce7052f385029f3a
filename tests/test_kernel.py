import random

import pytest

from framedhom.errors import NoLiftExists, NotPrimitive
from framedhom.framing import Framing, spin_form
from framedhom.kernel import kernel_test, lift_transvection, q_hat, structure_report
from framedhom.lattice import SurfaceSpec, x_curve
from framedhom.paut import PAutElem, compose, identity_mat, invert, transvection, zero_mat
from framedhom.sampling import random_framing, random_paut, random_primitive_abs, random_spec

SPEC11 = SurfaceSpec(2, (1, 1))
SPEC2 = SurfaceSpec(2, (2,))


def test_kernel_test_examples():
    f = Framing(SPEC11, (0, 0), (0, 0), (-1,))
    assert kernel_test(PAutElem.identity(2, 2), f)
    m = ((1,), (0,), (0,), (0,))
    assert not kernel_test(PAutElem(2, 2, identity_mat(4), m), f)
    f2 = Framing(SPEC2, (0, 0), (0, 0))
    a = PAutElem(2, 1, transvection(x_curve(SPEC2, 1), 1), zero_mat(4, 0))
    assert kernel_test(a, f2)


def test_lift_examples():
    f = Framing(SPEC2, (0, 0), (0, 0))
    x1 = x_curve(SPEC2, 1)
    a = lift_transvection(x1, f)
    assert a.S == transvection(x1, 1) and a.M == ((), (), (), ())

    f11 = Framing(SPEC11, (1, 0), (0, 0), (-1,))
    x1r = x_curve(SPEC11, 1)
    a2 = lift_transvection(x1r, f11)
    assert a2.S == transvection(x1r, 1)
    assert a2.M == ((1,), (0,), (0,), (0,))
    assert kernel_test(a2, f11)

    f2 = Framing(SPEC2, (1, 0), (0, 0))
    with pytest.raises(NoLiftExists):
        lift_transvection(x1, f2)
    with pytest.raises(NotPrimitive):
        lift_transvection(2 * x1, f)


def test_odd_regime_surjectivity_products():
    # products of lifts realize transvection words over the kernel
    rng = random.Random(7)
    f = Framing(SPEC11, (1, 2), (0, 1), (-3,))
    prod = PAutElem.identity(2, 2)
    for _ in range(6):
        v = random_primitive_abs(rng, SPEC11)
        prod = compose(prod, lift_transvection(v, f))
    assert kernel_test(prod, f)


def test_kernel_subgroup_closure():
    rng = random.Random(11)
    found = 0
    while found < 25:
        spec = random_spec(rng, 2, rng.choice([1, 2]))
        f = random_framing(rng, spec)
        a, b = random_paut(rng, spec), random_paut(rng, spec)
        if kernel_test(a, f) and kernel_test(b, f):
            found += 1
            assert kernel_test(compose(a, b), f)
            assert kernel_test(invert(a), f)


def test_structure_report_examples():
    # the even-regime count 72 * 2^(2g(n-1)) = 1152 needs two marked points
    rep = structure_report(Framing.zeros(SurfaceSpec(2, (2, 0))))
    assert rep.regime == "even" and rep.arf == 0
    assert rep.mod2_kernel_order == 1152
    rep11 = structure_report(Framing.zeros(SurfaceSpec(2, (1, 1))))
    assert rep11.regime == "odd" and rep11.v_bar == (1,)
    assert rep11.mod2_kernel_order == 720
    rep2 = structure_report(Framing.zeros(SPEC2))
    assert rep2.regime == "even" and rep2.mod2_kernel_order == 72
    rep02 = structure_report(Framing.zeros(SurfaceSpec(2, (0, 2))))
    assert rep02.regime == "even"
    # large surfaces skip the count
    big = structure_report(Framing.zeros(SurfaceSpec(4, (6,))))
    assert big.mod2_kernel_order is None


def test_even_regime_kernel_characterization():
    # membership is exactly the vanishing of the spin defect on the Sp part
    rng = random.Random(13)
    spec = SurfaceSpec(2, (0, 2))
    f = random_framing(rng, spec)
    q = spin_form(f)
    for _ in range(60):
        a = random_paut(rng, spec)
        assert kernel_test(a, f) == q_hat(q, a.S).is_zero()
