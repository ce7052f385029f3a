import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedhom import mod2
from framedhom.errors import (
    DimensionMismatch,
    InvalidSurface,
    MissingArcData,
    SomeKappaOdd,
    SpecMismatch,
    WindingParityMismatch,
)
from framedhom.framing import Framing, QForm, arf, spin_form, winding_parity
from framedhom.lattice import (
    AbsVec,
    CohomClass,
    PunctVec,
    RelVec,
    SurfaceSpec,
    x_curve,
    y_curve,
)
from framedhom.sampling import random_framing, random_primitive_punct, random_spec
from framedhom.words import Twist, check_twist_winding

import reference


def test_framing_validation():
    spec = SurfaceSpec(2, (1, 1))
    with pytest.raises(InvalidSurface, match="odd"):
        Framing(spec, (0, 0), (0, 0), (2,))
    f = Framing(spec, (0, 0), (0, 0))
    assert not f.has_arc_data
    # n = 1 framings normalize to empty arc data
    f1 = Framing(SurfaceSpec(2, (2,)), (0, 0), (0, 0))
    assert f1.arc2 == ()


def test_from_doubled_refuses_an_odd_curve_slot():
    # doubled curve windings are even, as doubled arc windings are odd
    spec = SurfaceSpec(2, (2,))
    with pytest.raises(InvalidSurface, match="doubled value 3 must be even"):
        Framing.from_doubled(spec, (0, 0, 3, 0))
    with pytest.raises(InvalidSurface, match="doubled value 1 must be even"):
        Framing.from_doubled(spec, (1, 0, 3, 0))
    with pytest.raises(InvalidSurface, match="must be odd"):
        Framing.from_doubled(SurfaceSpec(2, (1, 1)), (0, 0, 0, 0, 2))
    f = Framing.from_doubled(spec, (-2, 0, 4, 6))
    assert f.doubled() == (-2, 0, 4, 6) and (f.wind_x, f.wind_y) == ((-1, 2), (0, 3))


def test_bits_refuse_a_value_outside_zero_and_one():
    with pytest.raises(DimensionMismatch, match="QForm bit 0 is 2, not 0 or 1"):
        QForm((2, 3), (0, 1))
    with pytest.raises(DimensionMismatch, match="CohomClass bit 0 is 5, not 0 or 1"):
        CohomClass((5, 0, 0, 1))
    with pytest.raises(DimensionMismatch, match="bit 3 is -1"):
        CohomClass((0, 1, 1, -1))
    assert QForm((0, 1), (1, 1)).packed == 0b1110
    assert CohomClass((True, False)).bits == (1, 0)


def test_arf_examples():
    spec = SurfaceSpec(2, (2,))
    assert arf(Framing(spec, (0, 0), (0, 0))) == 0
    assert arf(Framing(spec, (1, 0), (0, 0))) == 1
    spec11 = SurfaceSpec(2, (1, 1))
    assert arf(Framing(spec11, (0, 0), (0, 0), (1,))) == 1
    with pytest.raises(MissingArcData):
        arf(Framing(spec11, (0, 0), (0, 0)))


def test_spin_form_examples():
    spec = SurfaceSpec(2, (2,))
    q = spin_form(Framing(spec, (0, 0), (0, 0)))
    assert q.qx == (1, 1) and q.qy == (1, 1)
    with pytest.raises(SomeKappaOdd):
        spin_form(Framing(SurfaceSpec(2, (1, 1)), (0, 0), (0, 0), (-1,)))
    spec3 = SurfaceSpec(2, (4, 0, -2))
    q = spin_form(Framing(spec3, (0, 0), (0, 0), (-1, -1)))
    assert q.qx == (1, 1) and q.qy == (1, 1)


def test_arf_of_form_examples():
    # the classical Arf invariant sum q(x_i) q(y_i) of a form, by mod2.arf
    assert mod2.arf(QForm((1, 1), (1, 1)).packed, 4) == 0
    assert mod2.arf(QForm((0, 1), (1, 1)).packed, 4) == 1
    assert mod2.arf(QForm((0, 0), (0, 0)).packed, 4) == 0


def test_arf_of_form_matches_arf_when_even():
    # classical Arf agrees with the framing Arf for n = 1
    spec = SurfaceSpec(2, (2,))
    for wx in range(2):
        for wy in range(2):
            f = Framing(spec, (wx, 0), (wy, 1))
            assert mod2.arf(spin_form(f).packed, 4) == arf(f)


def test_winding_parity_examples():
    spec = SurfaceSpec(2, (2,))
    f = Framing(spec, (0, 0), (0, 0))
    x1, x2, y1 = x_curve(spec, 1), x_curve(spec, 2), y_curve(spec, 1)
    assert winding_parity(f, x1) == 0
    assert winding_parity(f, x1 + x2) == 1  # pants rule: 1 + P(x1) + P(x2)
    assert winding_parity(f, x1 + y1) == 0  # crossing rule: P(x1) + P(y1)


def test_winding_parity_is_johnsons_rule_on_punctured_classes():
    spec = SurfaceSpec(2, (1, 1))
    x1_d2 = PunctVec(spec, (1, 0, 0, 0, 1))
    cases = [(Framing.zeros(spec), x1_d2)]  # the loop term forces parity 1 here
    rng = random.Random(34)
    for _ in range(300):
        spec = random_spec(rng, rng.randint(2, 4), rng.randint(1, 4))
        f = random_framing(rng, spec, with_arcs=rng.random() < 0.5)
        cases.append((f, random_primitive_punct(rng, spec)))
    assert winding_parity(*cases[0]) == 1
    for f, c in cases:
        want = reference.winding_parity(f, c.coords)
        assert winding_parity(f, c) == want, (f, c)
        v = AbsVec(f.spec, c.coords[: f.spec.abs_rank])
        assert winding_parity(f, v) == reference.winding_parity(f, v.coords), (f, v)
        for w in range(-2, 3):
            if (w - want) % 2:
                with pytest.raises(WindingParityMismatch):
                    check_twist_winding(Twist(c, 1, w), f)
            else:
                check_twist_winding(Twist(c, 1, w), f)


def test_winding_parity_refuses_relative_and_point_classes():
    spec = SurfaceSpec(2, (1, 1))
    f = Framing.zeros(spec)
    with pytest.raises(SpecMismatch):
        winding_parity(f, RelVec(spec, (1, 0, 0, 0, 1)))


def test_winding_parity_crossing_rule_by_twist():
    # an honest twist-linearity derivation of the crossing-rule value:
    # T_{x_1}(y_1) lies in class x_1 + y_1 mod 2 and its winding is
    # phi(y_1) + <y_1, x_1> phi(x_1)
    spec = SurfaceSpec(2, (2,))
    for wx in range(-2, 3):
        for wy in range(-2, 3):
            f = Framing(spec, (wx, 0), (wy, 0))
            tracked = wy - wx
            assert tracked % 2 == winding_parity(f, x_curve(spec, 1) + y_curve(spec, 1))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
)
def test_winding_parity_quadratic_refinement(winds, cu, cw):
    spec = SurfaceSpec(2, (2,))
    f = Framing(spec, tuple(winds[:2]), tuple(winds[2:]))
    u = AbsVec(spec, tuple(cu))
    w = AbsVec(spec, tuple(cw))
    lhs = winding_parity(f, u + w)
    rhs = (winding_parity(f, u) + winding_parity(f, w) + 1 + reference.pairing(u.coords, w.coords)) % 2
    assert lhs == rhs


def test_even_regime_parity_matches_spin_form():
    spec = SurfaceSpec(2, (0, 2))
    f = Framing(spec, (1, 2), (3, 0), (-3,))
    q = spin_form(f)
    for c in range(16):
        coords = tuple((c >> i) & 1 for i in range(4))
        v = AbsVec(spec, coords)
        assert (winding_parity(f, v) + 1) % 2 == mod2.quad(q.packed, c, 4)


def test_qform_evaluate_at_genus_three():
    # mod2.quad on the form's packed basis values against the reference; at
    # g = 2, 2 + g == 2g, so only g >= 3 tells the rank 2g from 2 + g
    q = QForm((1, 0, 1), (0, 0, 1))
    for c in range(64):
        assert mod2.quad(q.packed, c, 6) == reference.quad(q.bits, reference.bits(c, 6)), c


def test_qvector_shape():
    # a vector of basis parities has an even length, 2g
    with pytest.raises(Exception):
        CohomClass((1, 0, 1))


def test_qphi_packs_the_winding_parities_plus_one():
    # bit j of q_phi is phi(b_j) + 1 mod 2, negative windings included
    rng = random.Random(31)
    for g in (2, 3, 4, 5):
        spec = SurfaceSpec(g, (2 * g - 2,))
        cases = [Framing(spec, (-1,) * g, (-2,) * g)]
        cases += [
            Framing(spec, [rng.randint(-9, 9) for _ in range(g)], [rng.randint(-9, 9) for _ in range(g)])
            for _ in range(20)
        ]
        for f in cases:
            assert f.qphi == mod2.pack(w + 1 for pair in zip(f.wind_x, f.wind_y) for w in pair)
