import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedhom.errors import DimensionMismatch, InvalidSurface, SpecMismatch
from framedhom.lattice import (
    AbsVec,
    CohomClass,
    PunctVec,
    RelVec,
    SurfaceSpec,
    abs_basis,
    arc_class,
    as_punct,
    as_rel,
    point_loop,
    project_punct,
    rel_punct_pairing,
    symplectic_pairing,
    x_curve,
    y_curve,
)

SPEC = SurfaceSpec(2, (1, 1))
SPEC1 = SurfaceSpec(2, (2,))


def test_spec_validation():
    assert SPEC.n == 2 and SPEC.rel_rank == 5 and SPEC.zero_rank == 1
    with pytest.raises(InvalidSurface, match="kappa sum"):
        SurfaceSpec(2, (3,))
    with pytest.raises(InvalidSurface):
        SurfaceSpec(1, (0,))
    with pytest.raises(InvalidSurface):
        SurfaceSpec(2, ())
    assert SPEC.delta_winding(1) == -2
    assert SurfaceSpec(2, (0, 2)).delta_winding(1) == -1


def test_vector_lengths():
    with pytest.raises(DimensionMismatch):
        AbsVec(SPEC, (1, 0, 0))
    with pytest.raises(DimensionMismatch):
        RelVec(SPEC, (1, 0, 0, 0))
    # for n = 1 the relative lattice coincides with the absolute one
    assert SPEC1.rel_rank == SPEC1.abs_rank


def test_symplectic_pairing_examples():
    x1, y1 = x_curve(SPEC, 1), y_curve(SPEC, 1)
    assert symplectic_pairing(x1, y1) == 1
    assert symplectic_pairing(x1, x_curve(SPEC, 2)) == 0
    assert symplectic_pairing(y1, x1) == -1


def test_rel_punct_pairing_examples():
    a2 = arc_class(SPEC, 2)
    d2 = point_loop(SPEC, 2)
    assert rel_punct_pairing(a2, d2) == 1
    assert rel_punct_pairing(a2, as_punct(x_curve(SPEC, 1))) == 0
    assert rel_punct_pairing(as_rel(x_curve(SPEC, 1)), as_punct(y_curve(SPEC, 1))) == 1


def test_project_examples():
    d2 = point_loop(SPEC, 2)
    assert project_punct(d2).is_zero()
    assert project_punct(d2 + as_punct(x_curve(SPEC, 1))) == x_curve(SPEC, 1)
    v = as_punct(x_curve(SPEC, 1) + y_curve(SPEC, 2))
    assert project_punct(v) == x_curve(SPEC, 1) + y_curve(SPEC, 2)


def test_point_loop_one():
    # the loop around p_1 is minus the sum of the other loops
    d1 = point_loop(SPEC, 1)
    assert d1 + point_loop(SPEC, 2) == PunctVec(SPEC, (0,) * 5)
    assert point_loop(SPEC1, 1).is_zero()


coords_pairs = st.tuples(
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
)


@settings(max_examples=80, deadline=None)
@given(coords_pairs)
def test_pairing_antisymmetric(pair):
    u = AbsVec(SPEC, tuple(pair[0]))
    v = AbsVec(SPEC, tuple(pair[1]))
    assert symplectic_pairing(u, v) == -symplectic_pairing(v, u)


@settings(max_examples=80, deadline=None)
@given(coords_pairs, st.integers(-5, 5))
def test_pairing_bilinear(pair, k):
    u = AbsVec(SPEC, tuple(pair[0]))
    v = AbsVec(SPEC, tuple(pair[1]))
    assert symplectic_pairing(k * u, v) == k * symplectic_pairing(u, v)
    assert symplectic_pairing(u + v, v) == symplectic_pairing(u, v)


def test_pairing_restriction_agrees():
    for u in abs_basis(SPEC):
        for v in abs_basis(SPEC):
            assert rel_punct_pairing(as_rel(u), as_punct(v)) == symplectic_pairing(u, v)


def _det_bareiss(rows):
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


@pytest.mark.parametrize("spec", [SPEC1, SPEC, SurfaceSpec(3, (1, 1, 2))])
def test_pairing_matrix_unimodular(spec):
    # Gram matrix of rel_punct_pairing itself on the relative and punctured basis vectors
    r = spec.rel_rank
    units = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    gram = [
        [rel_punct_pairing(RelVec(spec, u), PunctVec(spec, v)) for v in units] for u in units
    ]
    det = _det_bareiss(gram)
    assert det in (1, -1)


@pytest.mark.parametrize("build", [x_curve, y_curve, point_loop], ids=lambda b: b.__name__)
def test_basis_indices_start_at_one(build):
    assert build(SPEC, 1).spec == SPEC
    with pytest.raises(DimensionMismatch, match=r"index 0 out of range 1\.\."):
        build(SPEC, 0)


def test_cohom_evaluate_at_genus_three():
    # at g = 2, 2 + g == 2g: only g >= 3 tells the rank 2g from 2 + g
    spec = SurfaceSpec(3, (4,))
    th = CohomClass((1, 0, 1, 1, 0, 1))
    for c in range(64):
        coords = tuple((c >> j) & 1 for j in range(6))
        assert th.evaluate(AbsVec(spec, coords)) == sum(t * x for t, x in zip(th.bits, coords)) % 2
    with pytest.raises(DimensionMismatch):
        th.evaluate((1, 0, 0, 0, 0))


def test_dual_bits_and_cohom():
    x1 = x_curve(SPEC, 1)
    th = CohomClass.pairing_with(x1)
    assert th.evaluate(y_curve(SPEC, 1)) == 1
    assert th.evaluate(x1) == 0
    assert (th + th).is_zero()
    assert CohomClass.zero(2).is_zero()
    assert th.bits == (0, 1, 0, 0)
    assert CohomClass((1, 0, 1, 1)) + CohomClass((0, 0, 1, 0)) == CohomClass((1, 0, 0, 1))
    assert len({CohomClass((1, 0, 0, 0)), CohomClass((1, 0, 0, 0)), th}) == 2
    with pytest.raises(SpecMismatch):
        symplectic_pairing(x1, x_curve(SurfaceSpec(3, (4,)), 1))
