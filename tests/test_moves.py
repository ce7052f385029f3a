import random

import pytest

from framedhom.errors import ArfMismatch, MissingArcData, MoveError, QVectorMismatch, SpecMismatch, TooLarge
from framedhom.framing import Framing, arf, q_vector
from framedhom.lattice import SurfaceSpec
from framedhom.moves import MAX_MOVES, ArcParityTwist, BoundaryTwist, ConnectSum, apply_move, match_framings
from framedhom.sampling import random_framing, random_spec
from framedhom.verify import _random_move


def test_connect_sum_examples():
    spec = SurfaceSpec(2, (1, 1))
    f = Framing.zeros(spec)
    g = apply_move(f, ConnectSum("x", 1, 2, 1))
    assert g.wind_x == (2, 0) and g.wind_y == f.wind_y and g.arc2 == f.arc2
    g2 = apply_move(g, ConnectSum("x", 1, 2, 1))
    assert g2.wind_x == (4, 0)  # phi(b) -> phi(b) + 2 each time
    a = apply_move(f, ConnectSum("a", 2, 1, -1))
    assert a.arc2 == (-5,)  # arc winding moved by -2, stored doubled
    with pytest.raises(MoveError):
        apply_move(f, ConnectSum("x", 1, 1, 1))
    with pytest.raises(MoveError):
        apply_move(f, ConnectSum("z", 1, 2, 1))


def test_boundary_twist_example():
    spec = SurfaceSpec(2, (2, 0))
    f = Framing.zeros(spec)
    g = apply_move(f, BoundaryTwist(2))  # kappa_2 = 0, phi(Delta_2) = -1
    assert g.arc2 == (f.arc2[0] - 2,)
    with pytest.raises(MoveError):
        apply_move(Framing.zeros(SurfaceSpec(2, (1, 1))), BoundaryTwist(2))


def test_arc_parity_twist_example():
    spec = SurfaceSpec(3, (2, 1, 1))
    f = Framing.zeros(spec)
    g = apply_move(f, ArcParityTwist(2, 3))
    # w_d = kappa_2 + kappa_3 + 1 = 3, both arcs shift by 6
    assert g.arc2 == (f.arc2[0] + 6, f.arc2[1] + 6)
    with pytest.raises(MoveError):
        apply_move(f, ArcParityTwist(2, 4))  # arc 4 out of range
    with pytest.raises(MoveError):
        # kappa_2 even: the pants hypothesis fails
        apply_move(Framing.zeros(SurfaceSpec(3, (1, 2, 1))), ArcParityTwist(2, 3))
    with pytest.raises(MoveError):
        ArcParityTwist(2, 2)


def test_moves_need_arc_data():
    spec = SurfaceSpec(2, (1, 1))
    f = Framing(spec, (0, 0), (0, 0), None)
    with pytest.raises(MissingArcData):
        apply_move(f, ConnectSum("a", 2, 1, 1))


def test_every_move_preserves_arf():
    rng = random.Random(2)
    for _ in range(300):
        spec = random_spec(rng, rng.choice([2, 3, 4]), rng.choice([1, 2, 3, 4]))
        f = random_framing(rng, spec)
        m = _random_move(rng, f)
        g = apply_move(f, m)
        assert arf(g) == arf(f)
        assert q_vector(g) == q_vector(f)


def test_match_examples():
    spec = SurfaceSpec(2, (1, 1))
    f = Framing.zeros(spec)
    assert match_framings(f, f) == []
    h = Framing(spec, (2, 0), (0, 0), (-1,))
    moves = match_framings(f, h)
    assert moves == [ConnectSum("x", 1, 2, 1)]
    bad = Framing(spec, (1, 0), (0, 0), (-1,))
    with pytest.raises(QVectorMismatch):
        match_framings(f, bad)


def test_match_arf_mismatch():
    spec = SurfaceSpec(2, (1, 1))
    f = Framing.zeros(spec)
    # flip one odd-kappa arc parity class: Arf changes, q-vector does not
    h = Framing(spec, (0, 0), (0, 0), (1,))
    assert q_vector(f) == q_vector(h) and arf(f) != arf(h)
    with pytest.raises(ArfMismatch):
        match_framings(f, h)


def test_match_refuses_a_sequence_above_the_cap_before_building_it():
    spec = SurfaceSpec(2, (1, 1))
    far = Framing(spec, (2 * 10**9, 0), (0, 0), (-1,))
    with pytest.raises(TooLarge, match="1000000000 moves"):
        match_framings(Framing.zeros(spec), far)


def test_match_returns_a_sequence_of_exactly_the_cap():
    # curve connect-sums, one boundary-twist repair and arc connect-sums, MAX_MOVES in all
    spec = SurfaceSpec(2, (2, 0))
    f = Framing.zeros(spec)
    arcs = 1000
    curves = MAX_MOVES - 1 - arcs
    h = Framing(spec, (2 * curves, 0), (0, 0), (-1 - 2 + 4 * arcs,))
    moves = match_framings(f, h)
    assert len(moves) == MAX_MOVES
    assert moves[curves] == BoundaryTwist(2) and moves[-1] == ConnectSum("a", 2, 1, 1)
    with pytest.raises(TooLarge):
        match_framings(f, Framing(spec, (2 * curves + 2, 0), (0, 0), h.arc2))


def test_match_spec_mismatch():
    with pytest.raises(SpecMismatch):
        match_framings(Framing.zeros(SurfaceSpec(2, (1, 1))), Framing.zeros(SurfaceSpec(2, (2, 0))))


def test_match_roundtrip_random():
    rng = random.Random(3)
    for _ in range(300):
        spec = random_spec(rng, rng.choice([2, 3, 4]), rng.choice([1, 2, 3, 4]))
        f = random_framing(rng, spec)
        h = f
        for _ in range(rng.randint(0, 8)):
            h = apply_move(h, _random_move(rng, h))
        moves = match_framings(f, h)
        cur = f
        for m in moves:
            cur = apply_move(cur, m)
        assert cur == h
        # sanity bound: linear in the winding gap (parity repairs shift arc
        # windings by 2 w_d, so allow a per-arc allowance on top)
        gap = sum(abs(a - b) for a, b in zip(f.curve_windings(), h.curve_windings()))
        if spec.n >= 2:
            gap += sum(abs(a - b) // 2 for a, b in zip(f.arc2, h.arc2))
        allowance = 2 * spec.n + sum(abs(k) + 1 for k in spec.kappa)
        assert len(moves) <= gap // 2 + allowance
