import hashlib
import random
import re

import pytest

from framedhom import moves as moves_module
from framedhom.errors import (
    ArfMismatch,
    FramedHomError,
    MissingArcData,
    MoveError,
    QVectorMismatch,
    SpecMismatch,
    TooLarge,
)
from framedhom.framing import Framing, arf
from framedhom.lattice import SurfaceSpec
from framedhom.moves import MAX_MOVES, ArcParityTwist, BoundaryTwist, ConnectSum, apply_move, match_framings
from framedhom.sampling import random_framing, random_move, random_spec


def _exactly(message):
    return f"^{re.escape(message)}$"


def test_connect_sum_examples():
    spec = SurfaceSpec(2, (1, 1))
    f = Framing.zeros(spec)
    g = apply_move(f, ConnectSum("x", 1, 2, 1))
    assert g.wind_x == (2, 0) and g.wind_y == f.wind_y and g.arc2 == f.arc2
    g2 = apply_move(g, ConnectSum("x", 1, 2, 1))
    assert g2.wind_x == (4, 0)  # phi(b) -> phi(b) + 2 each time
    a = apply_move(f, ConnectSum("a", 2, 1, -1))
    assert a.arc2 == (-5,)  # arc winding moved by -2, stored doubled
    with pytest.raises(MoveError, match=_exactly("connect-sum helper must be a different handle")):
        apply_move(f, ConnectSum("x", 1, 1, 1))
    with pytest.raises(MoveError, match=_exactly("unknown connect-sum target kind 'z'")):
        apply_move(f, ConnectSum("z", 1, 2, 1))


def test_boundary_twist_example():
    spec = SurfaceSpec(2, (2, 0))
    f = Framing.zeros(spec)
    g = apply_move(f, BoundaryTwist(2))  # kappa_2 = 0, phi(Delta_2) = -1
    assert g.arc2 == (f.arc2[0] - 2,)
    with pytest.raises(MoveError, match=_exactly("boundary twist needs an even kappa entry (odd signature)")):
        apply_move(Framing.zeros(SurfaceSpec(2, (1, 1))), BoundaryTwist(2))


def test_arc_parity_twist_example():
    spec = SurfaceSpec(3, (2, 1, 1))
    f = Framing.zeros(spec)
    g = apply_move(f, ArcParityTwist(2, 3))
    # w_d = kappa_2 + kappa_3 + 1 = 3, both arcs shift by 6
    assert g.arc2 == (f.arc2[0] + 6, f.arc2[1] + 6)
    with pytest.raises(MoveError, match=_exactly("arc index 4 out of range 2..3")):
        apply_move(f, ArcParityTwist(2, 4))
    with pytest.raises(MoveError, match=_exactly("pants twist needs both kappa entries odd")):
        # kappa_2 even: the pants hypothesis fails
        apply_move(Framing.zeros(SurfaceSpec(3, (1, 2, 1))), ArcParityTwist(2, 3))
    with pytest.raises(MoveError, match=_exactly("pants twist needs two distinct arcs")):
        ArcParityTwist(2, 2)


def test_moves_need_arc_data():
    spec = SurfaceSpec(2, (1, 1))
    f = Framing(spec, (0, 0), (0, 0), None)
    with pytest.raises(MissingArcData, match=_exactly("move touches arc windings but the framing has none")):
        apply_move(f, ConnectSum("a", 2, 1, 1))


def test_every_move_preserves_arf():
    rng = random.Random(2)
    for _ in range(300):
        spec = random_spec(rng, rng.choice([2, 3, 4]), rng.choice([1, 2, 3, 4]))
        f = random_framing(rng, spec)
        m = random_move(rng, f)
        g = apply_move(f, m)
        assert arf(g) == arf(f)
        assert g.qphi == f.qphi


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
    # flip one odd-kappa arc parity class: Arf changes, q_phi does not
    h = Framing(spec, (0, 0), (0, 0), (1,))
    assert f.qphi == h.qphi and arf(f) != arf(h)
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


def test_match_certificate_catches_a_wrong_slot_map(monkeypatch):
    # match_framings writes each connect-sum from its slot and certifies the
    # list through _shifts, the reverse map: an x connect-sum that _shifts
    # lands on the y slot must make the certificate fail
    shifts = moves_module._shifts

    def x_on_y(f, m):
        out = shifts(f, m)
        if isinstance(m, ConnectSum) and m.kind == "x":
            return tuple((slot + 1, change) for slot, change in out)
        return out

    monkeypatch.setattr(moves_module, "_shifts", x_on_y)
    spec = SurfaceSpec(2, (1, 1))
    with pytest.raises(AssertionError, match="did not reach the target framing"):
        match_framings(Framing.zeros(spec), Framing(spec, (2, 0), (0, 0), (-1,)))


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
            h = apply_move(h, random_move(rng, h))
        moves = match_framings(f, h)
        cur = f
        for m in moves:
            cur = apply_move(cur, m)
        assert cur == h
        # sanity bound: linear in the winding gap (parity repairs shift arc
        # windings by 2 w_d, so allow a per-arc allowance on top)
        gap = sum(abs(a - b) for a, b in zip(f.wind_x + f.wind_y, h.wind_x + h.wind_y))
        if spec.n >= 2:
            gap += sum(abs(a - b) // 2 for a, b in zip(f.arc2, h.arc2))
        allowance = 2 * spec.n + sum(abs(k) + 1 for k in spec.kappa)
        assert len(moves) <= gap // 2 + allowance


@pytest.mark.parametrize("kappa", [(0, 1, 1, 1, 1), (0, 1, 1, 1, 1, 2)])
def test_match_repairs_four_flipped_odd_arcs(kappa):
    # every odd-kappa arc (2..5) in the other parity class: match must pair
    # the four into two pants twists, whichever two the target was made with
    spec = SurfaceSpec(sum(kappa) // 2 + 1, kappa)
    rng = random.Random(len(kappa))
    for _ in range(40):
        f = random_framing(rng, spec)
        a, b, c, d = rng.sample(range(2, 6), 4)
        h = apply_move(apply_move(f, ArcParityTwist(a, b)), ArcParityTwist(c, d))
        for _ in range(rng.randint(0, 4)):
            m = random_move(rng, h)
            if not isinstance(m, ArcParityTwist):  # leave the four flips in place
                h = apply_move(h, m)
        moves = match_framings(f, h)
        assert sum(isinstance(m, ArcParityTwist) for m in moves) == 2
        cur = f
        for m in moves:
            cur = apply_move(cur, m)
        assert cur == h


def _any_move(rng, spec):
    """A move drawn without regard to its legality on spec."""
    kind = rng.choice(["cs", "apt", "bt"])
    if kind == "cs":
        kind, index, helper = rng.choice("xya"), rng.randint(0, spec.g + 1), rng.randint(0, spec.g + 1)
        return ConnectSum(kind, index, helper, rng.choice([1, -1]))
    if kind == "apt":
        j1, j2 = rng.sample(range(1, spec.n + 2), 2)
        return ArcParityTwist(j1, j2)
    return BoundaryTwist(rng.randint(1, spec.n + 1))


def test_moves_are_pinned():
    # sha256 of apply_move on random legal moves and on moves drawn without
    # regard to legality (the result, or the error class and message), and of
    # match_framings on the pairs so made, over 600 seeded framings; recorded
    # before moves became fixed shifts of the doubled winding vector
    rng = random.Random(1919)
    digest = hashlib.sha256()
    for _ in range(600):
        spec = random_spec(rng, rng.choice([2, 3, 4]), rng.choice([1, 2, 3, 4]))
        f = random_framing(rng, spec, with_arcs=rng.random() < 0.9)
        outcomes = []
        for _ in range(3):
            try:
                outcomes.append(apply_move(f, _any_move(rng, spec)))
            except FramedHomError as exc:
                outcomes.append((type(exc).__name__, str(exc)))
        if not f.has_arc_data:
            digest.update(repr(outcomes).encode())
            continue
        h = f
        for _ in range(rng.randint(0, 8)):
            h = apply_move(h, random_move(rng, h))
            outcomes.append(h)
        digest.update(repr((outcomes, match_framings(f, h))).encode())
    assert digest.hexdigest() == "a8b2142669dcb6bc3f3744851295c4ba20f33efbb7d62c5fc545a390e952a240"
