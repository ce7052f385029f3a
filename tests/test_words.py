import hashlib
import random

import pytest

from framedhom.errors import (
    DimensionMismatch,
    NotPrimitive,
    PointPushOnArcs,
    SpecMismatch,
    WindingParityMismatch,
)
from framedhom.framing import Framing, arf
from framedhom.lattice import (
    RelVec,
    SurfaceSpec,
    arc_class,
    as_punct,
    as_rel,
    point_loop,
    x_curve,
    y_curve,
)
from framedhom.paut import compose, identity_mat, transvection
from framedhom.sampling import (
    random_exotic_word,
    random_framing,
    random_paut,
    random_spec,
    random_standard_word,
    refactored_word,
)
from framedhom.words import (
    PointPush,
    Twist,
    Word,
    act_framing,
    act_rel,
    check_twist_winding,
    delta_word,
    standard_twists,
    track_curve,
    word_to_paut,
)

import reference

SPEC = SurfaceSpec(2, (1, 1))
SPEC1 = SurfaceSpec(2, (2,))


def tw(spec, v, k=1, w=0):
    return Twist(as_punct(v), k, w)


def test_letter_validation():
    with pytest.raises(NotPrimitive):
        Twist(as_punct(2 * x_curve(SPEC, 1)), 1, 0)
    with pytest.raises(Exception):
        Twist(as_punct(x_curve(SPEC, 1)), 0, 0)
    with pytest.raises(NotPrimitive):
        PointPush(2, 2 * x_curve(SPEC, 1))
    # marked points count from 1
    assert PointPush(1, x_curve(SPEC, 1)).point == 1
    with pytest.raises(DimensionMismatch, match="marked point 0 out of range 1"):
        PointPush(0, x_curve(SPEC, 1))
    with pytest.raises(SpecMismatch):
        Word(SPEC, (tw(SPEC1, x_curve(SPEC1, 1)),))


def test_cached_maps_stay_out_of_equality():
    x1 = x_curve(SPEC, 1)
    for make in (lambda: tw(SPEC, x1, 2, 5), lambda: PointPush(2, x1)):
        a, b = make(), make()
        assert a.rank_one == b.rank_one and a.packed == b.packed
        fresh = make()
        assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
        assert "_map" not in repr(a) and "_packed" not in repr(a)
    # (u, phi) dense (1, 0, 0, 0), (0, -1, 0, 0, 0) and (1, 0, 0, 0), (0, 0, 0, 0, -1);
    # winding 0 gives a = 0, and kappa_1 = 1 the push's omega = 2 <x_1, .>, 2 on y_1
    assert tw(SPEC, x1).rank_one == (((0, 1),), ((1, -1),), 0, ())
    assert PointPush(1, x1).rank_one == (((0, 1),), ((4, -1),), 0, ((1, 2),))


def test_rank_one_supports_match_the_definitions():
    rng = random.Random(83)
    seen = set()
    for _ in range(150):
        spec = random_spec(rng, rng.choice([2, 3, 4]), rng.choice([1, 2, 3]))
        k = spec.abs_rank
        f = random_framing(rng, spec)
        letters = list(random_exotic_word(rng, spec, 6).letters)
        letters += [Twist(curve, 1, winding) for _, curve, winding in standard_twists(f)]
        letters += [PointPush(p, x_curve(spec, 1)) for p in range(1, spec.n + 1)]
        for letter in letters:
            u, phi, a, omega = letter.rank_one
            du, dphi, da, domega = reference.letter_map(letter)
            # each support lists the nonzero slots of the definition, in increasing order
            sparse = [tuple((i, v) for i, v in enumerate(d) if v) for d in (du, dphi, domega)]
            assert [u, phi, omega, a] == [*sparse, da]
            # mod 2 on the absolute slots: u, phi and the winding change (a phi + omega) / 2
            value = reference.packed((a * p + o) // 2 for p, o in zip(dphi[:k], domega))
            assert letter.packed == (reference.packed(du), reference.packed(dphi[:k]), value)
            # the same triple by each kind's own rule: a twist with odd power pulls
            # back along the transvection about c-bar and adds power * winding <., c>;
            # a push pulls back trivially and adds kappa_i <u, .>
            dual = reference.packed(reference.dual(du))
            if isinstance(letter, Twist):
                odd = (letter.power & 1, letter.power * letter.winding & 1)
            else:
                odd = (0, spec.kappa[letter.point - 1] & 1)
            assert letter.packed[1:] == tuple(dual if b else 0 for b in odd)
            if 0 in du + dphi:
                seen.add("zero coefficient")
            if isinstance(letter, Twist) and not u:
                seen.add("empty u")
            if isinstance(letter, PointPush):
                seen.add("push with omega" if omega else "push without omega")
                if letter.point == 1 and spec.n >= 3:
                    assert phi == tuple((i, -1) for i in range(k, spec.rel_rank))
                    seen.add("push of p_1")
            if letter.packed[2] and letter.packed[1] != letter.packed[2]:
                seen.add("value apart from phi")
    assert seen == {"zero coefficient", "empty u", "push with omega", "push without omega",
                    "push of p_1", "value apart from phi"}


def test_act_rel_examples():
    x1, y1 = x_curve(SPEC, 1), y_curve(SPEC, 1)
    w = Word(SPEC, (tw(SPEC, x1),))
    assert act_rel(w, as_rel(y1)) == as_rel(y1 + -x1)
    assert act_rel(w, arc_class(SPEC, 2)) == arc_class(SPEC, 2)
    push = Word(SPEC, (PointPush(2, x1),))
    assert act_rel(push, arc_class(SPEC, 2)) == arc_class(SPEC, 2) + as_rel(x1)
    # point-pushes fix the embedded absolute sublattice
    assert act_rel(push, as_rel(y1 + -3 * x1)) == as_rel(y1 + -3 * x1)


def test_word_to_paut_examples():
    assert word_to_paut(Word(SPEC, ())).is_identity()
    x1 = x_curve(SPEC, 1)
    a = word_to_paut(Word(SPEC, (tw(SPEC, x1),)))
    assert a.S == transvection(x1, 1)
    assert all(all(v == 0 for v in row) for row in a.M)
    b = word_to_paut(Word(SPEC, (PointPush(2, x1),)))
    assert b.S == identity_mat(4)
    assert b.M == ((1,), (0,), (0,), (0,))


def test_word_to_paut_multiplicative():
    rng = random.Random(2)
    for _ in range(60):
        spec = random_spec(rng, rng.choice([2, 3]), rng.choice([1, 2, 3]))
        w1 = random_exotic_word(rng, spec, rng.randint(0, 4))
        w2 = random_exotic_word(rng, spec, rng.randint(0, 4))
        lhs = word_to_paut(w1 + w2)
        rhs = compose(word_to_paut(w1), word_to_paut(w2))
        assert lhs.S == rhs.S and lhs.M == rhs.M


def test_word_to_paut_matches_letter_blocks():
    rng = random.Random(31)
    for trial in range(120):
        spec = random_spec(rng, rng.choice([2, 3, 4]), rng.choice([1, 2, 3]))
        length = rng.randint(0, 12)
        if trial % 2:
            w = random_exotic_word(rng, spec, length)
        else:
            w = random_standard_word(rng, random_framing(rng, spec), length)
        matrix, k = reference.word_matrix(w), spec.abs_rank
        got = word_to_paut(w)
        assert got.S == tuple(row[:k] for row in matrix[:k]) and got.M == tuple(row[k:] for row in matrix[:k])


def test_push_of_first_point():
    # pushing p_1 transvects by minus the loop on every arc
    x1 = x_curve(SPEC, 1)
    b = word_to_paut(Word(SPEC, (PointPush(1, x1),)))
    assert b.M == ((-1,), (0,), (0,), (0,))
    tot = word_to_paut(Word(SPEC, (PointPush(1, x1), PointPush(2, x1))))
    assert tot.is_identity()


def test_act_framing_examples():
    f = Framing(SPEC1, (3, 0), (0, 0))
    x1 = x_curve(SPEC1, 1)
    # twisting about x_1 never changes phi(x_1)
    f2 = act_framing(Word(SPEC1, (tw(SPEC1, x1, 1, 3),)), f)
    assert f2.wind_x[0] == 3
    # new phi(y_1) = 0 - <y_1, x_1> * 3 = 3
    assert f2.wind_y[0] == 3
    # applying the inverse twist recovers the original framing
    inv = act_framing(Word(SPEC1, (tw(SPEC1, x1, -1, 3),)), f2)
    assert inv == f


def test_square_twist_fixes_q_vector():
    rng = random.Random(5)
    for _ in range(40):
        spec = random_spec(rng, 2, rng.choice([1, 2]))
        f = random_framing(rng, spec)
        _, curve, winding = rng.choice(standard_twists(f))
        w = Word(spec, (Twist(curve, 2, winding),))
        assert act_framing(w, f).qphi == f.qphi


def _push_words(rng, f, count):
    """Standard and exotic words over f's surface, each holding at least one push."""
    spec = f.spec
    out = []
    while len(out) < count:
        length = rng.randint(1, 12)
        if len(out) % 2:
            w = random_exotic_word(rng, spec, length)
        else:
            w = random_standard_word(rng, f, length)
        if w.has_pushes():
            out.append(w)
    return out


def test_push_winding_update_against_own_transport():
    rng = random.Random(47)
    for _ in range(40):
        spec = random_spec(rng, rng.choice([2, 3, 4]), rng.choice([1, 2, 3]))
        f = random_framing(rng, spec, with_arcs=False)
        for w in _push_words(rng, f, 3):
            # the benchmark's letter-by-letter transport of the windings
            got = act_framing(w, f)
            assert (got.wind_x, got.wind_y, got.arc2) == reference.checks.transported_windings(w, f)
            start = RelVec(spec, tuple(rng.randint(-3, 3) for _ in range(spec.rel_rank)))
            w2 = 2 * rng.randint(-5, 5)
            cls, tracked = track_curve(w, start, w2)
            assert (cls.coords, tracked) == reference.transport(w, start.coords, w2)


def test_push_winding_hand_example():
    # kappa = (0, 2): pushing p_2 around x_1 changes phi(y_1) by kappa_2 <x_1, y_1>
    spec = SurfaceSpec(2, (0, 2))
    x1, y1 = x_curve(spec, 1), y_curve(spec, 1)
    w = Word(spec, (PointPush(2, x1),))
    f = Framing(spec, (1, 4), (3, -2))
    # (w . phi)(y_1) = phi(w^{-1} y_1) = 3 + kappa_2 <-x_1, y_1> = 3 - 2
    assert act_framing(w, f) == Framing(spec, (1, 4), (1, -2))
    assert track_curve(w, as_rel(y1), 6) == (as_rel(y1), 10)
    assert track_curve(w, as_rel(x1), 2) == (as_rel(x1), 2)
    # the push moves the arc a_2 by the loop and leaves its winding
    assert track_curve(w, arc_class(spec, 2), 1) == (arc_class(spec, 2) + as_rel(x1), 1)
    # p_1 has kappa_1 = 0: its push fixes every winding
    assert act_framing(Word(spec, (PointPush(1, x1),)), f) == f


def test_point_push_on_arcs_rejected():
    f = Framing(SPEC, (0, 0), (0, 0), (-1,))
    w = Word(SPEC, (PointPush(2, x_curve(SPEC, 1)),))
    with pytest.raises(PointPushOnArcs):
        act_framing(w, f)
    # without arc data the push acts fine
    f2 = Framing(SPEC, (0, 0), (0, 0), None)
    assert act_framing(w, f2).spec == SPEC


def test_delta_word_examples():
    f = Framing(SPEC, (0, 0), (0, 0), (-1,))
    assert delta_word(Word(SPEC, ()), f).is_zero()
    x1 = x_curve(SPEC, 1)
    assert delta_word(Word(SPEC, (tw(SPEC, x1, 2, 7),)), f).is_zero()
    th = delta_word(Word(SPEC, (PointPush(2, x1),)), f)
    assert not th.is_zero()
    assert th.bits[1] == 1  # the value at y_1


def test_delta_ignores_boundary_twists():
    f = Framing(SPEC, (0, 0), (0, 0), (-1,))
    w = Word(SPEC, (Twist(point_loop(SPEC, 2), 1, SPEC.delta_winding(2)),))
    assert delta_word(w, f).is_zero()
    assert word_to_paut(w).is_identity()


def test_delta_matches_framing_action():
    # evaluated on a basis class b, the defect is phi(w(b)) - phi(b) mod 2:
    # delta_word folds the letters' packed mod-2 triples, track_curve reads
    # the integral winding-change row
    rng = random.Random(13)
    for trial in range(120):
        spec = random_spec(rng, 2 + trial % 3, 1 + (trial // 3) % 3)
        f = random_framing(rng, spec, with_arcs=False)
        words = [random_standard_word(rng, f, rng.randint(1, 5), pushes=False), *_push_words(rng, f, 3)]
        for w in words:
            th = delta_word(w, f)
            for i in range(1, spec.g + 1):
                for curve, wind in ((x_curve(spec, i), f.wind_x[i - 1]), (y_curve(spec, i), f.wind_y[i - 1])):
                    _, w2 = track_curve(w, as_rel(curve), 2 * wind)
                    assert ((w2 // 2 - wind) % 2) == th.bits[curve.coords.index(1)]


def _action_cases(rng, count):
    """(w1, w2, f): twist-only words if f has arc data, words with pushes if not."""
    for trial in range(count):
        spec = random_spec(rng, 2 + trial % 3, 1 + (trial // 3) % 3)
        if trial % 2:
            f = random_framing(rng, spec, with_arcs=False)
            w1, w2 = _push_words(rng, f, 2)
        else:
            f = random_framing(rng, spec)
            w1, w2 = (
                Word(spec, tuple(l for l in w.letters if isinstance(l, Twist)))
                for w in (random_exotic_word(rng, spec, rng.randint(0, 12)),
                          random_standard_word(rng, f, rng.randint(0, 12), pushes=False))
            )
        yield w1, w2, f


def test_act_framing_is_a_left_action():
    # (w1 w2) . f = w1 . (w2 . f), once w1's twists declare their windings
    # under w2 . f; the inverse word undoes w, in one word or in two steps
    rng = random.Random(83)
    for w1, w2, f in _action_cases(rng, 120):
        f2 = act_framing(w2, f)
        assert act_framing(w1 + w2, f) == act_framing(reference.rewound(w1, w2), f2)
        assert act_framing(w2 + w2.inverse(), f) == f == act_framing(w2.inverse() + w2, f)
        assert act_framing(reference.rewound(w2.inverse(), w2), f2) == f
    # a twist keeps its declared winding: Tx1 declared under f acts on
    # Ty1 . f, where x_1 winds 0 - <x_1, y_1> 3 = -3, not as in Tx1 Ty1
    f = Framing(SPEC1, (0, 0), (3, 0))
    x1, y1 = x_curve(SPEC1, 1), y_curve(SPEC1, 1)
    tx, ty = Word(SPEC1, (tw(SPEC1, x1, 1, 0),)), Word(SPEC1, (tw(SPEC1, y1, 1, 3),))
    assert reference.rewound(tx, ty) == Word(SPEC1, (tw(SPEC1, x1, 1, -3),))
    assert act_framing(tx + ty, f) != act_framing(tx, act_framing(ty, f))


def test_boundary_twist_changes_arc_winding():
    # even kappa: the puncture loop has odd winding and flips the arc class
    spec = SurfaceSpec(2, (2, 0))
    f = Framing(spec, (0, 0), (0, 0), (-1,))
    w = Word(spec, (Twist(point_loop(spec, 2), 1, spec.delta_winding(2)),))
    f2 = act_framing(w, f)
    assert f2.arc2[0] != f.arc2[0]
    assert (f2.arc2[0] - f.arc2[0]) % 4 != 0  # parity class flipped (odd multiple of 2)
    assert arf(f2) == arf(f)
    # odd kappa: the loop winding is even, the class is preserved
    f3 = Framing(SPEC, (0, 0), (0, 0), (-1,))
    w3 = Word(SPEC, (Twist(point_loop(SPEC, 2), 1, SPEC.delta_winding(2)),))
    f4 = act_framing(w3, f3)
    assert (f4.arc2[0] - f3.arc2[0]) % 4 == 0
    assert arf(f4) == arf(f3)


def test_standard_alphabet_names():
    f = Framing(SPEC, (4, 5), (6, 7), (-1,))
    windings = {name: winding for name, _, winding in standard_twists(f)}
    assert windings == {"Tx1": 4, "Ty1": 6, "Tx2": 5, "Ty2": 7, "Td1": -2, "Td2": -2}
    # n = 1: the puncture loop is nullhomologous, no Td letters
    f1 = Framing(SPEC1, (0, 0), (0, 0))
    assert [name for name, _, _ in standard_twists(f1)] == ["Tx1", "Ty1", "Tx2", "Ty2"]


def test_twist_windings_of_the_standard_alphabet_and_refactored_words_pass():
    rng = random.Random(61)
    for _ in range(60):
        spec = random_spec(rng, rng.choice([2, 3, 4]), rng.choice([1, 2, 3, 4]))
        f = random_framing(rng, spec)
        for _, curve, winding in standard_twists(f):
            check_twist_winding(Twist(curve, 1, winding), f)
        for letter in refactored_word(f, random_paut(rng, spec, 4)).letters:
            if isinstance(letter, Twist):
                check_twist_winding(letter, f)


def test_twist_winding_parity_is_checked_against_the_class():
    spec = SurfaceSpec(2, (1, 1))
    f = Framing.zeros(spec)
    x1_d2 = as_punct(x_curve(spec, 1)) + point_loop(spec, 2)
    check_twist_winding(Twist(x1_d2, 1, 5), f)
    for bad in (Twist(x1_d2, 1, 4), Twist(as_punct(x_curve(spec, 1)), 3, 1)):
        with pytest.raises(WindingParityMismatch):
            check_twist_winding(bad, f)
    with pytest.raises(SpecMismatch):
        check_twist_winding(Twist(as_punct(x_curve(SPEC1, 1)), 1, 0), f)


def _word_cases(rng, count):
    """Seeded (word, framing) pairs over g 2-4, n 1-3, cycling through word kinds.

    Kinds: standard words with pushes, standard words without, exotic words;
    framings alternate with and without arc data.  A framing with arc data
    meets a pushing word only at n = 1, where pushes act on it.
    """
    for trial in range(count):
        spec = random_spec(rng, 2 + trial % 3, 1 + (trial // 3) % 3)
        f = random_framing(rng, spec, with_arcs=trial % 2 == 0)
        length = rng.randint(0, 16)
        kind = trial % 3
        if kind == 2:
            w = random_exotic_word(rng, spec, length)
        else:
            w = random_standard_word(rng, f, length, pushes=kind == 0)
        if f.has_arc_data and spec.n >= 2 and w.has_pushes():
            f = Framing(spec, f.wind_x, f.wind_y, None)
        yield w, f


def test_word_actions_are_pinned():
    # sha256 of word_to_paut, act_rel on every relative basis vector,
    # track_curve, act_framing and delta_word on 360 seeded words, recorded
    # before the letters' maps became sparse supports: the results must not
    # change
    rng = random.Random(1717)
    digest = hashlib.sha256()
    for w, f in _word_cases(rng, 360):
        spec = w.spec
        r = spec.rel_rank
        a = word_to_paut(w)
        basis = [RelVec(spec, tuple(int(i == j) for i in range(r))) for j in range(r)]
        start = RelVec(spec, tuple(rng.randint(-4, 4) for _ in range(r)))
        w2 = 2 * rng.randint(-5, 5)
        digest.update(
            repr(
                (
                    a.S,
                    a.M,
                    [act_rel(w, x).coords for x in basis],
                    track_curve(w, start, w2),
                    act_framing(w, f),
                    delta_word(w, f).packed,
                )
            ).encode()
        )
    assert digest.hexdigest() == "23d8bcf981578e741331b3da2c7a2bf644b7920db73ec1155fcae1f1f6fa4e85"
