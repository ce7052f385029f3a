"""The value classes' shared contract (framedhom.value.Value): equality, hash, repr, immutability."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from framedhom.bruteforce import Mod2Group, QFormCensus
from framedhom.framing import Framing, QForm
from framedhom.kernel import StructureReport
from framedhom.lattice import (
    AbsVec,
    CohomClass,
    PunctVec,
    RelVec,
    SurfaceSpec,
    ZeroChain,
    arc_class,
    point_class,
    point_loop,
    x_curve,
    y_curve,
)
from framedhom.moves import ArcParityTwist, BoundaryTwist, ConnectSum
from framedhom.paut import PAutElem, factor_sp, identity_mat, transvection
from framedhom.value import Value
from framedhom.verify import Check, Draw, Row, Suite, SuiteResult
from framedhom.words import PointPush, Twist, Word

S11 = SurfaceSpec(2, (1, 1))
S11_REPR = "SurfaceSpec(g=2, kappa=(1, 1))"
# a random check's draw and property, by builtins: they print and pickle by name
DRAW = "Draw(rest=<built-in function sum>, genera=(2, 3), ns=(1, 2, 3), even=False, share=(1, 1), stream=None)"


def _spec_slots(g, kappa):
    """SurfaceSpec's slots outside its fields, by their definitions in plain integers."""
    n = len(kappa)
    vbar = sum(k % 2 * 2**j for j, k in enumerate(kappa[1:]))  # bit j: kappa_{j+2} mod 2
    return {"n": n, "abs_rank": 2 * g, "rel_rank": 2 * g + n - 1, "zero_rank": n - 1, "vbar": vbar}


def _qphi(wind_x, wind_y):
    """Framing's slot outside its fields: bit j is phi(b_j) + 1 mod 2, b = x_1, y_1, ..."""
    basis = [w for pair in zip(wind_x, wind_y) for w in pair]
    return {"qphi": sum((w + 1) % 2 * 2**j for j, w in enumerate(basis))}


# one instance of each value class, built afresh on each call, and its repr
# as the record-class decorator printed it before the classes moved onto Value;
# a third entry maps each slot kept outside `_fields` to its defined value
VALUES = [
    (
        lambda: SurfaceSpec(3, (-1, 2, -3, 6)),
        "SurfaceSpec(g=3, kappa=(-1, 2, -3, 6))",
        _spec_slots(3, (-1, 2, -3, 6)),
    ),
    (lambda: AbsVec(S11, (1, 0, 0, -2)), f"AbsVec(spec={S11_REPR}, coords=(1, 0, 0, -2))"),
    (lambda: RelVec(S11, (0, 1, 0, 0, 3)), f"RelVec(spec={S11_REPR}, coords=(0, 1, 0, 0, 3))"),
    (lambda: PunctVec(S11, (1, 0, 0, 0, -1)), f"PunctVec(spec={S11_REPR}, coords=(1, 0, 0, 0, -1))"),
    (lambda: ZeroChain(S11, (2,)), f"ZeroChain(spec={S11_REPR}, coords=(2,))"),
    (lambda: CohomClass((1, 0, 0, 1)), "CohomClass(g=2, packed=9)"),
    (lambda: QForm((1, 0), (0, 1)), "QForm(g=2, packed=9)"),
    (
        lambda: Framing(S11, (0, 1), (1, 0), (-1,)),
        f"Framing(spec={S11_REPR}, wind_x=(0, 1), wind_y=(1, 0), arc2=(-1,))",
        _qphi((0, 1), (1, 0)),
    ),
    (
        lambda: Framing(SurfaceSpec(2, (2,)), (0, -1), (-2, 0)),
        "Framing(spec=SurfaceSpec(g=2, kappa=(2,)), wind_x=(0, -1), wind_y=(-2, 0), arc2=())",
        _qphi((0, -1), (-2, 0)),
    ),
    (
        lambda: PAutElem(2, 2, identity_mat(4), ((1,), (0,), (0,), (-2,))),
        "PAutElem(g=2, n=2, S=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),"
        " M=((1,), (0,), (0,), (-2,)))",
    ),
    (
        lambda: StructureReport("even", q=QForm((0, 0), (1, 1)), arf=0, mod2_kernel_order=720),
        "StructureReport(regime='even', q=QForm(g=2, packed=10), arf=0, v_bar=None, mod2_kernel_order=720)",
    ),
    (
        lambda: StructureReport("odd", v_bar=(1,)),
        "StructureReport(regime='odd', q=None, arf=None, v_bar=(1,), mod2_kernel_order=None)",
    ),
    (
        lambda: Twist(PunctVec(S11, (1, 0, 0, 0, -1)), -2, 3),
        f"Twist(curve=PunctVec(spec={S11_REPR}, coords=(1, 0, 0, 0, -1)), power=-2, winding=3)",
    ),
    (
        lambda: PointPush(2, AbsVec(S11, (0, 1, 0, 0))),
        f"PointPush(point=2, loop=AbsVec(spec={S11_REPR}, coords=(0, 1, 0, 0)))",
    ),
    (
        lambda: Word(S11, (Twist(PunctVec(S11, (1, 0, 0, 0, 0))), PointPush(1, AbsVec(S11, (0, 0, 1, 0))))),
        f"Word(spec={S11_REPR}, letters=(Twist(curve=PunctVec(spec={S11_REPR}, coords=(1, 0, 0, 0, 0)),"
        f" power=1, winding=0), PointPush(point=1, loop=AbsVec(spec={S11_REPR}, coords=(0, 0, 1, 0)))))",
    ),
    (lambda: ConnectSum("x", 1, 2, -1), "ConnectSum(kind='x', index=1, helper=2, sign=-1)"),
    (lambda: ArcParityTwist(2, 3), "ArcParityTwist(j1=2, j2=3)"),
    (lambda: BoundaryTwist(2), "BoundaryTwist(j=2)"),
    (
        lambda: Mod2Group(1, np.array([1, 2], dtype=np.uint64), [1, 2]),
        "Mod2Group(g=1, keys=array([1, 2], dtype=uint64), gens=[1, 2])",
    ),
    (
        lambda: QFormCensus(3, 1, {0: 6, 1: 18}, ((0, 0, 6),)),
        "QFormCensus(even_count=3, odd_count=1, stabilizer_orders={0: 6, 1: 18}, per_form=((0, 0, 6),))",
    ),
    (lambda: Check("x", True, "1/1 trials"), "Check(name='x', ok=True, detail='1/1 trials')"),
    (
        lambda: SuiteResult("census", [Check("c", False)], 0.5),
        "SuiteResult(suite='census', checks=[Check(name='c', ok=False, detail='')], elapsed=0.5)",
    ),
    (lambda: Draw(sum), DRAW),
    (lambda: Row("r", "words", Draw(sum), len), f"Row(name='r', noun='words', draw={DRAW}, holds=<built-in function len>)"),
    (lambda: Suite(5, ()), "Suite(trials=5, rows=())"),
]
VALUES = [row + ({},) * (3 - len(row)) for row in VALUES]
IDS = [shown[: shown.index("(")] for _, shown, _ in VALUES]
BY_VALUE = [v for v in VALUES if not v[1].startswith("Mod2Group")]  # Mod2Group compares by identity
BY_VALUE_IDS = [i for i in IDS if i != "Mod2Group"]
KEEPING = [v for v in VALUES if v[2]]
KEEPING_IDS = [i for i, v in zip(IDS, VALUES) if v[2]]
# a dict or list field makes the instance unhashable
UNHASHABLE = ("QFormCensus", "SuiteResult")


def test_the_table_holds_every_value_class():
    def leaves(cls):
        subs = cls.__subclasses__()
        return [c for s in subs for c in leaves(s)] if subs else [cls]

    assert {c.__name__ for c in leaves(Value)} == set(IDS)


@pytest.mark.parametrize("make, shown, kept", VALUES, ids=IDS)
def test_repr_reads_as_the_record_class_repr(make, shown, kept):
    assert repr(make()) == shown


@pytest.mark.parametrize("make, shown, kept", BY_VALUE, ids=BY_VALUE_IDS)
def test_equal_fields_compare_and_hash_equal(make, shown, kept):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != object() and a != tuple(getattr(a, name) for name in a._fields)
    if shown.startswith(UNHASHABLE):
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("make, shown, kept", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(make, shown, kept):
    a = make()
    for name in (*a._fields, *kept, "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == shown
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("make, shown, kept", BY_VALUE, ids=BY_VALUE_IDS)
def test_copies_and_pickles_are_equal(make, shown, kept):
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and repr(b) == shown
        assert {name: getattr(b, name) for name in kept} == kept


@pytest.mark.parametrize("make, shown, kept", KEEPING, ids=KEEPING_IDS)
def test_kept_slots_hold_their_definitions_outside_the_fields(make, shown, kept):
    a, b = make(), make()
    assert {name: getattr(a, name) for name in kept} == kept
    assert not set(kept) & set(a._fields)
    for name in kept:  # a different value in a kept slot changes no comparison
        object.__setattr__(b, name, -1)
    assert a == b and hash(a) == hash(b) and repr(b) == shown


@pytest.mark.parametrize(
    "siblings",
    [
        [AbsVec(SurfaceSpec(2, (2,)), (1, 0, 0, 1)), RelVec(SurfaceSpec(2, (2,)), (1, 0, 0, 1)),
         PunctVec(SurfaceSpec(2, (2,)), (1, 0, 0, 1))],
        [QForm.from_packed(2, 9), CohomClass.from_packed(2, 9)],
    ],
    ids=["vectors", "mod2-bits"],
)
def test_siblings_with_equal_fields_compare_unequal(siblings):
    for a in siblings:
        for b in siblings:
            assert (a == b) == (type(a) is type(b))
            assert (a != b) == (type(a) is not type(b))


def test_letter_caches_take_no_part_in_equality():
    a, b = Twist(PunctVec(S11, (1, 0, 0, 0, -1)), 1, 1), Twist(PunctVec(S11, (1, 0, 0, 0, -1)), 1, 1)
    a.rank_one, a.packed  # fills a's caches only
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_mod2_group_compares_by_identity():
    keys = np.array([1, 2], dtype=np.uint64)
    a, b = Mod2Group(1, keys, [1, 2]), Mod2Group(1, keys, [1, 2])
    assert a == a and a != b and len({a, b}) == 2


S3 = SurfaceSpec(3, (4,))
I4 = identity_mat(4)
NO_M = ((),) * 4  # the M block of an n = 1 element
SYMPLECTIC = ((-1, -7, -4, 7), (-4, -11, -6, 6), (0, 9, 5, -11), (-2, -4, -2, 1))  # 17 factors
CURVE = PunctVec(S11, (1, 0, 0, 0, 0))
LOOP = AbsVec(S11, (0, 1, 0, 0))

# (call, the same call with plain ints, or None): with a float, a string or a
# Fraction the call must raise TypeError, not truncate the value or fail later;
# int, bool and numpy integers must give the plain call's value
INTEGER_RULE = {
    "AbsVec-float": (lambda: AbsVec(S11, (1.9, 0, 0, -0.7)), None),
    "AbsVec-string": (lambda: AbsVec(S11, ("1", 0, 0, 0)), None),
    "rmul-float": (lambda: 2.5 * x_curve(S11, 1), None),
    "rmul-fraction": (lambda: Fraction(2) * x_curve(S11, 1), None),
    "SurfaceSpec-g-float": (lambda: SurfaceSpec(2.0, (2,)), None),
    "SurfaceSpec-kappa-float": (lambda: SurfaceSpec(2, (2.0,)), None),
    "Framing-wind-string": (lambda: Framing(SurfaceSpec(2, (2,)), ("1", 0), (0, 0)), None),
    "Framing-arc-float": (lambda: Framing(S11, (0, 0), (0, 0), (-1.0,)), None),
    "PAutElem-entry-float": (lambda: PAutElem(2, 1, ((1.7, 0, 0, 0), *I4[1:]), NO_M), None),
    "PAutElem-g-float": (lambda: PAutElem(2.0, 1, I4, NO_M), None),
    "PAutElem-n-float": (lambda: PAutElem(2, 1.0, I4, NO_M), None),
    "x_curve-float": (lambda: x_curve(S3, 1.5), None),
    "y_curve-float": (lambda: y_curve(S3, 2.5), None),
    "arc_class-float": (lambda: arc_class(S11, 2.0), None),
    "point_loop-float": (lambda: point_loop(S11, 1.5), None),
    "point_class-float": (lambda: point_class(S11, 2.0), None),
    "delta_winding-float": (lambda: S11.delta_winding(1.0), None),
    "Twist-float": (lambda: Twist(CURVE, 1.5, 0.5), None),
    "PointPush-float": (lambda: PointPush(2.0, LOOP), None),
    "ConnectSum-float": (lambda: ConnectSum("x", 1.0, 2, 1.0), None),
    "ArcParityTwist-float": (lambda: ArcParityTwist(2.0, 3), None),
    "BoundaryTwist-float": (lambda: BoundaryTwist(2.0), None),
    "factor_sp-float": (lambda: factor_sp(((1.0, 2.0, 0, 0), *I4[1:])), None),
    "transvection-float": (lambda: transvection(x_curve(S11, 1), 1.5), None),
    "AbsVec-numpy": (lambda: AbsVec(S11, np.array([1, 0, 0, -2])), lambda: AbsVec(S11, (1, 0, 0, -2))),
    "AbsVec-bool": (lambda: AbsVec(S11, (True, False, False, True)), lambda: AbsVec(S11, (1, 0, 0, 1))),
    "rmul-bool": (lambda: True * x_curve(S11, 1), lambda: x_curve(S11, 1)),
    "rmul-numpy": (lambda: x_curve(S11, 1).__rmul__(np.int64(-3)), lambda: -3 * x_curve(S11, 1)),
    "SurfaceSpec-numpy": (lambda: SurfaceSpec(np.int64(2), np.array([1, 1])), lambda: S11),
    "Framing-numpy": (
        lambda: Framing(S11, np.array([0, 1]), (np.int8(1), False), np.array([-1])),
        lambda: Framing(S11, (0, 1), (1, 0), (-1,)),
    ),
    "PAutElem-numpy": (
        lambda: PAutElem(np.int64(2), np.uint8(2), np.array(I4), np.array([[1], [0], [0], [-2]])),
        lambda: PAutElem(2, 2, I4, ((1,), (0,), (0,), (-2,))),
    ),
    "x_curve-numpy": (lambda: x_curve(S3, np.int64(2)), lambda: x_curve(S3, 2)),
    "y_curve-bool": (lambda: y_curve(S3, True), lambda: y_curve(S3, 1)),
    "arc_class-numpy": (lambda: arc_class(S11, np.int64(2)), lambda: arc_class(S11, 2)),
    "point_loop-bool": (lambda: point_loop(S11, True), lambda: point_loop(S11, 1)),
    "point_class-numpy": (lambda: point_class(S11, np.int32(2)), lambda: point_class(S11, 2)),
    "delta_winding-numpy": (lambda: S11.delta_winding(np.int64(2)), lambda: S11.delta_winding(2)),
    "Twist-numpy": (lambda: Twist(CURVE, np.int64(-2), np.int64(3)), lambda: Twist(CURVE, -2, 3)),
    "PointPush-numpy": (lambda: PointPush(np.int64(2), LOOP), lambda: PointPush(2, LOOP)),
    "ConnectSum-numpy": (
        lambda: ConnectSum("x", np.int64(1), True, np.int64(-1)),
        lambda: ConnectSum("x", 1, 1, -1),
    ),
    "ArcParityTwist-numpy": (lambda: ArcParityTwist(np.int64(2), 3), lambda: ArcParityTwist(2, 3)),
    "BoundaryTwist-numpy": (lambda: BoundaryTwist(np.int64(2)), lambda: BoundaryTwist(2)),
    "factor_sp-numpy": (lambda: factor_sp(np.array(SYMPLECTIC)), lambda: factor_sp(SYMPLECTIC)),
    "transvection-numpy": (
        lambda: transvection(x_curve(S11, 1), np.int64(2)),
        lambda: transvection(x_curve(S11, 1), 2),
    ),
}


@pytest.mark.parametrize("call, plain", INTEGER_RULE.values(), ids=INTEGER_RULE)
def test_integer_fields_take_only_integers(call, plain):
    if plain is None:
        with pytest.raises(TypeError):
            call()
    else:
        got, want = call(), plain()
        assert got == want and repr(got) == repr(want)
