"""The value classes' shared contract (framedhom.value.Value): equality, hash, repr, immutability."""

import copy
import pickle

import numpy as np
import pytest

from framedhom.bruteforce import Mod2Group, QFormCensus
from framedhom.framing import Framing, QForm, QVector
from framedhom.kernel import StructureReport
from framedhom.lattice import AbsVec, CohomClass, PunctVec, RelVec, SurfaceSpec, ZeroChain
from framedhom.moves import ArcParityTwist, BoundaryTwist, ConnectSum
from framedhom.paut import PAutElem, identity_mat
from framedhom.value import Value
from framedhom.verify import Check, SuiteResult
from framedhom.words import PointPush, Twist, Word

S11 = SurfaceSpec(2, (1, 1))
S11_REPR = "SurfaceSpec(g=2, kappa=(1, 1))"

# one instance of each value class, built afresh on each call, and its repr
# as the record-class decorator printed it before the classes moved onto Value
VALUES = [
    (lambda: SurfaceSpec(2, (1, 1)), S11_REPR),
    (lambda: AbsVec(S11, (1, 0, 0, -2)), f"AbsVec(spec={S11_REPR}, coords=(1, 0, 0, -2))"),
    (lambda: RelVec(S11, (0, 1, 0, 0, 3)), f"RelVec(spec={S11_REPR}, coords=(0, 1, 0, 0, 3))"),
    (lambda: PunctVec(S11, (1, 0, 0, 0, -1)), f"PunctVec(spec={S11_REPR}, coords=(1, 0, 0, 0, -1))"),
    (lambda: ZeroChain(S11, (2,)), f"ZeroChain(spec={S11_REPR}, coords=(2,))"),
    (lambda: CohomClass((1, 0, 0, 1)), "CohomClass(g=2, packed=9)"),
    (lambda: QForm((1, 0), (0, 1)), "QForm(g=2, packed=9)"),
    (lambda: QVector((0, 1, 1, 0)), "QVector(g=2, packed=6)"),
    (
        lambda: Framing(S11, (0, 1), (1, 0), (-1,)),
        f"Framing(spec={S11_REPR}, wind_x=(0, 1), wind_y=(1, 0), arc2=(-1,))",
    ),
    (
        lambda: Framing(SurfaceSpec(2, (2,)), (0, 1), (1, 0)),
        "Framing(spec=SurfaceSpec(g=2, kappa=(2,)), wind_x=(0, 1), wind_y=(1, 0), arc2=())",
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
]
IDS = [shown[: shown.index("(")] for _, shown in VALUES]
BY_VALUE = [v for v in VALUES if not v[1].startswith("Mod2Group")]  # Mod2Group compares by identity
BY_VALUE_IDS = [i for i in IDS if i != "Mod2Group"]
# a dict or list field makes the instance unhashable
UNHASHABLE = ("QFormCensus", "SuiteResult")


def test_the_table_holds_every_value_class():
    def leaves(cls):
        subs = cls.__subclasses__()
        return [c for s in subs for c in leaves(s)] if subs else [cls]

    assert {c.__name__ for c in leaves(Value)} == set(IDS)


@pytest.mark.parametrize("make, shown", VALUES, ids=IDS)
def test_repr_reads_as_the_record_class_repr(make, shown):
    assert repr(make()) == shown


@pytest.mark.parametrize("make, shown", BY_VALUE, ids=BY_VALUE_IDS)
def test_equal_fields_compare_and_hash_equal(make, shown):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != object() and a != tuple(getattr(a, name) for name in a._fields)
    if shown.startswith(UNHASHABLE):
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("make, shown", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(make, shown):
    a = make()
    for name in (*a._fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == shown
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("make, shown", BY_VALUE, ids=BY_VALUE_IDS)
def test_copies_and_pickles_are_equal(make, shown):
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and repr(b) == shown


@pytest.mark.parametrize(
    "siblings",
    [
        [AbsVec(SurfaceSpec(2, (2,)), (1, 0, 0, 1)), RelVec(SurfaceSpec(2, (2,)), (1, 0, 0, 1)),
         PunctVec(SurfaceSpec(2, (2,)), (1, 0, 0, 1))],
        [QForm.from_packed(2, 9), QVector.from_packed(2, 9), CohomClass.from_packed(2, 9)],
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
