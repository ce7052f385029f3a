"""Fuzz the input boundary: the word grammar and the two JSON loaders.

Every call returns or raises a named `framedhom.errors` exception, which the
CLI maps to exit code 2 or 3; nothing else may escape.  Commands that run
`factor_sp` are not fuzzed: its output length is not yet bounded.
"""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from framedhom import cli, errors
from framedhom.framing import Framing
from framedhom.lattice import SurfaceSpec
from framedhom.sampling import random_symplectic

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

FRAMINGS = [
    Framing(SurfaceSpec(2, (2,)), (0, 1), (1, 0)),
    Framing(SurfaceSpec(2, (1, 1)), (0, 0), (0, 0), (-1,)),
    Framing(SurfaceSpec(3, (2, 2, 0)), (1, 0, -1), (0, 2, 1), (1, 3)),
]


def _named(exc: BaseException) -> bool:
    """A subclass of FramedHomError, so cli.main prints one error line and exits 2 or 3."""
    return isinstance(exc, errors.FramedHomError) and type(exc) is not errors.FramedHomError


def _returns_or_names(call, *args):
    try:
        call(*args)
    except Exception as exc:  # noqa: BLE001 - the property is about which exceptions escape
        assert _named(exc), f"{type(exc).__name__}: {exc}"


small_ints = st.integers(-4, 4)
# the loaders take parsed JSON, whose integers have at most 4300 digits
any_ints = st.one_of(small_ints, st.integers(), st.integers(-1, 1).map(lambda s: s * 10**4299 + 1))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), any_ints, st.floats(allow_nan=False), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
genus = st.one_of(st.integers(-2, 5), st.just(101), json_values)
int_list = st.one_of(st.lists(small_ints, max_size=6), st.lists(any_ints, max_size=3), json_values)
int_rows = st.one_of(
    st.integers(0, 6).flatmap(lambda k: st.lists(st.lists(small_ints, min_size=k, max_size=k), max_size=6)),
    st.lists(int_list, max_size=4),
    json_values,
)
loose_keys = {"extra": json_values}


def _dicts(required, optional):
    return st.one_of(st.fixed_dictionaries(required, optional=optional), json_values)


def _framings(g):
    """Well-typed framing objects of genus g, most of them valid."""
    ints = st.lists(small_ints, min_size=g, max_size=g)
    kappa = st.lists(small_ints, max_size=3).map(lambda head: [*head, 2 * g - 2 - sum(head)])
    return st.fixed_dictionaries({"g": st.just(g), "kappa": kappa, "wind_x": ints, "wind_y": ints},
                                 optional={"arc2": st.lists(small_ints, max_size=3)})


@FUZZ
@given(st.integers(2, 4).flatmap(_framings)
       | _dicts({"g": genus, "kappa": int_list, "wind_x": int_list, "wind_y": int_list},
                {"arc2": int_list, **loose_keys}))
def test_framing_from_dict(data):
    _returns_or_names(cli.framing_from_dict, data)


SYMPLECTIC = [random_symplectic(Random(seed), SurfaceSpec(g, (2 * g - 2,)), 3)
              for g in (2, 3) for seed in range(3)]


def _moved(s, i, j, d):
    rows = [list(row) for row in s]
    rows[i % len(s)][j % len(s)] += d
    return rows


def _pauts(g, n):
    """Well-typed automorphism objects: symplectic S, or S with one entry moved by 1."""
    k = 2 * g
    s = st.builds(_moved, st.sampled_from([s for s in SYMPLECTIC if len(s) == k]),
                  st.integers(0, k - 1), st.integers(0, k - 1), st.integers(-1, 1))
    m = st.lists(st.lists(small_ints, min_size=n - 1, max_size=n - 1), min_size=k, max_size=k)
    return st.fixed_dictionaries({"g": st.just(g), "n": st.just(n), "S": s}, optional={"M": m})


@FUZZ
@given(st.tuples(st.integers(2, 3), st.integers(1, 3)).flatmap(lambda gn: _pauts(*gn))
       | _dicts({"g": genus, "n": genus, "S": int_rows}, {"M": int_rows, **loose_keys}))
def test_paut_from_dict(data):
    _returns_or_names(cli.paut_from_dict, data)


# terms of the vector grammar, some out of range, and strings of its characters
vector_text = st.one_of(
    st.lists(st.builds("{}{}{}{}".format, st.sampled_from(["+", "-"]),
                       st.sampled_from(["", "", "", "2", "3*", "0", "9" * 5000]),
                       st.sampled_from("xxyyd"), st.sampled_from([1, 1, 2, 2, 3, 0, 4])),
             max_size=3).map("".join),
    st.text(alphabet="xyd0123456789+-* ", max_size=16),
)
letters = st.one_of(
    st.builds(lambda s, i, p: f"T{s}{i}{p}", st.sampled_from("xydz"), st.integers(-1, 4),
              st.sampled_from(["", "^0", "^-3", "^2", "^" + "9" * 5000])),
    st.builds(lambda v, w, p: f"T({v};w={w}){p}", vector_text, st.integers(-5, 5),
              st.sampled_from(["", "^0", "^-1", "^x"])),
    st.builds(lambda i, v: f"P({i};{v})", st.integers(-1, 4), vector_text),
    st.text(alphabet="TPxyd()0123456789;=w^+-*", max_size=12),
)


@FUZZ
@given(vector_text | st.text(max_size=10), st.sampled_from(FRAMINGS), st.booleans())
def test_parse_vector(expr, f, punctured):
    _returns_or_names(cli.parse_vector, expr, f.spec, punctured)


@FUZZ
@given(st.lists(letters, max_size=5).map(" ".join) | st.text(max_size=12), st.sampled_from(FRAMINGS))
def test_parse_word(text, f):
    _returns_or_names(cli.parse_word, text, f)
