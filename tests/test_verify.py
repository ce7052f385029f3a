"""Every row of verify's table holds, and reports a broken property.

Each row runs through the suites' one driver, a `verify.Suite` of that row
alone.  Each mutation case replaces one function that a row's property reads
with one that returns a wrong value, and expects the row's check to fail with
a nonzero failure count in its detail.
"""

import itertools
import re

import numpy as np
import pytest

from framedhom import bruteforce, kernel, paut, verify
from framedhom.errors import InvalidCount, UnknownSuite
from framedhom.framing import Framing
from framedhom.lattice import CohomClass, SurfaceSpec, x_curve

# every random check, by name, and the name of its suite
RANDOM = {name: suite for name, suite in verify.SUITES.items() if isinstance(suite, verify.Suite)}
ROWS = {row.name: row for suite in RANDOM.values() for row in suite.rows}
SUITE_OF = {row.name: name for name, suite in RANDOM.items() for row in suite.rows}


@pytest.mark.parametrize("g", [4, 5])
@pytest.mark.parametrize("name", ROWS)
def test_row_holds_beyond_the_suites_genera(name, g):
    # the seed-0 run of every suite (test_acceptance) draws g = 2 and 3 for
    # most rows, and 2-4 for the rest
    (check,) = verify.Suite(25, (ROWS[name],))(g=g, seed=7)
    assert check.ok, check.detail


def _shifted(orig):
    """orig with its cohomology class changed on the first basis class."""

    def wrong(*args):
        c = orig(*args)
        return CohomClass.from_packed(c.g, c.packed ^ 1)

    return wrong


def _never_equal(orig):
    """A function whose answers never agree with each other."""
    fresh = itertools.count()
    return lambda *args: next(fresh)


# row: (the function its property reads, a breaker that makes it wrong)
BROKEN = {
    "cocycle-identity": ("pullback_h1", lambda orig: lambda s, c: c),
    "theta-equals-delta": ("delta_word", _shifted),
    "relators-vanish": ("delta_word", _shifted),
    "theta-equals-factorization": ("theta_by_factorization", _shifted),
    "stabilizing-words-fix": ("act_framing", lambda orig: lambda w, f: None),
    "stabilizer-in-kernel": ("kernel_test", lambda orig: lambda a, f: False),
    "lift-transvections": ("kernel_test", lambda orig: lambda a, f: False),
    "theta-is-spin-defect": ("q_hat", _shifted),
    "relaut-restriction": ("v_kappa_star_by_pairing", _shifted),
    "moves-preserve-arf": ("arf", _never_equal),
    "match-roundtrip": ("match_framings", lambda orig: lambda f, h: []),
    "parity-oracle": ("winding_parity", lambda orig: lambda f, v: 1 - orig(f, v)),
    "arf-invariance": ("arf", _never_equal),
}


def _failures(detail: str) -> int:
    m = re.fullmatch(r"(\d+)/(\d+)( .*)?", detail)
    if m:
        return int(m[2]) - int(m[1])
    return int(re.search(r"(\d+) (wrong|violations)$", detail)[1])


@pytest.mark.parametrize("name", BROKEN, ids=[f"{SUITE_OF[name]}/{name}" for name in BROKEN])
def test_suite_reports_a_broken_property(monkeypatch, name):
    attr, breaker = BROKEN[name]
    monkeypatch.setattr(verify, attr, breaker(getattr(verify, attr)))
    (check,) = verify.Suite(20, (ROWS[name],))(seed=0)
    assert not check.ok and _failures(check.detail) > 0, check.detail


# the fixed suites read theta_table: one wrong entry must fail the named check
FIXED_BROKEN = [("census", "qhat-crossed-all-pairs"), ("kernel-order", "mod2-well-defined")]


@pytest.mark.parametrize("suite, check", FIXED_BROKEN, ids=[f"{s}/{c}" for s, c in FIXED_BROKEN])
def test_fixed_suite_reports_a_flipped_theta_entry(monkeypatch, suite, check):
    true_table = bruteforce.theta_table

    def flipped(group, f):
        table = true_table(group, f)
        table[100] ^= 1  # an element other than the identity
        return table

    monkeypatch.setattr(bruteforce, "theta_table", flipped)
    result = verify.run_suite(suite, seed=0)
    (named,) = [c for c in result.checks if c.name == check]
    assert not named.ok and not result.ok


def test_every_row_and_fixed_suite_has_a_broken_case():
    assert set(BROKEN) == set(ROWS)
    assert set(verify.SUITES) - set(RANDOM) == {s for s, _ in FIXED_BROKEN}


def test_lift_check_does_not_trust_the_transvection_builder(monkeypatch):
    # a builder that makes T_v^-1, the same matrix mod 2: each lift still
    # passes kernel_test and equals what the builder makes of v, so only a
    # comparison that does not call the builder can tell
    build = paut.transvection
    for module in (paut, kernel, verify):
        monkeypatch.setattr(module, "transvection", lambda v, k=1: build(v, -k))
    f = Framing(SurfaceSpec(2, (2,)), (0, 0), (0, 0))
    v = x_curve(f.spec, 1)
    a = kernel.lift_transvection(v, f)
    assert kernel.kernel_test(a, f) and a.S == verify.transvection(v, 1) != build(v, 1)
    (named,) = verify.run_suite("lift", trials=20, seed=0).checks
    assert not named.ok and _failures(named.detail) > 0, named.detail


def test_lift_reports_a_lift_that_fails_its_own_kernel_test(monkeypatch):
    # lift_transvection asserts kernel_test on what it builds: the suite counts
    # a failed assertion as a wrong lift instead of raising it
    monkeypatch.setattr(kernel, "kernel_test", lambda a, f: False)
    (named,) = verify.run_suite("lift", trials=20, seed=0).checks
    assert not named.ok and _failures(named.detail) > 0, named.detail


def test_relaut_never_runs_is_symplectic(monkeypatch):
    # the suite's S is the identity, symplectic by construction
    def refuse(_s, _g):
        raise AssertionError("relaut must not re-check the identity block")

    monkeypatch.setattr(paut, "is_symplectic", refuse)
    result = verify.run_suite("relaut", trials=20, seed=0)
    assert result.ok and result.checks[0].detail == "20/20 blocks"


@pytest.mark.parametrize("suite", ["parity", "census"])
@pytest.mark.parametrize("trials", [0, -3])
def test_run_suite_rejects_trial_counts_below_one(suite, trials):
    # a check that saw no input must not read as a pass
    with pytest.raises(InvalidCount):
        verify.run_suite(suite, trials=trials)


def test_run_suite_names_an_unknown_suite():
    # a named error listing the suites, not a bare KeyError
    with pytest.raises(UnknownSuite, match="'no-such-suite'") as info:
        verify.run_suite("no-such-suite")
    assert all(suite in str(info.value) for suite in verify.SUITES)
    # run_suite takes one suite: `all` belongs to the CLI and is not offered
    assert "all" not in str(info.value).split("choose from ")[1].split(", ")


def test_run_suite_runs_one_trial():
    result = verify.run_suite("parity", trials=1)
    assert result.ok and result.checks[0].detail.startswith("1/1")


def _without_last_level(group):
    """group with the elements farthest from the identity in its Cayley graph dropped.

    Breadth-first from the identity by products with all 2^w - 1
    transvections T_v, each multiplied as matrices (Mod2Group.mul).  Along
    Humphries's generators alone the farthest level is too small for 200
    sampled products to hit.
    """
    ident = bruteforce._identity_key(group.w)
    vs = tuple(range(1, 1 << group.w))
    tvs = bruteforce._generator_table(vs, group.w)[-1].tolist()  # the keys of the T_v
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        reached = []
        for key in frontier:
            for tv in tvs:
                prod = group.mul(key, tv)
                if prod not in dist:
                    dist[prod] = dist[key] + 1
                    reached.append(prod)
        frontier = reached
    last = max(dist.values())
    keys = np.array(sorted(key for key, d in dist.items() if d < last), dtype=np.uint64)
    return bruteforce.Mod2Group(group.g, keys, group.gens)


def test_census_reports_a_group_that_is_not_closed(monkeypatch):
    # products of two sampled elements must land in the group: one without its
    # last level of the closure is not closed under multiplication
    short = _without_last_level(bruteforce.enumerate_sp2(2))
    assert 0 < len(short) < 720
    monkeypatch.setattr(bruteforce, "enumerate_sp2", lambda g: short)
    result = verify.run_suite("census", trials=1, seed=0)
    (named,) = [c for c in result.checks if c.name == "closure-sample"]
    assert not named.ok and named.detail == "200 sampled products"


@pytest.mark.parametrize("g", [2, 3])
def test_census_reports_an_arf_value_split_into_two_orbits(monkeypatch, g):
    # the zero form alone in its orbit: its stabilizer is the whole group, which
    # stabilizer_orders, one form per Arf value, does not show
    true_orbit = bruteforce._form_orbit
    monkeypatch.setattr(
        bruteforce, "_form_orbit", lambda bits, w, gens: {0} if bits == 0 else true_orbit(bits, w, gens)
    )
    census = bruteforce.qform_census(g)
    assert census.per_form[0] == (0, 0, bruteforce.sp2_order(g))
    assert census.stabilizer_orders[0] == bruteforce.sp2_order(g) // census.even_count
    (named,) = [c for c in verify.run_suite("census", g=g, seed=0).checks if c.name == "stabilizer-orders"]
    assert not named.ok


@pytest.mark.parametrize("g, sizes", [(2, {1, 5, 10}), (3, {1, 7, 21, 35})])
def test_census_reports_orbits_split_by_too_few_generators(monkeypatch, g, sizes):
    # without x2, Humphries's classes generate a smaller group, whose orbits
    # split each Arf value (10 even and 6 odd forms at g=2, 36 and 28 at g=3)
    w, fewer = 2 * g, bruteforce.humphries(g)[:-1]
    assert {len(bruteforce._form_orbit(bits, w, fewer)) for bits in range(1 << w)} == sizes
    true_orbit = bruteforce._form_orbit
    monkeypatch.setattr(bruteforce, "_form_orbit", lambda bits, w, gens: true_orbit(bits, w, gens[:-1]))
    (named,) = [c for c in verify.run_suite("census", g=g, seed=0).checks if c.name == "stabilizer-orders"]
    assert not named.ok


@pytest.mark.parametrize("g", [2, 3])
def test_census_reports_a_repeated_key(monkeypatch, g):
    # the last key replaced by a copy of the one before: as many keys as
    # |Sp(2g, 2)| and still sorted, but one element is missing
    group = bruteforce.enumerate_sp2(g)
    keys = group.keys.copy()
    keys[-1] = keys[-2]
    monkeypatch.setattr(bruteforce, "enumerate_sp2", lambda g: bruteforce.Mod2Group(g, keys, group.gens))
    (named,) = [c for c in verify.run_suite("census", g=g, seed=0).checks if c.name == "group-order"]
    assert not named.ok and named.detail == f"|Sp({2 * g},2)| = {bruteforce.sp2_order(g)}"
