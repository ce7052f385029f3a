"""Acceptance gate: `framedhom verify all --seed 0`, run once in process.

Each suite's lines must equal its lines in tests/data/verify_all_seed0.out,
except for the closing line's time (" in N.NNs"), and the suite must finish
within its time budget.  The run exits 0 and prints the suites in the pinned
order.
"""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from framedhom import cli
from framedhom.verify import SUITES

TIMING = re.compile(r" in ([0-9]+\.[0-9]{2})s$")
BUDGET_S = {"cocycle": 5.0, "well-defined": 10.0, "census": 30.0, "kernel-order": 60.0, "parity": 5.0}


def _by_suite(text: str) -> dict[str, list[str]]:
    """Each suite's lines, up to its closing `ok suite <name>` line, keyed by name."""
    suites, lines = {}, []
    for line in text.splitlines():
        lines.append(line)
        if line.startswith(("ok suite ", "FAILED suite ")):
            suites[TIMING.sub("", line).split()[-1]] = lines
            lines = []
    return suites


PINNED = _by_suite((Path(__file__).parent / "data" / "verify_all_seed0.out").read_text())


@pytest.fixture(scope="module")
def verify_all():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all", "--seed", "0"])
    return code, _by_suite(out.getvalue())


@pytest.mark.parametrize("suite", SUITES)
def test_verify_all_seed0(verify_all, suite):
    code, suites = verify_all
    assert code == 0 and list(suites) == list(PINNED)
    *checks, closing = suites[suite]
    assert [*checks, TIMING.sub("", closing)] == PINNED[suite]
    assert float(TIMING.search(closing).group(1)) < BUDGET_S.get(suite, math.inf)
