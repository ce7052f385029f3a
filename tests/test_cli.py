import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from framedhom import cli, verify
from framedhom.errors import FileFormatError
from framedhom.framing import Framing
from framedhom.lattice import SurfaceSpec
from framedhom.paut import PAutElem, identity_mat
from framedhom.sampling import random_paut


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def f2(tmp_path):
    return write_json(tmp_path, "f2.json", {"g": 2, "kappa": [2], "wind_x": [0, 0], "wind_y": [0, 0]})


@pytest.fixture
def f11(tmp_path):
    return write_json(
        tmp_path, "f11.json",
        {"g": 2, "kappa": [1, 1], "wind_x": [0, 0], "wind_y": [0, 0], "arc2": [-1]},
    )


def test_arf_command(capsys, f2, tmp_path):
    code, out, _ = run_cli(capsys, "arf", "--framing", f2)
    assert code == 0 and json.loads(out) == {"arf": 0}
    f = write_json(tmp_path, "f.json", {"g": 2, "kappa": [2], "wind_x": [1, 0], "wind_y": [0, 0]})
    code, out, _ = run_cli(capsys, "arf", "--framing", f)
    assert code == 0 and json.loads(out) == {"arf": 1}


def test_arf_validation_exit2(capsys, tmp_path):
    bad = write_json(tmp_path, "bad.json", {"g": 2, "kappa": [3], "wind_x": [0, 0], "wind_y": [0, 0]})
    code, _, err = run_cli(capsys, "arf", "--framing", bad)
    assert code == 2 and "kappa sum" in err


def test_unknown_keys_rejected(capsys, tmp_path):
    bad = write_json(
        tmp_path, "bad.json",
        {"g": 2, "kappa": [2], "wind_x": [0, 0], "wind_y": [0, 0], "extra": 1},
    )
    code, _, err = run_cli(capsys, "arf", "--framing", bad)
    assert code == 2 and "unknown" in err


F2 = {"g": 2, "kappa": [2], "wind_x": [0, 0], "wind_y": [0, 0]}
P2 = {"g": 2, "n": 1, "S": identity_mat(4), "M": []}
S_ENTRY_1_9 = [[1.9, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
S_ENTRY_TRUE = [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize(
    "command, framing, paut",
    [
        ("theta", F2, dict(P2, g="x")),
        ("arf", dict(F2, kappa=5), None),
        ("arf", dict(F2, wind_x=[0.5, 0]), None),
        ("theta", F2, dict(P2, S=S_ENTRY_1_9)),
        ("theta", F2, dict(P2, S=S_ENTRY_TRUE)),
    ],
    ids=["g-string", "kappa-scalar", "wind-float", "S-float", "S-bool"],
)
def test_non_integer_json_exit2(capsys, tmp_path, command, framing, paut):
    argv = [command, "--framing", write_json(tmp_path, "f.json", framing)]
    if paut is not None:
        argv += ["--paut", write_json(tmp_path, "p.json", paut)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be a JSON integer" in err or "must be a list of integers" in err


@pytest.mark.parametrize(
    "content",
    [
        b'{"g": 2, "kappa": [2], "wind_x": [' + b"9" * 5000 + b', 0], "wind_y": [0, 0]}',
        b'{"g": 2, "kappa": [2], "wind_x": [0, 0], "wind_y": [0, 0], "\xff": 0}',
        b"[" * 200000,
    ],
    ids=["5000-digit-integer", "non-utf8-byte", "deep-nesting"],
)
def test_unparsable_json_exit2(capsys, tmp_path, content):
    path = tmp_path / "f.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "arf", "--framing", str(path))
    assert code == 2 and out == "" and err.startswith("error:")


def test_non_symplectic_paut_exit2(capsys, tmp_path, f2):
    two = [[2 * (i == j) for j in range(4)] for i in range(4)]
    p = write_json(tmp_path, "p.json", dict(P2, S=two))
    code, out, err = run_cli(capsys, "theta", "--paut", p, "--framing", f2)
    assert code == 2 and out == "" and "intersection pairing" in err


def test_theta_and_kernel_commands(capsys, tmp_path, f2, f11):
    pid = write_json(tmp_path, "pid.json", {"g": 2, "n": 1, "S": identity_mat(4), "M": []})
    code, out, _ = run_cli(capsys, "theta", "--paut", pid, "--framing", f2)
    assert code == 0 and json.loads(out) == {"theta": [0, 0, 0, 0]}
    prel = write_json(
        tmp_path, "prel.json",
        {"g": 2, "n": 2, "S": identity_mat(4), "M": [[1], [0], [0], [0]]},
    )
    code, out, _ = run_cli(capsys, "theta", "--paut", prel, "--framing", f11)
    assert code == 0 and json.loads(out) == {"theta": [0, 1, 0, 0]}
    code, out, _ = run_cli(capsys, "kernel-test", "--paut", prel, "--framing", f11)
    assert code == 0 and json.loads(out) == {"in_kernel": False}
    # cross-input mismatch
    for command in ("theta", "kernel-test"):
        code, out, err = run_cli(capsys, command, "--paut", prel, "--framing", f2)
        assert code == 3 and out == ""
        assert err == "error: automorphism is for g=2, n=2; framing for g=2, n=1\n"


def test_lift_command(capsys, f2, tmp_path):
    code, out, _ = run_cli(capsys, "lift", "--framing", f2, "x1")
    assert code == 0
    data = json.loads(out)
    assert data["S"][0][1] == -1
    odd = write_json(tmp_path, "odd.json", {"g": 2, "kappa": [2], "wind_x": [1, 0], "wind_y": [0, 0]})
    code, out, _ = run_cli(capsys, "lift", "--framing", odd, "x1")
    assert code == 1 and json.loads(out)["error"] == "NoLiftExists"


def test_factor_sp_command(capsys, tmp_path):
    s = [[1, -2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    p = write_json(tmp_path, "p.json", {"g": 2, "n": 1, "S": s, "M": []})
    code, out, _ = run_cli(capsys, "factor-sp", "--paut", p)
    assert code == 0
    data = json.loads(out)
    assert data["factors"] == [{"v": [1, 0, 0, 0], "k": 2}]


DATA = Path(__file__).parent / "data"


# each case's command line (paths relative to tests/data) and recorded stdout;
# CI runs the same cases through the installed framedhom script
RECORDED = json.loads((DATA / "recorded.json").read_text())


@pytest.mark.parametrize("argv, expected", [(case["argv"], case["expected"]) for case in RECORDED])
def test_recorded_output_bytes(capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(DATA)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == (DATA / expected).read_text()


def test_verify_all_json_is_pinned(capsys):
    # every suite's checks and details at a fixed seed and trial count; the
    # text output of `verify all --seed 0` is pinned by CI against
    # verify_all_seed0.out
    code, out, _ = run_cli(capsys, "--json", "verify", "all", "--seed", "0", "--trials", "20")
    data = json.loads(out)
    for suite in data["suites"]:
        del suite["elapsed_s"]
    assert code == 0 and data == json.loads((DATA / "verify_all_seed0_trials20.json").read_text())


def test_match_over_the_move_cap_exit2(capsys):
    # a winding gap of 2 * 10^9 on x1: 10^9 connect-sums, refused before any is built
    code, out, err = run_cli(capsys, "match", str(DATA / "framing_g3.json"), str(DATA / "framing_g3.far.json"))
    assert code == 2 and out == "" and "1000000000 moves, above the supported maximum" in err


@pytest.mark.parametrize("paut, reason", [
    ({"g": 0, "n": -5, "S": []}, "genus"),
    ({"g": 1, "n": 1, "S": [[2, 1], [1, 1]]}, "genus"),
    ({"g": 2, "n": 0, "S": identity_mat(4)}, "marked point"),
])
def test_factor_sp_rejects_a_surface_outside_the_range_exit2(capsys, tmp_path, paut, reason):
    p = write_json(tmp_path, "p.json", paut)
    code, out, err = run_cli(capsys, "factor-sp", "--paut", p)
    assert code == 2 and out == "" and err.startswith("error:") and reason in err


def test_act_command(capsys, f2):
    code, out, _ = run_cli(capsys, "act", "--framing", f2, "--word", "Tx1 Ty2^-1")
    assert code == 0
    data = json.loads(out)
    assert data["framing"]["g"] == 2
    assert data["paut"]["S"][0][1] == -1


@pytest.mark.parametrize(
    "argv",
    [["act", "--word", "P(0;x1)"], ["lift", "x0"]],
    ids=["push-point-0", "handle-0"],
)
def test_index_zero_exit2(capsys, argv):
    # marked points and handles count from 1; index 0 must not wrap to the last
    code, out, err = run_cli(capsys, *argv, "--framing", str(DATA / "framing_g3.noarc.json"))
    assert code == 2 and out == "" and err.startswith("error:")


def test_act_word_with_explicit_letters(capsys, tmp_path):
    # no arc data, so point-push letters are allowed to act
    noarc = write_json(
        tmp_path, "noarc.json",
        {"g": 2, "kappa": [1, 1], "wind_x": [0, 0], "wind_y": [0, 0]},
    )
    code, out, _ = run_cli(
        capsys, "act", "--framing", noarc, "--word", "T(x1+2y2;w=-2)^2 P(2;x1)"
    )
    assert code == 0
    data = json.loads(out)
    assert data["paut"]["M"] != [[0], [0], [0], [0]]


@pytest.mark.parametrize(
    "framing, word",
    [
        # x1 winds 0, so a simple curve in its class winds evenly
        ({"g": 2, "kappa": [2], "wind_x": [0, 0], "wind_y": [0, 0]}, "T(x1;w=1)"),
        # q(x1 + d2) = q_phi(x1) + kappa_2 = 1 + 1: the winding must be odd
        ({"g": 2, "kappa": [1, 1], "wind_x": [0, 0], "wind_y": [0, 0]}, "T(x1+d2;w=4)"),
    ],
    ids=["x1", "x1+d2"],
)
def test_act_twist_of_the_wrong_winding_parity_exit3(capsys, tmp_path, framing, word):
    # accepted, the first example changed the framing's Arf invariant from 0 to 1
    path = write_json(tmp_path, "f.json", framing)
    code, out, err = run_cli(capsys, "act", "--framing", path, "--word", f"Tx1 {word}")
    assert code == 3 and out == "" and "winding parity" in err


def test_act_twist_of_the_right_winding_parity(capsys, f11):
    code, out, _ = run_cli(capsys, "act", "--framing", f11, "--word", "T(x1+d2;w=5) T(x1;w=-2)")
    before = cli.arf(cli.load_framing(f11))
    assert code == 0 and cli.arf(cli.framing_from_dict(json.loads(out)["framing"])) == before


@pytest.mark.parametrize(
    "loader, data",
    [
        (cli.framing_from_dict, {"g": [7**6000 + 1], "kappa": [2], "wind_x": [0, 0], "wind_y": [0, 0]}),
        (cli.framing_from_dict, {"g": -(7**6000) + 1, "kappa": [], "wind_x": [], "wind_y": []}),
        (cli.paut_from_dict, {"g": -(7**6000) + 1, "n": 1, "S": []}),
        (cli.framing_from_dict, {"g": 2, "kappa": [2], "wind_x": [10**4300, 0], "wind_y": [0, 0]}),
        (cli.framing_from_dict, {"g": {2}, "kappa": [2], "wind_x": [0, 0], "wind_y": [0, 0]}),
    ],
    ids=["in-a-list", "genus", "paut-genus", "winding", "a-set"],
)
def test_loaders_name_values_that_do_not_print_as_json(loader, data):
    # json.load makes no such value; a Python caller can pass one
    with pytest.raises(FileFormatError):
        loader(data)


@pytest.mark.parametrize(
    "loader, data, message",
    [
        (cli.framing_from_dict, [], "framing file must hold one JSON object"),
        (cli.paut_from_dict, None, "automorphism file must hold one JSON object"),
        (cli.framing_from_dict, {"zz": 1, "M": 2, "arc2": [1]}, "unknown framing keys: ['M', 'zz']"),
        (cli.paut_from_dict, {"arc2": 1, "M": []}, "unknown automorphism keys: ['arc2']"),
        (cli.framing_from_dict, {"g": 2, "kappa": [2], "wind_y": [0, 0]}, "framing file is missing 'wind_x'"),
        (cli.paut_from_dict, {"g": 2, "S": []}, "automorphism file is missing 'n'"),
    ],
)
def test_loaders_name_the_shape_fault(loader, data, message):
    with pytest.raises(FileFormatError) as exc:
        loader(data)
    assert str(exc.value) == message


def test_loaders_take_the_longest_printable_integer():
    f = cli.framing_from_dict({"g": 2, "kappa": [2], "wind_x": [1 - 10**4300, 0], "wind_y": [0, 0]})
    assert f.wind_x[0] == 1 - 10**4300


def test_act_push_on_arcs_rejected(capsys, f11):
    code, _, err = run_cli(capsys, "act", "--framing", f11, "--word", "P(2;x1)")
    assert code == 2 and "point-push" in err.lower()


@pytest.mark.parametrize(
    "argv",
    [
        ["act", "--word", "T(x\u0661;w=0)"],
        ["act", "--word", "Tx1^\u0661"],
        ["act", "--word", "P(\u0661;x1)"],
        ["lift", "x\u0661"],
        ["lift", "\u0661x1"],
    ],
    ids=["twist-class", "twist-power", "push-point", "handle", "coefficient"],
)
def test_word_takes_only_ascii_digits(capsys, f2, argv):
    # Arabic-Indic one: int() reads it as 1, the word grammar must not
    code, out, err = run_cli(capsys, *argv, "--framing", f2)
    assert code == 2 and out == "" and err.startswith("error:")


def test_act_word_syntax_error(capsys, f2):
    code, _, err = run_cli(capsys, "act", "--framing", f2, "--word", "Q(nope)")
    assert code == 2


@pytest.mark.parametrize("word", ["Tx1^0", "T(x1;w=0)^0"])
def test_act_twist_power_zero_exit2(capsys, f2, word):
    code, out, err = run_cli(capsys, "act", "--framing", f2, "--word", word)
    assert (code, out, err) == (2, "", "error: twist power must be nonzero\n")


NINES = "9" * 5000  # more digits than int() converts


@pytest.mark.parametrize(
    "command, tail",
    [
        ("lift", [f"{NINES}x1"]),
        ("act", ["--word", f"Tx1^{NINES}"]),
        ("act", ["--word", f"T(x1;w={NINES})"]),
    ],
    ids=["vector-coefficient", "twist-power", "declared-winding"],
)
def test_overlong_integer_in_word_exit2(capsys, f2, command, tail):
    code, out, err = run_cli(capsys, command, "--framing", f2, *tail)
    assert code == 2 and out == "" and err.startswith("error:")


def test_match_command(capsys, tmp_path, f11):
    target = write_json(
        tmp_path, "target.json",
        {"g": 2, "kappa": [1, 1], "wind_x": [2, 0], "wind_y": [0, 0], "arc2": [-1]},
    )
    code, out, _ = run_cli(capsys, "match", f11, target)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1 and data["moves"][0]["move"] == "connect-sum"
    mism = write_json(
        tmp_path, "mism.json",
        {"g": 2, "kappa": [1, 1], "wind_x": [1, 0], "wind_y": [0, 0], "arc2": [-1]},
    )
    code, _, _ = run_cli(capsys, "match", f11, mism)
    assert code == 3


def test_stratum_command(capsys):
    code, out, _ = run_cli(capsys, "stratum", "2")
    assert code == 0
    data = json.loads(out)
    assert data["framing"]["g"] == 2 and data["report"]["regime"] == "even"
    code, out, _ = run_cli(capsys, "stratum", "1,1")
    data = json.loads(out)
    assert code == 0 and data["report"]["regime"] == "odd"
    assert run_cli(capsys, "stratum", " 1, 1 ") == (0, out, "")
    code, out, _ = run_cli(capsys, "stratum", "3,1")
    data = json.loads(out)
    assert code == 0 and data["framing"]["g"] == 3 and data["report"]["regime"] == "odd"
    code, _, _ = run_cli(capsys, "stratum", "1,2")
    assert code == 2
    code, _, _ = run_cli(capsys, "stratum", "0,4")
    assert code == 2


@pytest.mark.parametrize("partition", ["2_0", "+2", "\u0662", "1,+1", "1,1_", " ", "1,,1"])
def test_stratum_takes_only_ascii_digits(capsys, partition):
    # int() would read "2_0" as 20 and "\u0662" (Arabic-Indic two) as 2
    code, out, err = run_cli(capsys, "stratum", partition)
    assert code == 2 and out == "" and err.startswith("error: cannot parse partition")


def test_oversized_surface_exit2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "stratum", "2000000")
    assert code == 2 and out == "" and err.startswith("error:") and "exceeds" in err
    g = cli.MAX_SURFACE_SIZE + 1
    big = write_json(
        tmp_path, "big.json", {"g": g, "kappa": [2 * g - 2], "wind_x": [0] * g, "wind_y": [0] * g}
    )
    code, out, err = run_cli(capsys, "arf", "--framing", big)
    assert code == 2 and out == "" and err.startswith("error:") and "exceeds" in err


def test_verify_oversized_genus_exit2(capsys):
    g = str(cli.MAX_SURFACE_SIZE + 1)
    code, out, err = run_cli(capsys, "verify", "cocycle", "--g", g, "--trials", "1")
    assert code == 2 and out == "" and err.startswith("error:") and "exceeds" in err


@pytest.mark.parametrize(
    "argv",
    [("parity", "--g", "0", "--trials", "3"), ("census", "--g", "0"), ("census", "--g", "1")],
)
def test_verify_genus_below_two_exit2(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == "" and err.startswith("error:") and "genus" in err


@pytest.mark.parametrize(
    "option, value",
    [("--g", "\u0662"), ("--trials", "1_0"), ("--seed", "\u0663"), ("--g", "+2"), ("--seed", " 1")],
)
def test_verify_takes_only_ascii_integers(capsys, option, value):
    # int() would read the Arabic-Indic digits as 2 and 3, and "1_0" as 10
    code, out, err = run_cli(capsys, "verify", "census", option, value)
    assert code == 2 and out == "" and err.startswith(f"error: cannot parse {option} ")


def test_verify_takes_a_negative_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "parity", "--trials", "2", "--seed", "-3")
    assert code == 0 and "(2/2 tracked curves)" in out


def test_verify_all_above_census_genus_keeps_census_at_its_own(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "all", "--g", "4", "--trials", "2")
    data = json.loads(out)
    assert code == 0 and data["ok"] is True
    assert [s["suite"] for s in data["suites"]] == list(verify.SUITES)
    (census,) = [s for s in data["suites"] if s["suite"] == "census"]
    assert census["checks"][0]["detail"] == "|Sp(4,2)| = 720"
    # alone, census refuses the genus it cannot serve
    code, out, err = run_cli(capsys, "verify", "census", "--g", "4")
    assert code == 2 and out == "" and err.startswith("error:") and "census supports g <= 3" in err


@pytest.mark.parametrize("trials", ["-5", "0", str(cli.MAX_TRIALS + 1)])
def test_verify_trials_out_of_range_exit2(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "parity", "--trials", trials)
    assert code == 2 and out == "" and err.startswith("error:") and "--trials" in err


def test_verify_trials_at_the_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "parity", "--trials", "1")
    assert code == 0 and "(1/1 tracked curves)" in out
    assert cli._trials(cli.MAX_TRIALS) == cli.MAX_TRIALS


def test_oversized_output_exit2(capsys, tmp_path, f2):
    # outputs holding an integer longer than the interpreter prints: the
    # factorization of a g=10 matrix with 19-digit entries, and a word whose
    # matrix has an entry near (10^4000)^2
    a = random_paut(random.Random(1010), SurfaceSpec(10, (18,)), 20)
    p = write_json(tmp_path, "big.json", cli.paut_to_dict(a))
    big = "1" + "0" * 4000
    for argv in (("factor-sp", "--paut", p), ("act", "--framing", f2, "--word", f"Tx1^{big} Ty1^{big}")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:") and "digits" in err


@pytest.mark.parametrize("argv", [("stratum", "2"), ("verify", "parity", "--trials", "40")])
def test_closed_stdout_exit1_quietly(argv):
    # the reader is gone before anything is written, as with `framedhom ... | head`
    with subprocess.Popen(
        [sys.executable, "-m", "framedhom.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.wait() == 1 and err == ""


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "parity", "--trials", "40", "--seed", "1")
    assert code == 0 and "PASS parity/parity-oracle" in out


def test_verify_json_flag(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "moves", "--trials", "20")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["suites"][0]["suite"] == "moves"


def test_verify_unknown_suite_exits_2(capsys):
    # a named error, as for every other bad input; the message lists the valid names
    code, out, err = run_cli(capsys, "verify", "no-such-suite")
    assert code == 2 and out == "" and err.startswith("error:")
    assert "'no-such-suite'" in err and all(name in err for name in [*verify.SUITES, "all"])


def test_json_roundtrip():
    spec = SurfaceSpec(2, (1, 1))
    f = Framing(spec, (1, -2), (0, 3), (5,))
    assert cli.framing_from_dict(cli.framing_to_dict(f)) == f
    f1 = Framing(SurfaceSpec(3, (4,)), (0, 1, 2), (3, 4, 5))
    assert cli.framing_from_dict(cli.framing_to_dict(f1)) == f1
    a = PAutElem(2, 2, identity_mat(4), ((1,), (0,), (-2,), (0,)))
    b = cli.paut_from_dict(cli.paut_to_dict(a))
    assert a.S == b.S and a.M == b.M and (a.g, a.n) == (b.g, b.n)


def _loaded_after(code: str, modules: list[str]) -> list[str]:
    """The modules among `modules` that a fresh interpreter holds after running `code`."""
    probe = f"{code}\nimport sys; print(*[m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_cli_import_leaves_numpy_unloaded():
    heavy = ["numpy", *(f"framedhom.{m}" for m in ("verify", "bruteforce", "sampling", "words", "moves", "kernel"))]
    assert _loaded_after("import framedhom.cli", heavy) == []


def test_arf_command_loads_only_its_layers(f2):
    code = f"import framedhom.cli as c; assert c.main(['arf', '--framing', {f2!r}]) == 0"
    layers = [f"framedhom.{m}" for m in ("paut", "kernel", "words", "moves", "verify", "bruteforce")]
    assert _loaded_after(code, layers) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["arf", "--framing", "framing_g3.json"],
        ["theta", "--paut", "paut_g3.json", "--framing", "framing_g3.json"],
        ["kernel-test", "--paut", "paut_g3.json", "--framing", "framing_g3.json"],
        ["lift", "--framing", "framing_g3.json", "x1+y2"],
        ["factor-sp", "--paut", "paut_g3.json"],
        ["act", "--framing", "framing_g3.json", "--word", "Tx1 Ty2^-1 Td2"],
        ["match", "framing_g3.json", "framing_g3.near.json"],
        ["stratum", "1,1"],
        ["verify", "cocycle", "--trials", "1"],
    ],
    ids=lambda argv: " ".join(argv[:2] if argv[0] == "verify" else argv[:1]),
)
def test_commands_leave_dataclasses_and_inspect_unloaded(argv):
    # the value classes are written out by hand (framedhom.value), so a cold
    # call pays for neither module
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code = f"import framedhom.cli as c; assert c.main({argv!r}) == 0"
    assert _loaded_after(code, ["dataclasses", "inspect"]) == []


def test_stratum_leaves_numpy_and_bruteforce_unloaded():
    # the mod-2 kernel order is the regime formula in kernel.py, at g=2 as at g=3
    for partition in ("1,1", "2,2"):
        code = f"import framedhom.cli as c; assert c.main(['stratum', {partition!r}]) == 0"
        assert _loaded_after(code, ["numpy", "framedhom.bruteforce"]) == []


def test_verify_loads_numpy_only_for_the_exhaustive_suites():
    # numpy comes with framedhom.bruteforce, which only the census and kernel-order suites import
    probe = "import framedhom.cli as c; assert c.main(['verify', {!r}, '--trials', '1']) == 0"
    watched = ["numpy", "framedhom.bruteforce"]
    assert _loaded_after(probe.format("cocycle"), watched) == []
    assert _loaded_after(probe.format("census"), watched) == watched


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "framedhom.cli", "stratum", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["regime"] == "even"
