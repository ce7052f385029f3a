import io
import json
import random
import shlex
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

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


def test_lift_command(capsys, f2):
    code, out, _ = run_cli(capsys, "lift", "--framing", f2, "x1")
    assert code == 0
    data = json.loads(out)
    assert data["S"][0][1] == -1


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


# every refusal and usage line: each row's command line, the files it names
# (the shared set and its own, written to a fresh directory) and its stdout,
# stderr and exit code; CI runs the same rows through the installed framedhom
# script.  A row naming a `test` runs under that test with its `id`; the
# others run under test_cli_case
CASES = json.loads((DATA / "cli_cases.json").read_text())
HELP_AND_USAGE = [case for case in CASES["cases"] if case.get("test") == "help_and_usage_error_bytes"]


def _rows(test=None):
    rows = [case for case in CASES["cases"] if case.get("test") == test]
    return pytest.mark.parametrize("case", rows, ids=lambda case: case.get("id", case["about"]))


def _write_files(directory, case):
    directory.mkdir(exist_ok=True)
    for name, content in {**CASES["shared"], **case.get("files", {})}.items():
        (directory / name).write_text(json.dumps(content))
    return directory


@pytest.fixture
def run_row(capsys, monkeypatch, tmp_path):
    def run(case):
        monkeypatch.chdir(_write_files(tmp_path, case))
        code = cli.main(case["argv"])
        out = capsys.readouterr()
        assert (out.out, out.err, code) == (case["stdout"], case["stderr"], case["code"])

    return run


@_rows()
def test_cli_case(run_row, case):
    run_row(case)


@_rows("help_and_usage_error_bytes")
def test_help_and_usage_error_bytes(run_row, case):
    run_row(case)


@pytest.mark.parametrize("columns", [None, "40", "200"])
def test_help_and_usage_bytes_ignore_the_terminal_width(run_row, monkeypatch, columns):
    # the text is laid out at 80 columns, whatever $COLUMNS says
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    for case in HELP_AND_USAGE:
        run_row(case)


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_fits_in_78_columns(capsys, command):
    # _usage wraps the usage line but not the help strings, which must fit; a
    # usage line may hold one token too long to wrap (the top level's choices)
    assert cli.main(["--help"] if command is None else [command, "--help"]) == 0
    out, err = capsys.readouterr()
    usage, _, rest = out.partition("\n\n")
    wide = [line for line in usage.splitlines() if len(line) > 78 and len(line.split()) > 1]
    assert not err and rest and wide + [line for line in rest.splitlines() if len(line) > 78] == []


# int() reads "2_0" as 20, "+2" as 2 and an Arabic-Indic digit as its value;
# the word grammar, the partition parser and verify's options must not
@_rows("word_takes_only_ascii_digits")
def test_word_takes_only_ascii_digits(run_row, case):
    run_row(case)


@_rows("stratum_takes_only_ascii_digits")
def test_stratum_takes_only_ascii_digits(run_row, case):
    run_row(case)


@_rows("verify_takes_only_ascii_integers")
def test_verify_takes_only_ascii_integers(run_row, case):
    run_row(case)


def test_every_row_runs():
    tests = {case.get("test") for case in CASES["cases"]} - {None}
    assert {f"test_{test}" for test in tests} <= set(globals())


def _readme_command_lines() -> list[list[str]]:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [shlex.split(line, comments=True) for line in text.splitlines() if line.startswith("framedhom ")]
    return [argv[1:] for argv in lines]


# the command lines bench/workloads.build_cli issues, with its vector and word spellings
BENCH_COMMAND_LINES = [
    ["arf", "--framing", "f.json"],
    ["theta", "--paut", "a.json", "--framing", "f.json"],
    ["kernel-test", "--paut", "a.json", "--framing", "f.json"],
    ["lift", "--framing", "f.json", "--", "+1x1-2y2"],
    ["lift", "--framing", "f.json", "--", "-1x1+1y3"],
    ["factor-sp", "--paut", "a.json"],
    ["act", "--framing", "f.json", "--word", "T(+1x1-1d2;w=-3)^2 P(2;-1y1)"],
    ["match", "f.json", "h.json"],
    ["stratum", "1,1,2"],
    ["--json", "verify", "all", "--seed", "0"],
]


@pytest.mark.parametrize(
    "argv",
    [case["argv"] for case in RECORDED] + _readme_command_lines() + BENCH_COMMAND_LINES,
    ids=" ".join,
)
def test_fast_parser_takes_the_documented_command_lines(capsys, argv):
    # each reads to the namespace main runs, with no help or usage error
    assert isinstance(cli._parse(argv), SimpleNamespace)
    assert capsys.readouterr() == ("", "")


def test_reader_ends_every_line_in_one_of_three_ways():
    # random command lines over abbreviated and =-joined options, -h, values
    # that start with '-', '--' anywhere and --json out of place: each one
    # reads to a namespace with the command's required options and exactly
    # its positionals, or to the recorded help of its command (exit 0), or to
    # that command's or the top level's recorded usage and one error line
    # (exit 2)
    help_text = {case["argv"][0] if len(case["argv"]) == 2 else None: case["stdout"]
                 for case in HELP_AND_USAGE if case["argv"][-1:] == ["--help"]}
    commands = [*cli._COMMANDS, "frame"]
    tokens = [
        *commands, "--json", "--framing", "--paut", "--word", "--g", "--trials", "--seed",
        "--fram", "--tri", "--paut=x", "-h", "", "-3", "-x1", "--", "+1x1", "x1", "all",
    ]
    rng = random.Random(33)
    ends = Counter()
    for _ in range(50_000):
        argv = ["--json"] * (rng.random() < 0.3) + [rng.choice(commands)]
        argv += rng.choices(tokens, k=rng.randint(0, 6))
        command = argv[argv[0] == "--json"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            result = cli._parse(argv)
        out, err = out.getvalue(), err.getvalue()
        if result == 0:
            assert (out, err) == (help_text[command], ""), argv
            ends["help"] += 1
        elif result == 2:
            block, _, last = err[:-1].rpartition("\n")
            prog = last.partition(": error: ")[0]
            key = None if prog == "framedhom" else command
            assert prog in ("framedhom", f"framedhom {command}") and out == "", argv
            assert block == help_text[key].partition("\n\n")[0] and err.endswith("\n"), argv
            ends["usage error"] += 1
        else:
            _, _, options, positionals = cli._COMMANDS[command]
            names = {"json", "command", "fn", *(flag[2:] for flag, *_ in options), *(name for name, _ in positionals)}
            assert (out, err, vars(result).keys()) == ("", "", names), argv
            assert (result.json, result.command) == (argv[0] == "--json", command), argv
            assert all(getattr(result, flag[2:]) is not None for flag, required, *_ in options if required)
            assert all(isinstance(getattr(result, name), str) for name, _ in positionals), argv
            ends["namespace"] += 1
    assert ends["namespace"] >= 800 and ends["help"] >= 800 and ends["usage error"] >= 800, ends


def test_act_command(capsys, f2):
    code, out, _ = run_cli(capsys, "act", "--framing", f2, "--word", "Tx1 Ty2^-1")
    assert code == 0
    data = json.loads(out)
    assert data["framing"]["g"] == 2
    assert data["paut"]["S"][0][1] == -1


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


def test_match_command(capsys, tmp_path, f11):
    target = write_json(
        tmp_path, "target.json",
        {"g": 2, "kappa": [1, 1], "wind_x": [2, 0], "wind_y": [0, 0], "arc2": [-1]},
    )
    code, out, _ = run_cli(capsys, "match", f11, target)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1 and data["moves"][0]["move"] == "connect-sum"


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


def test_verify_trials_at_the_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "parity", "--trials", "1")
    assert code == 0 and "(1/1 tracked curves)" in out
    assert cli._trials(cli.MAX_TRIALS) == cli.MAX_TRIALS


def test_verify_work_budget_admits_its_bound(capsys, monkeypatch):
    # --trials * --g^2 = 64000 reaches the suite, one trial more exits 2 before it
    ran = []
    monkeypatch.setattr(verify, "run_suite", lambda *args, **kw: ran.append(kw) or verify.SuiteResult("parity", [], 0))
    assert run_cli(capsys, "verify", "parity", "--g", "8", "--trials", "1000")[0] == 0
    assert run_cli(capsys, "verify", "parity", "--g", "8", "--trials", "1001")[0] == 2
    assert ran == [{"g": 8, "trials": 1000, "seed": 0}]


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
        None,
    ],
    ids=lambda argv: "cli_cases.json" if argv is None else " ".join(argv[:2] if argv[0] == "verify" else argv[:1]),
)
def test_commands_leave_dataclasses_and_inspect_unloaded(tmp_path, argv):
    # the value classes are written out by hand (framedhom.value), so a cold
    # call pays for neither module, and the command table reads every command
    # line and prints every help and usage line without argparse; None runs
    # every row of cli_cases.json, one after another in one interpreter
    runs = [(str(DATA), argv, 0)]
    if argv is None:
        runs = [(str(_write_files(tmp_path / str(i), case)), case["argv"], case["code"])
                for i, case in enumerate(CASES["cases"])]
    code = f"import os, framedhom.cli as c\nfor d, argv, code in {runs!r}:\n    os.chdir(d)\n    assert c.main(argv) == code, argv"
    assert _loaded_after(code, ["dataclasses", "inspect", "argparse"]) == []


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
    # a census genus the engine does not serve is refused before numpy loads
    refused = "import framedhom.cli as c; assert c.main(['verify', 'census', '--g', '4']) == 2"
    assert _loaded_after(refused, watched) == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "framedhom.cli", "stratum", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["regime"] == "even"
