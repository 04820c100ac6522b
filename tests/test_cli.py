"""CLI surface: formats, the verify suite's fixture check, determinism, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import treewalks
from treewalks import cli, oracle, rlseq, triangles, verify
from treewalks import fixtures as fx
from treewalks.exact import exact_div
from treewalks.series import gf_walk_counts


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_catalan_plain(capsys):
    code, out, _ = run(capsys, "triangle", "catalan", "--rows", "2")
    assert code == 0
    assert out == "1\n1 1\n1 2 2\n"


def test_triangle_borel_row0(capsys):
    code, out, _ = run(capsys, "triangle", "borel", "--rows", "0")
    assert code == 0
    assert out.strip() == "1"


def test_triangle_borel_row7(capsys):
    code, out, _ = run(capsys, "triangle", "borel", "--rows", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[7] == "1430,8008,19656,27300,23100,11880,3432,429"


def test_triangle_json_round_trips(capsys):
    code, out, _ = run(capsys, "triangle", "catalan", "--rows", "5", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed) == out.strip()
    assert parsed[5] == ["1", "5", "14", "28", "42", "42"]


def test_walks_default_method(capsys):
    code, out, _ = run(capsys, "walks", "--n", "1", "--delta", "5")
    assert code == 0 and out.strip() == "5"


def test_walks_all_methods_agree(capsys):
    code, out, _ = run(capsys, "walks", "--n", "2", "--delta", "3", "--method", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.split()[-1] == "15" for line in lines)


def test_walks_delta2_central_binomial(capsys):
    code, out, _ = run(capsys, "walks", "--n", "6", "--delta", "2")
    assert code == 0 and out.strip() == "924"


def test_walks_json(capsys):
    code, out, _ = run(
        capsys, "walks", "--n", "3", "--delta", "3", "--method", "all", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {m: "87" for m in ["components", "catalan", "borel", "gf", "oracle"]}


def test_walks_gf_at_delta_1_prints_1(capsys):
    assert run(capsys, "walks", "--n", "3", "--delta", "1", "--method", "gf") == (0, "1\n", "")


def test_walks_all_delta1_prints_five_ones(capsys):
    code, out, err = run(capsys, "walks", "--n", "4", "--delta", "1", "--method", "all")
    assert code == 0
    assert [line.split() for line in out.splitlines()] == [
        [m, "1"] for m in ("components", "catalan", "borel", "gf", "oracle")
    ]
    assert err == ""
    code, out, err = run(
        capsys, "walks", "--n", "4", "--delta", "1", "--method", "all", "--format", "csv"
    )
    assert (code, err) == (0, "")
    assert out == "components,1\ncatalan,1\nborel,1\ngf,1\noracle,1\n"


@pytest.mark.parametrize("delta", ["0", "-3"])
def test_walks_all_below_delta_1_is_a_domain_error(capsys, delta):
    code, out, err = run(capsys, "walks", "--n", "4", "--delta", delta, "--method", "all")
    assert code == 2 and out == ""
    assert err == f"error: delta must be >= 1, got {delta}\n"
    code, out, err = run(capsys, "walks", "--n", "4", "--delta", delta, "--method", "gf")
    assert code == 2 and out == ""
    assert err == f"error: delta must be >= 1, got {delta}\n"


def test_walks_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "walks", "--n", "0", "--delta", "3")
    assert code == 2 and "error" in err


def test_poly_plain_and_ascii(capsys):
    code, out, _ = run(capsys, "poly", "--n", "4")
    assert code == 0
    assert out.strip() == "14δ⁴ − 28δ³ + 20δ² − 5δ"
    code, out, _ = run(capsys, "poly", "--n", "4", "--ascii")
    assert out.strip() == "14d^4 - 28d^3 + 20d^2 - 5d"


def test_poly_n1(capsys):
    code, out, _ = run(capsys, "poly", "--n", "1")
    assert code == 0 and out.strip() == "δ"


def test_poly_json(capsys):
    code, out, _ = run(capsys, "poly", "--n", "6", "--format", "json")
    assert json.loads(out) == ["132", "-495", "770", "-616", "252", "-42"]


def test_stable_output(capsys):
    code, out, _ = run(capsys, "stable", "--n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1", "1", "1,1", "2,2,1", "5,5,3,1"]


def test_stable_methods_agree(capsys):
    third_rows = {"csv": "2,2,1", "plain": "2 2 1", "json": ["2", "2", "1"]}
    for fmt, third_row in third_rows.items():
        outputs = set()
        for method in ("recurrence", "enumerated", "closed"):
            code, out, _ = run(capsys, "stable", "--n", "8", "--method", method, "--format", fmt)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1
        # rows m >= 1 are printed without the zero S(m, 0)
        rows = json.loads(out) if fmt == "json" else out.splitlines()
        assert rows[3] == third_row


def test_stable_enum_cap(capsys):
    code, _, err = run(
        capsys, "stable", "--n", "9", "--method", "enumerated", "--enum-cap", "8"
    )
    assert code == 2 and "cap" in err
    # the methods that do not enumerate ignore the cap, whatever its value
    for method in ("recurrence", "closed"):
        code, out, err = run(capsys, "stable", "--n", "9", "--method", method, "--enum-cap", "-1")
        assert (code, err) == (0, "")
        assert out == run(capsys, "stable", "--n", "9", "--method", method)[1]


@pytest.mark.parametrize("method", ["recurrence", "enumerated", "closed"])
def test_stable_checks_each_row_once(capsys, monkeypatch, method):
    table, checked = list(rlseq.s_table_recurrence(6)), []

    def counting(rows, kind):
        for row in triangles.checked_rows(rows, kind):
            checked.append(row)
            yield row

    # the enumerated rows are checked by their builder, the others by the CLI
    monkeypatch.setattr(cli, "checked_rows", counting)
    monkeypatch.setattr(rlseq, "checked_rows", counting)
    code, _, _ = run(capsys, "stable", "--n", "6", "--method", method)
    assert (code, checked) == (0, table)


def test_verify_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "8", "--max-delta", "4", "--enum-cap", "6"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.rstrip().endswith("PASS") for line in lines)


def test_every_verify_check_counts_its_cases():
    results = verify.run_all(12, 6, 8)
    assert len(results) == 7
    for r in results:
        assert r.passed and r.cases > 0, r
    # every entry of the bundled tables: 36 + 36 triangle, 21 polynomial, 21 multiplier
    assert (results[-1].name, results[-1].cases) == ("golden fixtures", 114)


def test_a_check_that_compares_nothing_fails():
    results = verify.run_all(0, 6, 8)
    failed = [(r.detail, r.cases) for r in results if not r.passed]
    assert failed == [("checked nothing", 0)] * 5
    assert all(r.cases > 0 for r in results if r.passed)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "--max-n", "0"], "--max-n"),
        (["verify", "--enum-cap", "-1"], "--enum-cap"),
        (["stable", "--n", "3", "--method", "enumerated", "--enum-cap", "-1"], "--enum-cap"),
        (["verify", "--max-delta", "0"], "--max-delta"),
        (["stable", "--n", "-1", "--method", "closed"], "n must be >= 0, got -1"),
        (["verify", "--enum-cap", "0"], "--enum-cap"),
        (["triangle", "catalan", "--rows", "-1"], "--rows"),
        (["verify", "--max-n", "32", "--enum-cap", "32"], "--enum-cap"),
    ],
)
def test_bounds_that_check_nothing_exit_2(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert option in err


def test_verify_trivial_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--max-delta", "1")
    assert code == 0


def test_verify_runs_gf_at_delta_1(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-delta", "1", "--enum-cap", "3")
    assert code == 0
    assert "five-method agreement              PASS\n" in out
    assert "(" not in out
    assert verify.check_method_agreement(3, 1) == verify.CheckResult(
        "five-method agreement", True, "", 3
    )
    assert verify.check_method_agreement(3, 2) == verify.CheckResult(
        "five-method agreement", True, "", 6
    )


def _corrupt_triangle(monkeypatch, kind, n, k, value):
    rows = [list(row) for row in fx.TRIANGLES[kind]]
    rows[n][k] = value
    monkeypatch.setitem(fx.TRIANGLES, kind, rows)


def _verify_fail_lines(capsys):
    """The FAIL lines of a small ``verify``, which must exit 1."""
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--max-delta", "2", "--enum-cap", "4")
    assert code == 1
    return [line for line in out.splitlines() if "FAIL" in line]


_FIXTURES_FAIL = "golden fixtures                    FAIL  "


def test_verify_corrupted_fixture_fails_with_location(capsys, monkeypatch):
    _corrupt_triangle(monkeypatch, "borel", 3, 1, 29)  # B(3, 1) is 28
    assert _verify_fail_lines(capsys) == [
        _FIXTURES_FAIL + "(borel triangle (n=3, k=1): computed 28, fixture 29)"
    ]


def test_triangle_corrupted_fixture_exit_1(capsys, monkeypatch):
    _corrupt_triangle(monkeypatch, "catalan", 5, 2, 15)  # C(5, 2) is 14
    assert _verify_fail_lines(capsys) == [
        _FIXTURES_FAIL + "(catalan triangle (n=5, k=2): computed 14, fixture 15)"
    ]


def test_poly_corrupted_fixture_names_both_lists(capsys, monkeypatch):
    monkeypatch.setitem(fx.WALK_POLYNOMIALS, 4, [14, -28, 21, -5])  # 20 is right
    assert _verify_fail_lines(capsys) == [
        _FIXTURES_FAIL + "(polynomial n=4: computed [14, -28, 20, -5], fixture [14, -28, 21, -5])"
    ]


def test_verify_fixture_check_catches_a_wrong_k_return_multiplier(monkeypatch):
    monkeypatch.setitem(fx.K_RETURN_MULTIPLIERS, (4, 2), 6)  # C(3, 2) = 5 is right
    result = verify.check_fixtures()
    assert not result.passed
    assert result.detail == "k-return multiplier (n=4, k=2): computed 5, fixture 6"


def test_usage_error_unknown_command(capsys):
    # the same text on every Python, though argparse quotes the choices
    # or not, and reads "--" as the command or skips it, by version
    choices = "'triangle', 'walks', 'poly', 'stable', 'verify'"
    cases = (
        (["frobnicate"], "frobnicate"),
        (["-x", "frobnicate"], "frobnicate"),
        (["--", "frobnicate"], "--"),
    )
    for argv, word in cases:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        message = f"argument command: invalid choice: {word!r} (choose from {choices})"
        assert capsys.readouterr().err.endswith(f"treewalks: error: {message}\n")


def test_the_command_tuple_is_the_parsers(capsys):
    # main refuses a "--" before the command, and reads help words, from
    # ``cli.COMMANDS``; argparse refuses any other unknown command
    assert "{" + ",".join(cli.COMMANDS) + "}" in cli.build_parser().format_usage()
    # argparse refuses "-hx" and "-h x" before 3.13 and prints the help
    # from 3.13 on; main makes it print the help on every Python
    for command in ("", *cli.COMMANDS):
        for words in (["--help"], ["-hx"], ["-h x"], ["-h", "frobnicate"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, *words] if command else words)
            assert exc.value.code == 0
            usage = f"usage: treewalks {command} [-h]" if command else "usage: treewalks [-h]"
            assert capsys.readouterr().out.startswith(usage)


def test_an_index_error_is_not_a_usage_error(monkeypatch):
    # only ValueError is a usage error, exit 2; an IndexError is a bug
    def broken(n):
        raise IndexError("internal")

    monkeypatch.setattr(cli, "walks_polynomial", broken)
    with pytest.raises(IndexError, match="internal"):
        cli.main(["poly", "--n", "3"])


def test_an_exactness_fault_is_one_line_and_exit_3(monkeypatch, capsys):
    monkeypatch.setitem(cli.ROUTES, "catalan", lambda n, delta: exact_div(7, 2))
    code, out, err = run(capsys, "walks", "--n", "3", "--delta", "3")
    assert (code, out) == (cli.EXIT_EXACTNESS, "") and code == 3
    assert err == "error: exactness fault: non-exact division of a 3-bit by a 2-bit integer\n"


def test_the_oracles_own_exactness_fault_exits_3(monkeypatch, capsys):
    # oracle.py raises a plain ArithmeticError, as it imports nothing from the package
    real = oracle._exact
    monkeypatch.setattr(oracle, "_exact", lambda numerator, divisor: real(7, 2))
    code, out, err = run(capsys, "walks", "--n", "5", "--delta", "3", "--method", "oracle")
    assert (code, out) == (3, "")
    detail = "non-exact division by a power of delta - 1 in the DP"
    assert err == f"error: exactness fault: {detail}\n"


@pytest.mark.parametrize("bug", [ZeroDivisionError, OverflowError, FloatingPointError])
def test_an_arithmetic_bug_is_not_an_exactness_fault(monkeypatch, bug):
    # these ArithmeticErrors are bugs, as the IndexError above is
    def broken(n):
        raise bug("internal")

    monkeypatch.setattr(cli, "walks_polynomial", broken)
    with pytest.raises(bug, match="internal"):
        cli.main(["poly", "--n", "3"])


def test_determinism(capsys):
    a = run(capsys, "triangle", "borel", "--rows", "6", "--format", "json")
    b = run(capsys, "triangle", "borel", "--rows", "6", "--format", "json")
    assert a == b


# sha256 of the stdout of `triangle borel --rows N --format F`, pinned
# from the transform-built table before the row recurrence replaced it
_BOREL_OUTPUT_SHA256 = {
    (122, "plain"): "9307a23d4a3e9e9f51ff2661dce38843978ef4f35abb76915bd345f54327e65f",
    (122, "csv"): "ba186ef00e6e6b6c195fa3dc83c2c9d187e547260fa01397b7caa45c22adaf52",
    (122, "json"): "731f807e1dfc9d3b4ed6a79ba64661c378f89d49946a91274344c0937789c64a",
    (400, "plain"): "3d4383b22e546989759f13e659298a776259fd2e82021ae75102707d808e1135",
    (400, "csv"): "17691a77a9c51db2c47fe6f074711b228ea5cfa5df5722d81ba59ceecd7cd6e2",
    (400, "json"): "14e2497257169fdec7ce9ca8b35e9099e8f0770ec12d05e753c036c36a4843e7",
}


@pytest.mark.parametrize("rows, fmt", sorted(_BOREL_OUTPUT_SHA256))
def test_borel_triangle_output_is_pinned(capsys, rows, fmt):
    code, out, err = run(capsys, "triangle", "borel", "--rows", str(rows), "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _BOREL_OUTPUT_SHA256[rows, fmt]


# sha256 of the stdout of each table command at 300 rows, pinned from the
# whole-table builders before the tables were streamed row by row
_TABLE_OUTPUT_SHA256 = {
    ("triangle catalan --rows 300", "plain"): "6883a9dc6197ac856ea3cbe4b20fa620d8f981164b8eafc95b5995757410705e",
    ("triangle catalan --rows 300", "csv"): "f236530e0331b11f9706793bebeda9df5dca662c3eb705e9cb80032e1d0aa874",
    ("triangle catalan --rows 300", "json"): "58ba06f46ba366a05d6b6e6820cca2b339cc74dc07f54977425ea745f2d41959",
    ("triangle borel --rows 300", "plain"): "2719259831ebf42ea40ba709ded721c723f86304609a8200285ccf94f8226705",
    ("triangle borel --rows 300", "csv"): "7abcd8cdcca57eae0f88638fad6ed15683d8ba0804c97651aac20de13e26faa4",
    ("triangle borel --rows 300", "json"): "44d629bcbbe347ba62f85df6ead5e9c4f865a927b5a5b614961d61ce98d09470",
    ("stable --n 300 --method recurrence", "plain"): "f866c480e3d530439467dc4930f97fc8ccd6292dafed3c43170a91429a598661",
    ("stable --n 300 --method recurrence", "csv"): "3b2fbf5374c88e4809fdd47ce2dffaf12d03c155e1ba3a4d313c1016ebb54f06",
    ("stable --n 300 --method recurrence", "json"): "776cb6f126cde49bf2233b77e8528e4bc7f95cd048fa6f075e112d91fae2fd0f",
    ("stable --n 300 --method closed", "plain"): "f866c480e3d530439467dc4930f97fc8ccd6292dafed3c43170a91429a598661",
    ("stable --n 300 --method closed", "csv"): "3b2fbf5374c88e4809fdd47ce2dffaf12d03c155e1ba3a4d313c1016ebb54f06",
    ("stable --n 300 --method closed", "json"): "776cb6f126cde49bf2233b77e8528e4bc7f95cd048fa6f075e112d91fae2fd0f",
}


@pytest.mark.parametrize("command, fmt", sorted(_TABLE_OUTPUT_SHA256))
def test_streamed_table_output_is_pinned(capsys, command, fmt):
    code, out, err = run(capsys, *command.split(), "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_OUTPUT_SHA256[command, fmt]


@pytest.mark.parametrize(
    "module, builder, argv, bad_rows, printed",
    [
        (cli, "catalan_rows", ["triangle", "catalan", "--rows", "3"], [(0,)], ""),
        (cli, "borel_rows", ["triangle", "borel", "--rows", "3"], [(0,)], ""),
        (rlseq, "_s_rows", ["stable", "--n", "3"], [(0,)], ""),
        (cli, "catalan_rows", ["triangle", "catalan", "--rows", "3"], [(1,), (1, 0)], "1\n"),
        (rlseq, "_s_rows", ["stable", "--n", "3"], [(1,), (1, 0), (1, 0, 0)], "1\n1\n"),
    ],
    ids=["catalan-row-0", "borel-row-0", "stable-row-0", "catalan-row-1", "stable-row-2"],
)
def test_a_row_that_fails_the_table_check_stops_the_output(
    capsys, monkeypatch, module, builder, argv, bad_rows, printed
):
    monkeypatch.setattr(module, builder, lambda n: iter(bad_rows))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: row {len(bad_rows) - 1} has an entry < 1\n"
    # rows stream as they pass the check, and a bad first row prints nothing
    assert out == printed


def test_walks_prints_answers_past_the_int_str_limit(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = get_limit()
    code, out, err = run(capsys, "walks", "--n", "5000", "--delta", "3", "--method", "gf")
    assert (code, err) == (0, "")
    assert get_limit() == before
    digits = out.strip()
    assert len(digits) == 4511
    # Decimal reads a string of any length, whatever the int -> str limit
    assert Decimal(digits) == gf_walk_counts(3, 5000)[5000]


def _child(argv, **kwargs):
    """Run ``python`` with ``argv`` against this checkout's treewalks."""
    env = dict(os.environ, PYTHONPATH=str(Path(treewalks.__file__).parents[1]))
    return subprocess.Popen([sys.executable, *argv], env=env, **kwargs)


def test_a_closed_pipe_exits_141_without_a_traceback():
    argv = ["-m", "treewalks.cli", "triangle", "catalan", "--rows", "800"]
    proc = _child(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
    assert head.startswith(b"1\n1 1\n1 2 2\n")


_PEAK_RSS_SCRIPT = """
import sys
from treewalks import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
hwm = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(code, hwm.split()[1], file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize(
    "argv", [["stable", "--n", "600", "--format", "json"], ["triangle", "catalan", "--rows", "600"]]
)
def test_tables_stream_in_bounded_memory(argv):
    proc = _child(
        ["-c", _PEAK_RSS_SCRIPT, *argv], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    _, err = proc.communicate(timeout=120)
    code, peak_kb = map(int, err.split())
    # a whole table at 600 rows peaks at 93-134 MB, a streamed one near 20 MB
    assert code == 0 and peak_kb < 50 * 1024


# every subcommand, an argparse error, and a default that follows an override
_MIXED_ARGV = [
    ["triangle", "catalan", "--rows", "5", "--format", "csv"],
    ["triangle", "borel", "--rows", "4", "--format", "json"],
    ["walks", "--n", "6", "--delta", "3", "--method", "all"],
    ["walks", "--n", "3", "--delta", "4", "--method", "gf"],
    ["walks", "--n", "0", "--delta", "3"],
    ["poly", "--n", "5", "--ascii"],
    ["poly", "--n", "7"],
    ["stable", "--n", "6", "--method", "enumerated", "--enum-cap", "5"],
    ["stable", "--n", "6", "--method", "enumerated"],
    ["stable", "--n", "4", "--method", "closed", "--format", "json"],
    ["walks", "--n", "2"],
    ["triangle", "pascal", "--rows", "3"],
    ["verify", "--max-n", "3", "--max-delta", "2", "--enum-cap", "3"],
    ["verify", "--max-n", "0"],
    ["triangle", "borel", "--rows", "3"],
]


def _run_each(capsys, argv_list):
    outcomes = []
    for argv in argv_list:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_one_parser_per_process_answers_like_a_fresh_one(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    shared = _run_each(capsys, _MIXED_ARGV)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _run_each(capsys, _MIXED_ARGV)
    assert shared == fresh
    assert shared[7][0] == 2 and "enumeration cap" in shared[7][2].lower()
    assert shared[8][0] == 0
    assert [o[0] for o in shared[10:12]] == [("exit", 2)] * 2
