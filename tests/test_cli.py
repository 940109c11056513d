import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import patstats
from patstats import oracle
from patstats.cli import main

REQUIRED_FIELDS = {"command", "kind", "inputs", "result", "provenance"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    record = json.loads(out)
    assert set(record) == REQUIRED_FIELDS
    return record


def test_uparrow_overflow_marker(capsys):
    record = run_json(capsys, "bounds", "uparrow", "-x", "2", "-y", "5",
                      "--cap", "1000")
    assert record["result"] == {"overflow_beyond_digits": 1000}


def test_zimin_upper_base_past_the_cap_is_a_marker(capsys):
    record = run_json(capsys, "bounds", "zimin-upper", "-m", "5", "-i", "2", "--cap", "1")
    assert record["result"] == {"overflow_beyond_digits": 1}


@pytest.mark.parametrize("argv", [
    ("bounds", "uparrow", "-x", "2", "-y", "6"),
    ("bounds", "zimin-upper", "-m", "2", "-i", "4", "--mode", "tetration"),
], ids=["uparrow-2-6", "zimin-upper-2-4-tetration"])
def test_overflow_past_float_range_is_a_marker(capsys, argv):
    record = run_json(capsys, *argv)
    assert record["result"] == {"overflow_beyond_digits": 1_000_000}


@pytest.mark.parametrize("argv, expected", [
    (("bounds", "uparrow", "-x", "2", "-y", "5"), 2 ** 65536),
    (("bounds", "zimin-upper", "-m", "3", "-i", "4"), 3 ** 17503 * 17504 + 17503),
    # an exact series coefficient, C(731, 2) * 10^(6 * 730): 4,386 digits
    (("coeff", "--kind", "full", "-p", "a", "-m", "1000000", "-n", "730"), 266815 * 10 ** 4380),
], ids=["uparrow-2-5", "zimin-upper-3-4", "coeff-full-a-730"])
def test_exact_bounds_print_every_digit(capsys, argv, expected):
    # each has more digits than the interpreter's default int-to-str limit
    limit = sys.get_int_max_str_digits()
    record = run_json(capsys, *argv)
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert record["result"] == str(expected)
    finally:
        sys.set_int_max_str_digits(limit)


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ("bounds", "zimin-lower", "--kind", "full", "-m", "2", "-i", "60"),
    ("bounds", "zimin-lower", "--kind", "abelian", "-m", "12", "-i", "10", "--eps", "1e-3"),
    ("bounds", "zimin-lower", "--kind", "abelian", "-m", "12", "-i", "40", "--eps", "1e-3"),
    ("stats", "--kind", "full", "-p", "abcdefghijklmnopqrstuvwxyz", "-m", "2",
     "-n", "100000000000000000000"),
    ("bounds", "zimin-lower", "--kind", "full", "-m", "2", "-i", "1100"),
], ids=["zimin-lower-full-2-60", "zimin-lower-abelian-12-10", "zimin-lower-abelian-12-40",
        "stats-full-past-float-range", "zimin-lower-full-2-1100"])
def test_non_finite_results_print_as_strict_json(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    record = json.loads(out, parse_constant=_no_constant)
    assert record["result"] == "inf"
    assert float(record["result"]) == float("inf")


@pytest.mark.parametrize("argv", [
    ("bounds", "threshold", "--kind", "full", "-p", "ab", "-m", "0"),
    ("bounds", "threshold", "--kind", "full", "-p", "aa", "-m", "2", "-d", "1/10"),
    ("bounds", "threshold", "--kind", "density", "-p", "aa", "-m", "1", "-d", "1/10"),
], ids=["empty-alphabet", "density-outside-density-kind", "vanishing-density-denominator"])
def test_threshold_input_checks_match_the_means(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.strip().startswith("error:")
    stats = ["stats", "-n", "10", *argv[2:]]
    assert run(capsys, *stats)[0] == 1


def test_hole_glyph_accepted_on_input(capsys):
    record = run_json(capsys, "oracle", "count", "--kind", "partial-morphism",
                      "-w", "velve⋄ta", "-p", "abab", "-m", "26")
    assert int(record["result"]) >= 1


def test_exit_code_domain_error(capsys):
    code, out, err = run(capsys, "stats", "--kind", "abelian",
                         "-p", "aba", "-m", "3", "-n", "10")
    assert code == 1
    assert err.strip().startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("coeff", "--kind", "full", "-p", "aa", "-m", "2", "-n", "3", "--holes", "1"),
    ("coeff", "--kind", "bivariate", "-p", "aa", "-m", "2", "-n", "2"),
    ("stats", "--kind", "abelian-rs", "-p", "aba", "-m", "12", "-n", "100", "-d", "1/10"),
], ids=["holes-on-univariate", "bivariate-without-holes", "density-on-abelian-rs"])
def test_exit_code_input_the_kind_cannot_use(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.strip().startswith("error:")


@pytest.mark.parametrize("argv", [
    ("search", "find", "--kind", "full", "-p", "aa", "-m", "0", "-n", "5"),
    ("search", "ramsey", "--kind", "full", "-p", "aa", "-m", "-1", "--n-max", "5"),
], ids=["find-empty-alphabet", "ramsey-negative-alphabet"])
def test_exit_code_search_without_letters(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.strip() == "error: alphabet size must be >= 1"


@pytest.mark.parametrize("kind, holes", [("full", ()), ("bivariate", ("--holes", "0"))])
def test_exit_code_negative_coefficient_index(capsys, kind, holes):
    code, out, err = run(capsys, "coeff", "--kind", kind, "-p", "aa", "-m", "2", "-n", "-1",
                         *holes)
    assert code == 1
    assert out == ""
    assert err.strip() == "error: coefficient index -n must be >= 0, got -1"


def test_exit_code_unknown_flag(capsys):
    code, out, err = run(capsys, "oracle", "count", "--kind", "full",
                         "-w", "ab", "-p", "a", "-m", "2", "--bogus")
    assert code == 1
    assert "error:" in err


def test_exit_code_malformed_word(capsys):
    code, out, err = run(capsys, "oracle", "count", "--kind", "full",
                         "-w", "a!b", "-p", "a", "-m", "2")
    assert code == 1


def test_exit_code_budget(capsys):
    code, out, err = run(capsys, "oracle", "total", "--kind", "full",
                         "-p", "aa", "-m", "2", "-n", "12", "--budget", "10")
    assert code == 2
    assert "budget" in err


def test_exit_code_search_budget(capsys):
    # a spent node budget is a budget failure for find as for ramsey
    code, out, err = run(capsys, "search", "find", "--kind", "full",
                         "-p", "abab", "-m", "3", "-n", "40", "--budget", "5")
    assert (code, out) == (2, "")
    assert "budget" in err


def test_exit_code_tolerance(capsys):
    code, out, err = run(capsys, "stats", "--kind", "abelian",
                         "-p", "aba", "-m", "4", "-n", "10", "--eps", "1e-9")
    assert code == 2
    assert "tolerance" in err


def test_threads_flag_matches_sequential(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_WALKED_PER_WORKER", 1)  # a pool even for 243 words
    lone = run_json(capsys, "oracle", "total", "--kind", "partial-collapsed",
                    "-p", "aba", "-m", "2", "-n", "5")
    multi = run_json(capsys, "--threads", "2", "oracle", "total",
                     "--kind", "partial-collapsed", "-p", "aba", "-m", "2", "-n", "5")
    assert lone["result"] == multi["result"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_an_input_error(capsys, threads):
    code, out, err = run(capsys, "--threads", threads, "oracle", "total",
                         "--kind", "full", "-p", "aa", "-m", "2", "-n", "3")
    assert (code, out) == (1, "")
    assert "workers" in err


def test_csv_format(capsys):
    code, out, err = run(capsys, "--format", "csv", "oracle", "count",
                         "--kind", "full", "-w", "11111111", "-p", "aba", "-m", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("command,kind,inputs")
    assert "34" in lines[1]


@pytest.mark.parametrize("argv, header, row", [
    (("search", "find", "--kind", "full", "-p", "aba", "-m", "2", "-n", "4"),
     ["status", "witness", "nodes"], ["found", "aabb", "6"]),
    (("search", "ramsey", "--kind", "full", "-p", "aba", "-m", "2", "--n-max", "10"),
     ["ramsey_length", "searched_up_to"], ["5", "10"]),
    (("search", "ramsey", "--kind", "full", "-p", "aa", "-m", "3", "--n-max", "5"),
     ["ramsey_length", "searched_up_to"], ["", "5"]),
    # past 26 letters the witness is a list of letters, joined like the inputs
    (("search", "find", "--kind", "full", "-p", "aa", "-m", "27", "-n", "3"),
     ["status", "witness", "nodes"], ["found", "0;1;0", "4"]),
], ids=["find", "ramsey", "ramsey-none", "find-list"])
def test_csv_dict_result_is_one_row_of_its_keys(capsys, argv, header, row):
    code, out, err = run(capsys, "--format", "csv", *argv)
    assert code == 0, err
    top, cells = csv.reader(out.splitlines())
    assert top == ["command", "kind", "inputs"] + header + ["provenance"]
    assert cells[3:-1] == row


def test_json_round_trip_is_lossless(capsys):
    record = run_json(capsys, "oracle", "mean", "--kind", "partial-collapsed",
                      "-p", "aa", "-m", "2", "-n", "2", "--strict")
    again = json.loads(json.dumps(record))
    assert again == record
    assert record["result"] == "1"


def test_reproduce_emits_all_lines_and_exit_reflects_tolerances(capsys):
    code, out, err = run(capsys, "reproduce")
    record = json.loads(out)
    rows = record["result"]
    names = {r["name"] for r in rows}
    assert len(rows) == 10
    # the density reference line is a truncated print of 17.78894 and sits
    # just outside its pinned 5e-5 tolerance, so reproduce exits nonzero
    bad = [r for r in rows if not r["ok"]]
    assert [r["name"] for r in bad] == ["mean-density-abacaba-m12-n100-d1/10"]
    assert code == 2
    assert "count-full-ones8-aba" in names

# One cheap argv per leaf command: each record's fields other than its result,
# so a handler wired to the wrong command shows.
RECORD_CASES = [
    ("oracle count --kind partial-morphism -w a.b -p aa -m 2", 0, "oracle count",
     "partial-morphism", {"word": "a.b", "pattern": "aa", "m": 2},
     "brute-force occurrence count"),
    ("oracle total --kind partial-collapsed -p aa -m 2 -n 3 --holes 1", 0, "oracle total",
     "partial-collapsed", {"n": 3, "m": 2, "pattern": "aa", "holes": 1},
     "occurrence total over every word of the shape"),
    ("oracle mean --kind partial-collapsed -p aa -m 2 -n 2 --strict", 0, "oracle mean",
     "partial-collapsed", {"n": 2, "m": 2, "pattern": "aa", "strict": True},
     "exact mean occurrence count (total / population)"),
    ("coeff --kind bivariate -p aa -m 2 -n 2 --holes 1", 0, "coeff", "bivariate",
     {"pattern": "aa", "m": 2, "n": 2, "holes": 1},
     "exact coefficient of the hole-marked series"),
    ("stats --kind density -p aa -m 3 -n 10 -d 1/10", 0, "stats", "density",
     {"pattern": "aa", "m": 3, "n": 10, "d": "1/10"},
     "closed-form leading-term mean occurrence count"),
    ("bounds uparrow -x 2 -y 3 --cap 5", 0, "bounds uparrow", None,
     {"x": 2, "y": 3, "cap": 5}, "iterated exponentiation"),
    ("bounds zimin-upper -m 2 -i 3 --mode tetration --cap 10", 0, "bounds zimin-upper",
     "tetration", {"m": 2, "i": 3, "mode": "tetration"},
     "upper bound on the Zimin forcing length"),
    ("bounds zimin-lower --kind density -m 3 -i 2 -d 1/3", 0, "bounds zimin-lower",
     "density", {"m": 3, "i": 2, "d": "1/3"},
     "first-moment lower bound on the Zimin forcing length"),
    ("bounds threshold --kind full -p aba -m 2", 0, "bounds threshold", "full",
     {"pattern": "aba", "m": 2}, "first-moment avoidance length bound"),
    ("bounds exact-threshold --kind abelian -p aa -m 2 --n-max 5", 0,
     "bounds exact-threshold", "abelian", {"pattern": "aa", "m": 2, "n_max": 5},
     "largest length with exact mean occurrence count below 1"),
    ("search find --kind partial-collapsed -p aa -m 3 -n 3 --holes 0", 0, "search find",
     "partial-collapsed", {"pattern": "aa", "m": 3, "length": 3, "holes": 0},
     "backtracking avoiding-word search, oracle-verified"),
    ("search ramsey --kind abelian -p aa -m 2 --n-max 6", 0, "search ramsey", "abelian",
     {"pattern": "aa", "m": 2, "n_max": 6}, "exact forcing length by exhaustive search"),
    ("reproduce", 2, "reproduce", None, {}, "bundled reference values vs recomputed values"),
]


@pytest.mark.parametrize("argv, code, command, kind, inputs, provenance", RECORD_CASES,
                         ids=[case[0].split(" -")[0].replace(" ", "-") for case in RECORD_CASES])
def test_each_command_records_its_own_fields(capsys, argv, code, command, kind, inputs,
                                             provenance):
    got, out, err = run(capsys, *argv.split())
    assert got == code, err
    record = json.loads(out)
    assert set(record) == REQUIRED_FIELDS
    assert (record["command"], record["kind"], record["inputs"], record["provenance"]) \
        == (command, kind, inputs, provenance)


@pytest.mark.parametrize("argv", [
    "search find --kind full -p aba -m 2 -n 4 --budget 0",
    "coeff --kind full -p aa -m 2 -n 2 --order 3",  # the option is gone
    "bounds zimin-upper -m 2 -i 2 --cap -5",
    "bounds zimin-upper -m 2 -i 2 --cap 0",
    "bounds zimin-upper -m 2 -i 2 --mode tetration --cap 0",
    "stats --kind abelian -p aa -m 12 -n 10 --eps nan",
], ids=["search-budget-0", "coeff-order", "zimin-upper-cap-negative", "zimin-upper-cap-0",
        "zimin-upper-tetration-cap-0", "stats-eps-nan"])
def test_exit_code_rejected_option_value(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 1
    assert out == ""
    assert err.strip().startswith("error:")


def test_closed_stdout_ends_quietly_with_the_command_exit_code():
    # 695,975 digits outgrow the pipe buffer, so the print meets the closed pipe
    env = {**os.environ, "PYTHONPATH": str(Path(patstats.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "patstats.cli", "bounds", "uparrow", "-x", "7", "-y", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{\n  "comma'
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 0
