import argparse
import hashlib
import json
import sys
from fractions import Fraction
from itertools import groupby
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grothtab import arith, cli, hypergeom
from grothtab.grothendieck import principal_specialization_q
from grothtab.hypergeom import HolmanInstance
from grothtab.identities import CHECKS, Check, Grid, run_check
from grothtab.partitions import Partition
from memos import clear_memos

DATA = Path(__file__).parent / "data"
SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "grothtab" / "schemas" / "report.schema.json").read_text())
# exit code, stdout and stderr of one CLI invocation each; the argv lists are
# the benchmark's one-shot query mix for seed 1 plus eval-groth and
# eval-holman --fixture cases, and paths in them are relative to the repo root
TRANSCRIPT = json.loads((DATA / "cli_transcript.json").read_text())
# argparse's own output (help, usage and its errors, all of which exit from
# parse_args), pinned with COLUMNS=80 from the parser that registered every
# subcommand, on the Python version named in the file
ARGPARSE = json.loads((DATA / "cli_argparse.json").read_text())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_shape_forms():
    assert cli.parse_shape("4,3") == Partition((4, 3))
    assert cli.parse_shape("1^4") == Partition((1, 1, 1, 1))
    assert cli.parse_shape("2^2,1") == Partition((2, 2, 1))
    assert cli.parse_shape("0") == Partition(())
    assert cli.parse_shape("()") == Partition(())
    with pytest.raises(ValueError):
        cli.parse_shape("1,2")
    with pytest.raises(ValueError):
        cli.parse_shape("x")
    for text in ["2^-1", "2^0,1"]:
        with pytest.raises(ValueError, match=r"repeat count in '2\^-?[01]' must be at least 1"):
            cli.parse_shape(text)


def test_parse_shape_round_trips_str_form():
    for parts in [(), (3,), (4, 3), (2, 2, 1)]:
        lam = Partition(parts)
        assert cli.parse_shape(str(lam)) == lam


@given(st.lists(st.integers(1, 6), max_size=7).map(
    lambda parts: Partition(sorted(parts, reverse=True))), st.data())
def test_parse_shape_round_trips_random_partitions(lam, data):
    assert cli.parse_shape(str(lam)) == lam
    tokens = []
    for part, run in groupby(lam):
        k = len(list(run))
        shorthand = data.draw(st.booleans())
        tokens.append(f"{part}^{k}" if shorthand else ",".join([str(part)] * k))
    assert cli.parse_shape(",".join(tokens)) == lam


def test_count_svt_reference_values(capsys):
    for shape, vars_, want in [("2,1", "3", "27"), ("2,2", "4", "97"), ("1", "1", "1")]:
        code, out, _ = run_cli(capsys, "count-svt", "--shape", shape, "--vars", vars_)
        assert code == 0 and out.strip() == want


def test_count_svt_all_methods_agree(capsys):
    code, out, _ = run_cli(capsys, "count-svt", "--shape", "2,2", "--vars", "3",
                           "--method", "all")
    assert code == 0
    assert "enum: 13" in out and "formula: 13" in out and "holman: 13" in out
    assert "agree" in out


def test_count_svt_method_disagreement_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_svt_formula", lambda shape, n: 999)
    code, out, err = run_cli(capsys, "count-svt", "--shape", "2,1", "--vars", "3",
                             "--method", "all")
    assert code == 1
    assert "DISAGREE" in out
    assert "999" in err


def test_count_svt_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "count-svt", "--shape", "2,1", "--vars", "3",
                           "--method", "all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"enum": 27, "formula": 27, "holman": 27}
    assert payload["agree"] is True
    code, out, _ = run_cli(capsys, "count-svt", "--shape", "2,1", "--vars", "3",
                           "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "shape,vars,method,count"
    assert lines[1] == '"(2,1)",3,formula,27'


def test_count_sst_methods(capsys):
    code, out, _ = run_cli(capsys, "count-sst", "--shape", "2,1", "--vars", "3",
                           "--method", "all")
    assert code == 0
    assert out.count("8") >= 3 and "agree" in out


def test_bad_shape_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "count-svt", "--shape", "1,2", "--vars", "3")
    assert code == 2 and "error" in err


def test_enumerate_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--shape", "1", "--vars", "2",
                           "--kind", "sst")
    assert code == 0 and out.splitlines() == ["1", "2"]
    code, out, _ = run_cli(capsys, "enumerate", "--shape", "2,1", "--vars", "3",
                           "--format", "json")
    tableaux = json.loads(out)
    assert len(tableaux) == 27
    fixture = json.loads((DATA / "svt_2_1_3.json").read_text())
    as_sets = {json.dumps(t) for t in tableaux}
    assert as_sets == {json.dumps(t) for t in fixture["tableaux"]}


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--shape", "1", "--vars", "2",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "index,tableau"
    assert out.splitlines()[1] == "0,1"


@pytest.mark.parametrize("shape, count", [("1", 4095), ("2", 45057)])
def test_enumerate_lines_are_distinct_from_ten_letters_on(capsys, shape, count):
    # {12} and {1,2} once both printed as 12
    code, out, _ = run_cli(capsys, "enumerate", "--shape", shape, "--vars", "12")
    lines = out.splitlines()
    assert code == 0 and len(lines) == len(set(lines)) == count
    code, out, _ = run_cli(capsys, "enumerate", "--shape", shape, "--vars", "12",
                           "--format", "csv")
    tableaux = [line.split(",", 1)[1] for line in out.splitlines()[1:]]
    assert code == 0 and len(tableaux) == len(set(tableaux)) == count


def test_eval_groth_symbolic(capsys):
    code, out, _ = run_cli(capsys, "eval-groth", "--shape", "1", "--vars", "2")
    assert code == 0 and out.strip() == "x1 + x2 + b*x1*x2"
    # deterministic output
    code, again, _ = run_cli(capsys, "eval-groth", "--shape", "1", "--vars", "2")
    assert again == out


def test_eval_groth_at_ones(capsys):
    code, out, _ = run_cli(capsys, "eval-groth", "--shape", "2,1", "--vars", "3",
                           "--beta", "1", "--ones")
    assert code == 0 and out.strip() == "27"
    code, out, _ = run_cli(capsys, "eval-groth", "--shape", "2,1", "--vars", "3",
                           "--beta", "-1", "--ones")
    assert code == 0 and out.strip() == "1"


def test_eval_groth_at_point_and_json(capsys):
    code, out, _ = run_cli(capsys, "eval-groth", "--shape", "1", "--vars", "2",
                           "--beta", "1/2", "--at", "1/3,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # 1/3 + 2 + (1/2)(1/3)(2) = 8/3
    assert payload["value"] == "8/3"
    assert (payload["numerator"], payload["denominator"]) == (8, 3)


def test_eval_groth_refined(capsys):
    code, out, _ = run_cli(capsys, "eval-groth", "--shape", "1,1", "--vars", "2",
                           "--refined", "0")
    assert code == 0 and out.strip() == "x1*x2"
    code, _, err = run_cli(capsys, "eval-groth", "--shape", "1,1", "--vars", "3",
                           "--refined", "0")
    assert code == 2 and "refined" in err


def test_eval_groth_principal_q(capsys):
    code, out, _ = run_cli(capsys, "eval-groth", "--shape", "2,1", "--vars", "3",
                           "--beta", "1", "--principal-q", "3/2")
    assert code == 0
    want = principal_specialization_q((2, 1), 3, [Fraction(1)] * 2, Fraction(3, 2))
    assert out.strip() == str(want)


def test_eval_groth_principal_q_degenerate(capsys):
    code, _, err = run_cli(capsys, "eval-groth", "--shape", "2,1", "--vars", "3",
                           "--beta", "1", "--principal-q", "1")
    assert code == 2 and "error" in err


def test_eval_groth_wrong_point_length(capsys):
    code, _, err = run_cli(capsys, "eval-groth", "--shape", "1", "--vars", "2",
                           "--at", "1")
    assert code == 2 and "--at" in err


@pytest.mark.parametrize("argv, message", [
    (["--at", "1,,2,3"], "--at has an empty item: '1,,2,3'"),
    (["--at", "1,2,3,"], "--at has an empty item: '1,2,3,'"),
    (["--refined", ",1,2", "--ones"], "--refined has an empty item: ',1,2'"),
    (["--refined", "1,2", "--beta", "3", "--ones"], "--beta cannot be used with --refined"),
])
def test_eval_groth_rejects_silently_changed_input(capsys, argv, message):
    code, out, err = run_cli(capsys, "eval-groth", "--shape", "2,1", "--vars", "3", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


def test_eval_2f1(capsys):
    code, out, _ = run_cli(capsys, "eval-2f1", "1", "-1", "2", "-1")
    assert code == 0 and out.strip() == "3/2"
    assert run_cli(capsys, "eval-2f1", "3", "-2", "4", "1/2") == (0, "2/5\n", "")
    code, out, _ = run_cli(capsys, "eval-2f1", "3", "0", "4", "-1")
    assert code == 0 and out.strip() == "1"


def test_eval_2f1_refuses_non_terminating(capsys):
    code, _, err = run_cli(capsys, "eval-2f1", "1/2", "1/3", "2", "1/2")
    assert code == 2 and "terminating" in err


@pytest.mark.parametrize("argv, message", [
    (["1/2", "1/3", "2", "1/2"],
     "no non-positive integer numerator parameter in row 1; only terminating series are evaluated"),
    (["1", "1", "0", "1"],
     "no non-positive integer numerator parameter in row 1; only terminating series are evaluated"),
    (["-3", "1", "-1", "1"],
     "denominator Pochhammer (-1)_k vanishes inside the summation range 0..3 of index 1"),
    (["1/2", "1/3", "2", "x"], "not a rational number: 'x'"),
])
def test_eval_2f1_refusals_keep_their_text(capsys, argv, message):
    assert run_cli(capsys, "eval-2f1", *argv) == (2, "", f"error: {message}\n")


def test_eval_2f1_refuses_a_series_over_the_term_limit(capsys):
    start = perf_counter()
    code, out, err = run_cli(capsys, "eval-2f1", "--", "-10000000", "1", "2", "1")
    assert perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "error: the series has 10000001 terms, more than the limit of 1000000\n"


def test_eval_holman_refuses_a_series_over_the_term_limit(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"coupling": [[1]], "numerator": [["-3000", "-3000"]],
                                "denominator": [["1", "1"]], "z": ["1", "1"]}))
    code, out, err = run_cli(capsys, "eval-holman", "--fixture", str(path))
    assert code == 2 and out == ""
    assert err == "error: the series has 9006001 terms, more than the limit of 1000000\n"


@pytest.mark.parametrize("argv", [
    ["count-svt", "--shape", "1", "--vars", "4", "--method", "formula"],
    ["count-svt", "--shape", "1", "--vars", "4", "--method", "all"],
    ["eval-groth", "--shape", "1", "--vars", "4", "--principal-q", "2"],
    ["count-svt", "--shape", "2,1", "--vars", "4", "--method", "all"],
])
def test_n_factorial_sums_over_the_term_limit_are_usage_errors(capsys, monkeypatch, argv):
    # in 4 variables the kernel's columns take 1, 2, 6 and more products,
    # 9 > 6 by the third; the refusal comes before any enumeration, and
    # the memos are cleared so that the kernel runs under the limit
    def no_enumeration(shape, nvars):
        raise AssertionError("enumeration ran")

    monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 6)
    monkeypatch.setattr(cli, "enumerate_svt", no_enumeration)
    clear_memos()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: the column expansion takes 9 products, more than the limit of 6\n"


def test_count_all_in_ten_variables_is_refused_by_the_coupled_series(capsys, monkeypatch):
    # the formula answers (1) in 10 variables; the coupled series' 10! terms
    # are refused, and enum, which runs last, never starts
    def no_enumeration(shape, nvars):
        raise AssertionError("enumeration ran")

    monkeypatch.setattr(cli, "enumerate_svt", no_enumeration)
    code, out, err = run_cli(capsys, "count-svt", "--shape", "1", "--vars", "10",
                             "--method", "all")
    assert code == 2 and out == ""
    assert err == "error: the series has 3628800 terms, more than the limit of 1000000\n"


def test_refined_quotient_over_the_term_limit_is_a_usage_error(capsys, monkeypatch):
    # at zero betas the quotient is s_(2,1) in 4 variables: the kernel takes
    # one product per column, and the 12 rearrangements of (2,1,0,0) and 4
    # of (1,1,1,0) make 16 monomials
    monkeypatch.setattr(arith, "MAX_SERIES_TERMS", 8)
    clear_memos()
    code, out, err = run_cli(capsys, "eval-groth", "--shape", "2,1", "--vars", "4",
                             "--refined", "0,0,0")
    assert code == 2 and out == ""
    assert err == "error: the quotient has 16 monomials in x, more than the limit of 8\n"


def test_eval_holman_from_shape(capsys):
    code, out, _ = run_cli(capsys, "eval-holman", "--from-shape", "2,1",
                           "--vars", "3", "--z", "1")
    assert code == 0 and out.strip() == "1/8"


def test_every_reader_of_a_shape_series_walks_it_once(capsys, monkeypatch):
    # thm-3.9's betas, cor-3.11, thm-3.13, count-svt --method holman and
    # eval-holman --from-shape all read one memoized walk per (shape, n)
    original = hypergeom._series_parts
    walks = []

    def counting(inst):
        walks.append(inst)
        return original(inst)

    monkeypatch.setattr(hypergeom, "_series_parts", counting)
    grid = Grid(4, 4)
    clear_memos()
    try:
        for check_id in ("thm-3.9", "cor-3.11", "thm-3.13"):
            assert run_check(check_id, grid).ok, check_id
        assert run_cli(capsys, "count-svt", "--shape", "2,1", "--vars", "3",
                       "--method", "holman") == (0, "27\n", "")
        assert run_cli(capsys, "eval-holman", "--from-shape", "2,1", "--vars", "3",
                       "--z", "1/2") == (0, "27/64\n", "")
    finally:
        clear_memos()
    assert len(walks) == len(list(grid.shapes()))


def test_eval_holman_fixture(capsys):
    assert run_cli(capsys, "eval-holman", "--fixture",
                   str(DATA / "holman_2_1_3.json")) == (0, "1/8\n", "")


def test_eval_holman_json_round_trips_through_loader(capsys):
    code, out, _ = run_cli(capsys, "eval-holman", "--from-shape", "2,1",
                           "--vars", "3", "--z", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/8"
    from grothtab.hypergeom import holman_series
    reloaded = HolmanInstance.from_json(payload["instance"])
    assert holman_series(reloaded) == Fraction(1, 8)


def test_eval_holman_missing_vars(capsys):
    code, _, err = run_cli(capsys, "eval-holman", "--from-shape", "2,1")
    assert code == 2 and "--vars" in err


def test_eval_holman_z_defaults_to_one(capsys):
    code, out, _ = run_cli(capsys, "eval-holman", "--from-shape", "2,1", "--vars", "3")
    assert code == 0 and out.strip() == "1/8"


@pytest.mark.parametrize("option, value", [("--vars", "7"), ("--z", "2"), ("--z", "1")])
def test_eval_holman_fixture_rejects_shape_options(capsys, option, value):
    code, out, err = run_cli(capsys, "eval-holman", "--fixture",
                             str(DATA / "holman_2_1_3.json"), option, value)
    assert code == 2 and out == ""
    assert err == f"error: {option} cannot be used with --fixture\n"


INSTANCE = {"coupling": [[2], [4, 2]], "numerator": [["0", "-1", "-2"]],
            "denominator": [["1", "1", "1"]], "z": ["1", "1", "1"]}


@pytest.mark.parametrize("document, message", [
    ({k: v for k, v in INSTANCE.items() if k != "coupling"}, "exactly the fields"),
    ({**INSTANCE, "beta": "1"}, "exactly the fields"),
    ([INSTANCE], "not a JSON list"),
    ({**INSTANCE, "coupling": [[2.5], [4, 2]]}, "coupling entry 2.5 is not a positive integer"),
    ({**INSTANCE, "z": ["1", 0.1, "1"]}, "0.1 is not an exact rational"),
    ({**INSTANCE, "z": ["1", "1/0", "1"]}, "not a rational number: '1/0'"),
    ({**INSTANCE, "z": "111"}, "z must be a list"),
    ({**INSTANCE, "coupling": [2, [4, 2]]}, "each row of coupling must be a list"),
], ids=["missing-key", "extra-key", "array", "coupling-2.5", "float-z", "zero-denominator",
        "z-string", "coupling-row-int"])
def test_eval_holman_rejects_malformed_fixture(tmp_path, capsys, document, message):
    with pytest.raises(ValueError, match=message):
        HolmanInstance.from_json(document)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "eval-holman", "--fixture", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_eval_holman_more_rows_than_vars(capsys):
    code, out, err = run_cli(capsys, "eval-holman", "--from-shape", "2,1", "--vars", "1")
    assert code == 2 and out == ""
    assert err == "error: shape (2,1) has 2 rows, more than n = 1\n"


def test_verify_single_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "thm-3.13",
                           "--max-size", "3", "--max-vars", "3")
    assert code == 0
    assert "thm-3.13" in out and "OK" in out


def test_verify_unknown_id(capsys):
    code, _, err = run_cli(capsys, "verify", "--id", "nonexistent")
    assert code == 2 and "unknown check id" in err


def test_verify_json_report_validates_and_round_trips(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--max-size", "2", "--max-vars", "2",
                           "--json", str(report_path), "--format", "json")
    assert code == 0
    printed = json.loads(out)
    on_disk = json.loads(report_path.read_text())
    assert printed == on_disk
    jsonschema.validate(on_disk, SCHEMA)
    assert on_disk["ok"] is True


def test_verify_text_names_the_routes_of_a_failing_check(capsys):
    def broken(grid, shape, n):
        yield {"shape": shape, "n": n}, 0, 1

    CHECKS["broken-demo"] = Check("broken-demo", "always fails", "zero", "one", broken)
    try:
        code, out, _ = run_cli(capsys, "verify", "--id", "broken-demo",
                               "--max-size", "1", "--max-vars", "1")
    finally:
        del CHECKS["broken-demo"]
    lines = out.splitlines()
    assert code == 1 and lines[1].startswith("broken-demo ")
    assert lines[2:4] == ["    routes: left = zero, right = one",
                          "    FAIL [shape=(1), n=1] left=0 right=1"]
    code, out, _ = run_cli(capsys, "verify", "--id", "thm-3.13",
                           "--max-size", "2", "--max-vars", "2")
    assert code == 0 and "routes:" not in out


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "cor-3.8",
                           "--max-size", "2", "--max-vars", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,instances,passed,failed,seconds"
    assert lines[1].startswith("cor-3.8,")


def test_shorthand_column_shape(capsys):
    code1, out1, _ = run_cli(capsys, "count-svt", "--shape", "1^3", "--vars", "3")
    code2, out2, _ = run_cli(capsys, "count-svt", "--shape", "1,1,1", "--vars", "3")
    assert code1 == code2 == 0 and out1 == out2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli.main(["count-svt", "--shape", "2,1"])  # missing --vars
    assert info.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["count-svt", "--shape", "1", "--vars", "0"], "at least 1"),
    (["count-sst", "--shape", "1", "--vars", "0"], "at least 1"),
    (["enumerate", "--shape", "1", "--vars", "-1"], "at least 1"),
    (["eval-groth", "--shape", "1", "--vars", "0"], "at least 1"),
    (["eval-holman", "--from-shape", "1", "--vars", "0"], "at least 1"),
    (["verify", "--max-size", "0"], "at least 1"),
    (["verify", "--max-vars", "-1"], "at least 1"),
    (["count-svt", "--shape", "1", "--vars", "x"], "invalid int value: 'x'"),
])
def test_counts_below_one_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2 and message in capsys.readouterr().err


# each case's id is stored with it (first given as its index and
# subcommand), so deleting a case renames no other
@pytest.mark.parametrize("record", TRANSCRIPT, ids=[r["id"] for r in TRANSCRIPT])
def test_cli_output_matches_the_recorded_transcript(capsys, monkeypatch, record):
    monkeypatch.chdir(DATA.parent.parent)
    code, out, err = run_cli(capsys, *record["argv"])
    assert (code, out, err) == (record["exit"], record["stdout"], record["stderr"]), record["argv"]


def _parse_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as info:
        parse(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("record", ARGPARSE["cases"],
                         ids=[" ".join(r["argv"]) or "no-arguments" for r in ARGPARSE["cases"]])
def test_argparse_output_is_that_of_the_full_parser(capsys, monkeypatch, record):
    # main registers only the subcommand argv[0] names; its help, usage and
    # errors must still be those of the parser with every subcommand
    monkeypatch.setenv("COLUMNS", str(ARGPARSE["columns"]))
    got = _parse_exit(capsys, cli.main, record["argv"])
    assert got == _parse_exit(capsys, lambda argv: cli.build_parser().parse_args(argv),
                              record["argv"])
    if f"{sys.version_info[0]}.{sys.version_info[1]}" == ARGPARSE["python"]:
        assert got == (record["exit"], record["stdout"], record["stderr"])


@pytest.mark.parametrize("argv, built", [
    (["count-svt", "--shape", "2,1", "--vars", "3"], ["count-svt"]),
    (["eval-2f1", "-1", "2", "3", "1"], ["eval-2f1"]),
    (["verify", "--id", "nope"], ["verify"]),
    (["--help"], list(cli.SUBCOMMANDS)),
    ([], list(cli.SUBCOMMANDS)),
    (["count"], list(cli.SUBCOMMANDS)),
])
def test_a_call_builds_only_the_subparser_it_runs(capsys, monkeypatch, argv, built):
    names, original = [], argparse._SubParsersAction.add_parser

    def add_parser(self, name, **kwargs):
        names.append(name)
        return original(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", add_parser)
    monkeypatch.setattr(sys, "argv", ["grothtab", *argv])  # as the console script calls it
    try:
        cli.main()
    except SystemExit:
        pass
    capsys.readouterr()
    assert names == built


# The README's tabular commands take --format text|json|csv, the eval-*
# commands text|json.  Unlike the pinned argparse output, this holds on
# every Python version.
FORMATS = {"count-svt": "text|json|csv", "count-sst": "text|json|csv",
           "enumerate": "text|json|csv", "eval-groth": "text|json",
           "eval-2f1": "text|json", "eval-holman": "text|json", "verify": "text|json|csv"}


@pytest.mark.parametrize("name", list(cli.SUBCOMMANDS))
def test_format_is_each_subcommands_last_option(name):
    action, = (a for a in cli.build_parser(name)._actions
               if isinstance(a, argparse._SubParsersAction))
    last = [a for a in action.choices[name]._actions if a.option_strings][-1]
    assert last.option_strings == ["--format"] and last.default == "text"
    assert "|".join(last.choices) == FORMATS[name]


# Outputs pinned by value, or by the sha256 of the whole stdout for long
# ones.  `enumerate --shape 1 --vars 12` (4095 distinct lines) is pinned by
# test_enumerate_lines_are_distinct_from_ten_letters_on.
PINNED = [
    # substitution at rational points, checked against known values
    ("eval-groth --shape 2,1 --vars 3 --beta=-3/5 --at 1/2,2/3,-1", "-29/2250"),
    ("eval-groth --shape 2,1 --vars 3 --beta=1/3 --ones", "343/27"),
    # the enumeration stream and the tableau sum, byte for byte
    ("enumerate --shape 2,2,1 --vars 4",
     "6d35420bc0b0896c9313fa4ad576a0077c13c8ebfb9db6ec50df4fb5bb4647ed"),
    ("eval-groth --shape 3,2 --vars 5 --ones --beta 1", "5199"),
    ("eval-groth --shape 3,2 --vars 5 --ones --beta=-1", "1"),
    # one filling; without the column cap the backtracker ran for minutes
    (f"eval-groth --shape {','.join(['1'] * 18)} --vars 18 --ones --beta 1", "1"),
    # 35 fillings; weighing them once built a table of all 2^18 - 1 subsets
    ("eval-groth --shape 1^17 --vars 18 --ones --beta 1", "35"),
    # 9! = 362880 terms; the depth-first kernel prunes the zero prefixes
    ("count-svt --shape 3,2 --vars 9 --method formula", "6865151"),
    ("count-svt --shape 3,2 --vars 9 --method holman", "6865151"),
    # n = 7 by both routes: the refined bi-alternant, divided as it is
    # expanded, and the keyed tableau sum at b = 1
    ("eval-groth --shape 2,2 --vars 7 --refined 1,1,1,1,1,1",
     "73fcef57b43d78052df9cc4b242b5b79140127988c54169365ed73e1d2079abf"),
    ("eval-groth --shape 2,2 --vars 7 --beta 1",
     "73fcef57b43d78052df9cc4b242b5b79140127988c54169365ed73e1d2079abf"),
]


@pytest.mark.parametrize("command, want", PINNED, ids=[c[:48] for c, _ in PINNED])
def test_pinned_outputs(capsys, command, want):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0 and err == "" and out.endswith("\n")
    assert (hashlib.sha256(out.encode()).hexdigest() if len(want) == 64 else out[:-1]) == want
