"""Command-line interface tests."""
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dualpcf.cli import main
from dualpcf.corpus import CORPUS, corpus_source
from dualpcf.numeric import Interval

# read only, as tests/test_golden.py does
GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden" / "corpus.json"


@pytest.fixture
def program(tmp_path):
    def write(src, name="prog.dpcf"):
        p = tmp_path / name
        p.write_text(src)
        return str(p)
    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_ok(self, capsys, program):
        code, out, _ = run(capsys, ["check", program("1 + in_pi 2")])
        assert code == 0
        assert out.strip() == "pi"

    def test_parse_error(self, capsys, program):
        code, _, err = run(capsys, ["check", program("fun x: delta.")])
        assert code == 1
        assert err

    def test_deeply_nested_program(self, capsys, program):
        for src in ("in_delta (" + "+".join(["1"] * 40_000) + ")",
                    "(" * 40_000 + "1" + ")" * 40_000):
            path = program(src)
            for command in ("check", "eval"):
                code, out, err = run(capsys, [command, path])
                assert code == 1
                assert out == ""
                assert err == "program nested too deeply\n"

    def test_type_error(self, capsys, program):
        src = "if 0 < in_delta (in_pi 1) then 1 else 2"
        code, _, err = run(capsys, ["check", program(src)])
        assert code == 1
        assert "ZeroTestOnDual" in err

    @pytest.mark.parametrize("src,message", [
        ("(fun d: delta. d)\n  (pr 1 2)",
         "2:4: Mismatch: cannot apply a value of type pi"),
        ("L[real] (fun x: real. x) 1 1",
         "1:1: BadLShape: inadmissible derivative argument type pi"),
        ("succ tt", "1:6: Mismatch: expected nu, found o"),
        ("(fun f: nat -> nat. f 1)\n  pr",
         "2:3: Mismatch: expected nu -> nu, found delta -> delta"),
        ("(1 + 2", "1:7: expected ')', found end of input"),
        # an error in an L's arguments, none of which holds an L
        ("L[delta] (fun x: real. x) 0 1",
         "1:24: Mismatch: binder 'x' has type pi, expected delta"),
        ("fun x: delta. (fun y: real. y) (x + 1)",
         "1:35: Mismatch: dual operand in a real context"),
        ("fun (", "1:6: expected ':', found end of input"),
        ("succ " + "9" * 4301, "1:6: numeral too long: 4301 digits"),
    ], ids=["generic_application", "l_admissibility", "coercion",
            "constant_as_value", "end_of_input", "l_argument",
            "dual_in_real_context", "end_of_input_in_a_binder",
            "numeral_past_the_digit_limit"])
    def test_error_names_its_position(self, capsys, program, src, message):
        assert run(capsys, ["check", program(src)]) == (1, "", message + "\n")


class TestLongNumbers:
    # Python converts at most 4,300 digits between an int and its text by
    # default: a numeral has at most that many (a longer one is a parse
    # error above), and a result prints in full past them, the limit
    # coming back once the command returns

    NINES = "9" * 4300

    @staticmethod
    def text(q) -> str:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(q)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_a_numeral_at_the_limit(self, capsys, program):
        src = f"succ {self.NINES}"
        assert run(capsys, ["check", program(src)]) == (0, "nu\n", "")

    def test_a_result_past_the_limit(self, capsys, program):
        path = program(f"succ {self.NINES}")
        assert run(capsys, ["eval", path, "--cost", "0"]) == \
            (0, "1" + "0" * 4300 + "\n", "")
        with pytest.raises(ValueError):
            int("9" * 5000)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_fourteen_squares(self, capsys, program, fmt):
        src = "(fun x: real. x * x) (" * 14 + "in_pi 3 / 7" + ")" * 14
        code, out, err = run(capsys, ["eval", program(src), "--format", fmt])
        assert (code, err) == (0, "")
        q = self.text(Fraction(3, 7) ** 2 ** 14)
        if fmt == "text":
            assert out == f"[{q},{q}]\n"
        else:
            assert json.loads(out)["std"] == {"lo": q, "hi": q}
        with pytest.raises(ValueError):
            int("9" * 5000)


class TestUnreadableFile:
    # a FILE that cannot be read is a front-end error: one line, exit 1

    @pytest.fixture(params=["missing", "directory", "not_utf8"])
    def unreadable(self, request, tmp_path):
        if request.param == "missing":
            return str(tmp_path / "nope.dpcf"), "No such file or directory"
        if request.param == "directory":
            return str(tmp_path), "Is a directory"
        path = tmp_path / "latin1.dpcf"
        path.write_bytes(b"in_delta 1 # caf\xe9\n")
        return str(path), ("'utf-8' codec can't decode byte 0xe9 in "
                           "position 16: invalid continuation byte")

    @pytest.mark.parametrize("command", ["check", "eval"])
    def test_one_line_and_exit_1(self, capsys, unreadable, command):
        path, reason = unreadable
        code, out, err = run(capsys, [command, path])
        assert (code, out) == (1, "")
        assert err == f"cannot read {path}: {reason}\n"


class TestByteOrderMark:
    # a FILE that starts with a UTF-8 byte-order mark reads as without it

    @pytest.mark.parametrize("command,printed", [
        ("check", "delta\n"), ("eval", "[1,1] + eps [0,0]\n")])
    def test_the_mark_is_skipped(self, capsys, tmp_path, command, printed):
        path = tmp_path / "bom.dpcf"
        path.write_bytes(b"\xef\xbb\xbfin_delta 1\n")
        assert run(capsys, [command, str(path)]) == (0, printed, "")


class TestOptionValidation:
    # a malformed option ends in argparse's usage error, exit 2

    @pytest.mark.parametrize("flags", [
        ["--width", "abc"], ["--width", "1/0"], ["--cost", "-1"],
        ["--cost", "abc"], ["--ceiling", "-1"], ["--budget", "-1"],
    ], ids=["width_abc", "width_zero_denominator", "cost_negative",
            "cost_abc", "ceiling_negative", "budget_negative"])
    def test_malformed_option(self, capsys, program, flags):
        with pytest.raises(SystemExit) as exc:
            main(["eval", program("in_pi 1")] + flags)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"error: argument {flags[0]}: " in out.err
        assert repr(flags[1]) in out.err

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--suite", "relations", "--fuel", "0"],
         "argument --fuel: expected a positive integer, got '0'"),
        (["verify", "--suite", "relations", "--fuel", "-1"],
         "argument --fuel: expected a positive integer, got '-1'"),
        (["eval", "PROGRAM", "--width=-1/4"],
         "argument --width: expected a non-negative rational such as "
         "1/256, got '-1/4'"),
    ], ids=["fuel_zero", "fuel_negative", "width_negative"])
    def test_out_of_range_option(self, capsys, program, argv, message):
        # no sample is checked at fuel 0, and no enclosure has a negative
        # width: both would run to a meaningless end
        argv = [program("in_pi 1") if a == "PROGRAM" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.endswith(f"error: {message}\n")

    def test_zero_width_and_negative_seed_are_legal(self, capsys, program):
        code, out, _ = run(capsys, ["eval", program("in_pi 1"),
                                    "--width", "0"])
        assert (code, out) == (0, "[1,1] + eps [0,0]\n")
        code, out, _ = run(capsys, ["verify", "--suite", "relations",
                                    "--fuel", "1", "--seed", "-3"])
        assert code == 0 and len(out.splitlines()) == 10

    def test_malformed_budget_variable(self, capsys, program, monkeypatch):
        monkeypatch.setenv("DUALPCF_BUDGET", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["eval", program("in_pi 1")])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.endswith("error: DUALPCF_BUDGET: expected a natural "
                                "number, got 'abc'\n")

    def test_budget_variable_sets_the_default(self, capsys, program,
                                              monkeypatch):
        path = program(corpus_source("int_id"))
        monkeypatch.setenv("DUALPCF_BUDGET", "10")
        code, _, err = run(capsys, ["eval", path])
        assert (code, err) == (2, "step budget exhausted after 11 steps\n")
        code, _, _ = run(capsys, ["eval", path, "--budget", "1000"])
        assert code == 0
        # checking a program runs nothing, so it reads no budget
        monkeypatch.setenv("DUALPCF_BUDGET", "abc")
        assert run(capsys, ["check", path])[0] == 0


class TestEval:
    def test_text_output(self, capsys, program):
        path = program("L[delta] (fun x: delta. max(x, 0 - x)) 0 1")
        code, out, _ = run(capsys, ["eval", path, "--cost", "4"])
        assert code == 0
        assert out.strip() == "[-1,1]"

    def test_json_round_trips_exact_endpoints(self, capsys, program):
        path = program("int (fun t: real. in_delta t)")
        code, out, _ = run(capsys, ["eval", path, "--cost", "5",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        std = Interval(Fraction(doc["std"]["lo"]), Fraction(doc["std"]["hi"]))
        assert std == Interval(Fraction(31, 64), Fraction(33, 64))
        assert doc["cost"] == 5 and doc["steps"] > 0

    def test_json_reports_the_cost_and_the_steps(self, capsys, program):
        path = program(corpus_source("lagrangian_action"))
        code, out, _ = run(capsys, ["eval", path, "--cost", "2",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc) == ["cost", "inf", "std", "steps"]
        assert (doc["cost"], doc["steps"]) == (2, 252)

    @pytest.mark.parametrize("flags", [
        [], ["--width", "1/4"], ["--format", "json"]])
    def test_function_type_program(self, capsys, program, flags):
        path = program("fun x: real. x")
        code, out, err = run(capsys, ["eval", path] + flags)
        assert code == 1
        assert out == ""
        assert err == "cannot evaluate a program of non-ground type pi -> pi\n"

    def test_width_refinement(self, capsys, program):
        path = program("int (fun t: real. in_delta t)")
        code, out, _ = run(capsys, ["eval", path, "--width", "1/100"])
        assert code == 0
        lo, hi = out.split("+ eps")[0].strip()[1:-1].split(",")
        assert Interval(Fraction(lo), Fraction(hi)).width <= 0.01

    def test_budget_exhaustion(self, capsys, program):
        path = program("Y[nu -> nu] (fun f: nu -> nu. fun n: nu. f n) 0")
        code, _, err = run(capsys, ["eval", path, "--budget", "2000"])
        assert code == 2
        assert "budget" in err

    def test_undetermined(self, capsys, program):
        path = program("if 0 < in_pi 0 then 1 else 2")
        code, out, _ = run(capsys, ["eval", path])
        assert code == 3
        assert "undetermined" in out

    @pytest.mark.parametrize("flags", [
        ["--cost", "2"], ["--width", "1/4"], ["--format", "json"]])
    def test_straddling_zero_test_as_result(self, capsys, program, flags):
        path = program("0 < in_pi 0")
        code, out, err = run(capsys, ["eval", path] + flags)
        assert code == 3
        assert out == "undetermined\n"
        assert err == "undetermined: zero test on a straddling interval\n"

    def test_width_undetermined(self, capsys, program):
        path = program("if 0 < (int (fun t: real. t - 1/2)) then 1 else 0")
        code, out, err = run(capsys, ["eval", path, "--width", "1/4"])
        assert code == 3
        assert out == "undetermined\n"
        assert err.startswith("undetermined: ")

    def test_width_budget_exhaustion(self, capsys, program):
        path = program(corpus_source("int_id"))
        code, out, err = run(capsys, ["eval", path, "--width", "1/64",
                                      "--budget", "10"])
        assert code == 2
        assert out == ""
        assert err == "step budget exhausted after 11 steps\n"

    @pytest.mark.parametrize("ceiling,best", [
        ("5", "[31/64,33/64] + eps [0,0]"), ("0", "[0,1] + eps [0,0]")])
    def test_width_stops_at_the_ceiling(self, capsys, program, ceiling, best):
        # a width no cost reaches: the chain 1, 2, 4, ... ends at the
        # ceiling itself, and a ceiling of 0 evaluates at cost 0 alone
        path = program(corpus_source("int_id"))
        code, out, err = run(capsys, ["eval", path, "--width", "0",
                                      "--ceiling", ceiling])
        assert (code, out) == (2, "")
        assert err == f"ceiling reached at cost {ceiling}; best: {best}\n"

    def test_width_json_reports_steps_at_printed_cost(self, capsys, program):
        path = program("int (fun t: real. in_delta t)")
        code, out, _ = run(capsys, ["eval", path, "--width", "1/100",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        code, out, _ = run(capsys, ["eval", path, "--cost", str(doc["cost"]),
                                    "--format", "json"])
        assert code == 0
        assert doc["steps"] > 0
        assert doc == json.loads(out)

    def test_width_on_discrete_program(self, capsys, program):
        # a nat result is exact: printed at once, with the steps of cost 1
        path = program("succ 0")
        code, out, _ = run(capsys, ["eval", path, "--width", "1/4"])
        assert code == 0
        assert out == "1\n"
        code, out, _ = run(capsys, ["eval", path, "--width", "1/4",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        code, out, _ = run(capsys, ["eval", path, "--cost", "1",
                                    "--format", "json"])
        assert doc == json.loads(out)
        assert doc["value"] == "1" and doc["steps"] > 0

    @pytest.mark.parametrize("src,printed", [
        ("iszero 0", "tt"), ("iszero (succ 0)", "ff")])
    def test_booleans_print_as_the_language_spells_them(self, capsys, program,
                                                        src, printed):
        path = program(src)
        for flags in (["--cost", "2"], ["--width", "1/4"]):
            code, out, _ = run(capsys, ["eval", path] + flags)
            assert (code, out) == (0, printed + "\n"), flags
        code, out, _ = run(capsys, ["eval", path, "--format", "json"])
        assert code == 0
        assert json.loads(out)["value"] == printed
        # the printed value reads back as the same program
        code, out, _ = run(capsys, ["check", program(printed, "back.dpcf")])
        assert (code, out) == (0, "o\n")

    def test_divergent_unbounded_fixed_point(self, capsys, program):
        # diverges by recursion depth long before the default step budget,
        # and into a small budget before the recursion depth
        path = program("(Y[nat -> nat] (fun f: nat -> nat. fun n: nat. "
                       "succ (f n))) 0")
        code, out, err = run(capsys, ["eval", path])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"recursion depth exhausted after \d+ steps\n",
                            err)
        code, out, err = run(capsys, ["eval", path, "--budget", "1000"])
        assert (code, out) == (2, "")
        assert err == "step budget exhausted after 1001 steps\n"


class TestExamples:
    def test_list(self, capsys):
        code, out, _ = run(capsys, ["examples", "list"])
        assert code == 0
        assert "abs_deriv" in out and "legendre_fenchel_halfsq" in out

    def test_run_single(self, capsys):
        code, out, _ = run(capsys, ["examples", "run", "abs_deriv",
                                    "--cost", "2"])
        assert code == 0
        assert "[-1,1]" in out

    def test_run_unknown(self, capsys):
        code, _, err = run(capsys, ["examples", "run", "nope"])
        assert code == 1

    def test_run_all_prints_each_program_at_cost_4(self, capsys):
        golden = json.loads(GOLDEN.read_text())
        code, out, _ = run(capsys, ["examples", "run"])
        assert code == 0
        assert out.splitlines() == [
            line for name, entry in CORPUS.items() if not entry.advanced
            for line in (f"== {name}", golden[f"{name}@4"])]

    def test_run_chebyshev_hits_quarter(self, capsys):
        code, out, _ = run(capsys, ["examples", "run", "chebyshev_functional",
                                    "--cost", "0"])
        assert code == 0
        assert "[1/4,1/4]" in out


class TestVerify:
    def test_refinement_suite_reports_json_lines(self, capsys):
        code, out, err = run(capsys, ["verify", "--suite", "refinement"])
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert all(l["suite"] == "refinement" for l in lines)
        assert all(l["verdict"] for l in lines)
        assert "passed" in err

    def test_soundness_suite_holds_on_every_case(self, capsys):
        code, out, err = run(capsys, ["verify", "--suite", "soundness"])
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 100
        assert all(l["suite"] == "soundness" and l["verdict"] for l in lines)
        assert err == "all suites passed\n"

    def test_relations_suite_small_fuel(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "relations",
                                    "--fuel", "5", "--seed", "1"])
        assert code == 0
        cases = {json.loads(l)["case"] for l in out.strip().splitlines()}
        assert {"add", "max", "pr", "int", "sup"} <= cases
