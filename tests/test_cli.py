"""CLI behaviour: outputs, exit codes, JSON stability, schema."""

import contextlib
import functools
import importlib.resources
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest
from search_reference import reference_search

from commcalc import cli, lie, magnus, obstruction
from commcalc.cli import main, parse_scalar
from commcalc.obstruction import VARIABLES, QSqrt3, family_assignment
from fractions import Fraction

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # the `test` extra is not installed
    hypothesis = None

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: The report schema the package ships; every --json report meets it.
SCHEMA = json.loads(
    importlib.resources.files("commcalc").joinpath("data/report_schema.json").read_text()
)

#: JSON schema type -> whether a value json.loads gave has that type
JSON_TYPES = {
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "object": lambda x: isinstance(x, dict),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
}


def schema_problems(report) -> list[str]:
    """How a report breaks the shipped schema, read from the schema
    itself: its type, its required keys, no undeclared key when
    additionalProperties is false, and each property's type."""
    if not JSON_TYPES[SCHEMA["type"]](report):
        return [f"report is not an {SCHEMA['type']}"]
    problems = [f"missing key {k!r}" for k in SCHEMA["required"] if k not in report]
    for key, value in report.items():
        prop = SCHEMA["properties"].get(key)
        if prop is None:
            if SCHEMA.get("additionalProperties", True) is False:
                problems.append(f"unexpected key {key!r}")
        elif not JSON_TYPES[prop["type"]](value):
            problems.append(f"key {key!r} is not a {prop['type']}")
    return problems


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_magnus_command(capsys):
    code, out, _ = run(capsys, "magnus", "[m1,m2]", "--vars", "m1,m2")
    assert code == 0
    assert out.splitlines()[0] == "1 + x1x2 - x2x1"


def test_magnus_json(capsys):
    code, report, _ = run_json(capsys, "magnus", "[m1,m2]", "--vars", "m1,m2", "--json")
    assert code == 0
    assert schema_problems(report) == []
    assert report["payload"]["expansion"] == "1 + x1x2 - x2x1"
    assert report["payload"]["lcs_degree"] == 2


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "[m2,m2]")
    assert code == 0
    assert out.splitlines()[0] == "1"
    code, out, _ = run(capsys, "reduce", "x*y*y^-1")
    assert out.splitlines()[0] == "x"


def test_lie_to_basis_command(capsys):
    code, out, _ = run(capsys, "lie", "to-basis", "[m2,[[m3,m4],[m5,m6]]]")
    assert code == 0
    assert out.splitlines()[0] == "[m2,[m3,[m4,[m5,m6]]]] - [m2,[m4,[m3,[m5,m6]]]]"


def test_reduce_reads_names_as_the_parser_does(capsys):
    code, out, _ = run(capsys, "reduce", "é*é^-1")
    assert (code, out.splitlines()[0]) == (0, "1")
    code, out, _ = run(capsys, "reduce", "[é,x2]*ü")
    assert (code, out.splitlines()[0]) == (0, "é^-1 x2^-1 é x2 ü")


def test_magnus_indexes_by_trailing_decimal(capsys):
    # "²" is no decimal, so x² is indexed by position
    code, out, _ = run(capsys, "magnus", "x²", "--vars", "x²")
    assert (code, out.splitlines()[0]) == (0, "1 + x1")
    code, out, _ = run(capsys, "magnus", "a1*a٣", "--vars", "a1,a٣")
    assert (code, out.splitlines()[0]) == (0, "1 + x1 + x3 + x1x3")


def test_name_with_a_very_long_number_exits_2(capsys):
    name = "x" + "9" * 5000
    code, out, err = run(capsys, "magnus", name, "--vars", name)
    assert code == 2 and out == ""
    assert err.startswith(f"error: generator '{name}' ends in a number of 5000 digits")
    assert "set_int_max_str_digits" not in err and len(err.splitlines()) == 1


def test_magnus_term_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(magnus, "MAX_TERMS", 16)
    code, out, _ = run(capsys, "magnus", "m1*m2*m3", "--vars", "m1,m2,m3,m4")
    assert (code, out.splitlines()[0]) == (0, "1 + x1 + x2 + x3 + x1x2 + x1x3 + x2x3 + x1x2x3")
    code, out, err = run(capsys, "magnus", "m1*m2*m3*m4", "--vars", "m1,m2,m3,m4", "--json")
    assert (code, out) == (2, "")
    assert err == "error: Magnus expansion exceeds the limit of 16 terms over 4 variables\n"


def test_magnus_limit_counts_the_monomials_a_word_reaches(capsys):
    twelve = ",".join(f"m{i}" for i in range(1, 13))
    code, report, _ = run_json(capsys, "magnus", "m1*m2", "--vars", twelve, "--json")
    assert (code, report["payload"]["expansion"]) == (0, "1 + x1 + x2 + x1x2")
    # a monomial over 9 generators alone has 9! = 362 880 orderings
    nine = [f"m{i}" for i in range(1, 10)]
    code, out, err = run(capsys, "magnus", "*".join(nine), "--vars", ",".join(nine))
    assert (code, out) == (2, "")
    assert err == "error: Magnus expansion exceeds the limit of 200000 terms over 9 variables\n"


def test_magnus_over_thousands_of_generators_exits_2(capsys):
    names = [f"m{i}" for i in range(1, 5001)]
    code, out, err = run(capsys, "magnus", "*".join(names), "--vars", ",".join(names))
    assert (code, out) == (2, "")
    assert err == "error: Magnus expansion exceeds the limit of 200000 terms over 5000 variables\n"


def test_magnus_of_a_million_letters_over_eight_generators_exits_2_at_once():
    names = [f"m{i}" for i in range(1, 9)]
    argv = ["magnus", f"({'*'.join(names)})^125000", "--vars", ",".join(names)]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "commcalc.cli", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 3.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: Magnus expansion exceeds the work limit of 100000000 "
                           "slot words over 8 variables\n")


def test_superscript_exponent_exits_2(capsys):
    code, _, err = run(capsys, "reduce", "x^²")
    assert code == 2
    assert "offset 2" in err


def test_verify_lemma41_json(capsys):
    code, report, _ = run_json(capsys, "verify", "lemma41", "--json")
    assert code == 0
    assert schema_problems(report) == []
    payload = report["payload"]
    assert payload["rank"] == 14
    assert payload["kernel_dim"] == 1
    assert payload["kernel"] == "all-ones"
    assert payload["basis_rank"] == 24
    assert payload["small_degree_ranks"] == {"2": 1, "3": 2, "4": 6}


def test_verify_appendix(capsys):
    code, report, _ = run_json(capsys, "verify", "appendix", "--json")
    assert code == 0
    assert report["payload"]["all_verified"]
    assert report["payload"]["transcription_flags"] == [12, 13, 14, 15]


def test_verify_hopf(capsys):
    code, report, _ = run_json(capsys, "verify", "hopf", "--json")
    assert code == 0
    assert report["payload"]["substituted_trivial"]
    assert [1, 1, -1] in report["payload"]["substitutions_bound1"]


def test_verify_families(capsys):
    code, report, _ = run_json(capsys, "verify", "families", "--json")
    assert code == 0
    payload = report["payload"]
    assert payload["sample_point_residuals_zero"]
    assert all(payload["families"][k]["all_residuals_zero"] for k in ("1", "2", "3"))


def test_a_failing_family_fails_verify_families(capsys, monkeypatch):
    # family 1 with the sign of c3 flipped misses rows at every grid point
    family_1 = obstruction.FAMILIES[1]
    monkeypatch.setitem(obstruction.FAMILIES, 1,
                        lambda b1, b5: {**family_1(b1, b5), "c3": -family_1(b1, b5)["c3"]})
    report = obstruction.verify_family(1)
    assert not report["all_residuals_zero"] and len(report["failures"]) == 169
    labels = {eq.label for eq in obstruction.obstruction_system()}
    for failure in report["failures"]:
        assert len(failure["point"]) == 2 and all(isinstance(x, str) for x in failure["point"])
        assert failure["residuals"] and set(failure["residuals"]) <= labels
        assert all(isinstance(v, str) for v in failure["residuals"].values())
    code, out, err = run(capsys, "verify", "families")
    assert code == 1 and err == ""
    assert "families on the 13x13 grid: 1: FAIL, 2: pass, 3: pass;" in out


def test_json_reports_are_stable(capsys):
    _, first, _ = run_json(capsys, "verify", "lemma41", "--json")
    _, second, _ = run_json(capsys, "verify", "lemma41", "--json")
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_system_search(capsys):
    code, report, _ = run_json(
        capsys, "system", "search", "--bound", "2", "--subsystem", "2,3", "--json"
    )
    assert code == 0
    assert report["payload"]["count"] == 16
    assert report["payload"]["variables"] == ["b5", "b6", "c3", "c4"]
    assert [0, 1, 1, 1] in report["payload"]["solutions"]


def test_system_search_matches_reference(capsys):
    _, report, _ = run_json(
        capsys, "system", "search", "--bound", "2", "--subsystem", "2,3", "--json"
    )
    canon, sols = reference_search(2, [2, 3])
    assert report["payload"]["variables"] == list(canon)
    assert report["payload"]["solutions"] == [list(s) for s in sols]


def test_system_search_unknown_row_label_exits_2(capsys):
    code, out, err = run(capsys, "system", "search", "--bound", "2", "--subsystem", "99")
    assert code == 2 and out == ""
    assert "unknown row labels [99]" in err
    code, report, _ = run_json(
        capsys, "system", "search", "--bound", "2", "--subsystem", "1", "--json"
    )
    assert code == 0 and report["payload"]["count"] == 1


@pytest.mark.parametrize("argv", [
    ("system", "search", "--bound", "-1"),
    ("system", "search", "--bound", "-1", "--subsystem", "2,3"),
    ("verify", "all", "--bound", "-1"),
])
def test_negative_bound_exits_2(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: bound must be >= 0\n")


@pytest.mark.parametrize("subsystem", ["", ",", " , "])
def test_system_search_empty_subsystem_exits_2(capsys, subsystem):
    code, out, err = run(capsys, "system", "search", "--bound", "2", "--subsystem", subsystem)
    assert code == 2 and out == ""
    assert err == f"error: --subsystem {subsystem!r} names no row labels\n"


@pytest.mark.parametrize(
    "label", ["1_5", "٣", "-1", "+3", "2.0", "9" * 5000],
    ids=["underscore", "arabic-indic", "minus", "plus", "point", "5000-digits"],
)
def test_system_search_label_must_be_ascii_digits(capsys, label):
    # int() would read 1_5 as 15 and ٣ as 3
    code, out, err = run(capsys, "system", "search", "--bound", "1", "--subsystem", f"2,{label}")
    assert code == 2 and out == ""
    assert err == f"error: --subsystem label {label!r} is not a row number\n"


def test_system_search_too_many_solutions_exits_2(capsys):
    # rows 8 and 13 share no variable: 1784 solutions each at bound 3
    code, out, err = run(capsys, "system", "search", "--bound", "3", "--subsystem", "8,13")
    assert code == 2 and out == ""
    assert err == "error: 3182656 solutions with |v| <= 3 exceed the limit of 1000000\n"


@pytest.mark.parametrize("subsystem,bound", [("2", "1000"), ("2,3", "1000000"),
                                             ("5,8,10,11", "30"), ("2,3,4,7", "499"),
                                             ("8,13", "7"), ("2,3,4,7,12,15", "300")])
def test_system_search_over_the_work_bound_exits_2_at_once(subsystem, bound):
    # the plans would enumerate more heads than the limit, in one component
    # or summed over several that each fit: refused before the first
    argv = ["system", "search", "--subsystem", subsystem, "--bound", bound]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "commcalc.cli", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 2.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: rows [")


def test_system_search_work_bound_names_the_largest_bound_that_fits(capsys, monkeypatch):
    monkeypatch.setattr(obstruction, "MAX_HEADS", 1000)
    code, out, err = run(capsys, "system", "search", "--subsystem", "2,3", "--bound", "100")
    assert code == 2 and out == ""
    # the coupled pair enumerates 2 of its 4 variables: 201^2 heads
    assert err.startswith("error: rows [2, 3] with |v| <= 100 take 40401 search heads, "
                          "over the limit of 1000; the largest bound within it is ")
    largest = int(err.split()[-1])
    assert largest == 15  # 31^2 = 961 <= 1000 < 33^2
    assert run(capsys, "system", "search", "--subsystem", "2,3", "--bound", str(largest))[0] == 0
    code, _, err = run(capsys, "system", "search", "--subsystem", "2,3",
                       "--bound", str(largest + 1))
    assert code == 2 and "take 1089 search heads" in err


def test_system_search_work_bound_sums_the_components(capsys, monkeypatch):
    monkeypatch.setattr(obstruction, "MAX_HEADS", 1000)
    # two coupled pairs, 23^2 = 529 heads each: either fits alone, not both
    assert run(capsys, "system", "search", "--subsystem", "2,3", "--bound", "11")[0] == 0
    code, out, err = run(capsys, "system", "search", "--subsystem", "2,3,4,7", "--bound", "11")
    assert code == 2 and out == ""
    assert err == ("error: rows [2, 3, 4, 7] with |v| <= 11 take 1058 search heads, "
                   "over the limit of 1000; the largest bound within it is 10\n")
    # at the bound it names the plans fit, and the same limit caps the join
    code, _, err = run(capsys, "system", "search", "--subsystem", "2,3,4,7", "--bound", "10")
    assert (code, err) == (2, "error: 6400 solutions with |v| <= 10 exceed the limit of 1000\n")


SAMPLE_FILE = """\
# the sample solution of the first family at unit parameters
a3 = -1
a4 = -1
a5 = -2
a6 = -2
b1 = 1
b2 = 2
b5 = 1
b6 = -3
c1 = 0
c2 = -1/2
c3 = -1/4
c4 = -1/4
"""


def test_system_eval_sample(tmp_path, capsys):
    path = tmp_path / "assign.txt"
    path.write_text(SAMPLE_FILE)
    code, report, _ = run_json(capsys, "system", "eval", "--assign", str(path), "--json")
    assert code == 0
    assert report["payload"]["satisfied"]
    assert set(report["payload"]["residuals"].values()) == {"0"}


def test_system_eval_failing_point(tmp_path, capsys):
    path = tmp_path / "assign.txt"
    path.write_text(SAMPLE_FILE.replace("c3 = -1/4", "c3 = 1/4"))
    code, report, _ = run_json(capsys, "system", "eval", "--assign", str(path), "--json")
    assert code == 1
    assert not report["payload"]["satisfied"]


def test_system_eval_bracket_naming(tmp_path, capsys):
    path = tmp_path / "assign.txt"
    path.write_text(SAMPLE_FILE.replace("a3 =", "a[3] ="))
    code, report, _ = run_json(capsys, "system", "eval", "--assign", str(path), "--json")
    assert code == 0 and report["payload"]["satisfied"]


# "٠" is ARABIC-INDIC DIGIT ZERO, which Fraction reads as a zero
@pytest.mark.parametrize(
    "value", ["1/0", "1 + 1/0 sqrt3", "-1/00", "2 - 3/0 * sqrt3", "1/٠", "٣/0٠ sqrt3"]
)
def test_system_eval_zero_denominator_exits_2(tmp_path, capsys, value):
    path = tmp_path / "assign.txt"
    path.write_text(SAMPLE_FILE.replace("a3 = -1", f"a3 = {value}"))
    code, out, err = run(capsys, "system", "eval", "--assign", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}:2: zero denominator in scalar {value!r}\n"


def test_system_eval_unparsable_scalar_names_its_line(tmp_path, capsys):
    path = tmp_path / "assign.txt"
    path.write_text(SAMPLE_FILE.replace("c2 = -1/2", "c2 = 1 2 sqrt3"))
    code, out, err = run(capsys, "system", "eval", "--assign", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}:11: cannot parse scalar '1 2 sqrt3'\n"


def test_system_eval_variable_given_twice_exits_2(tmp_path, capsys):
    path = tmp_path / "assign.txt"
    path.write_text(SAMPLE_FILE + "a[3] = 5\n")
    code, out, err = run(capsys, "system", "eval", "--assign", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}:14: variable 'a3' given twice (first on line 2)\n"


def _scalar_of_digits(rng, digits: int) -> str:
    def number():
        return str(rng.randrange(10 ** (digits - 1), 10**digits))

    return f"-{number()}/{number()} - {number()}/{number()} sqrt3"


def test_system_eval_prints_residuals_of_scalars_at_the_digit_bound(tmp_path, capsys):
    # every number at the bound: the residuals come within a few dozen
    # digits of the 4300 Python prints, and all of them are printed
    rng = random.Random(5)
    limit = obstruction.MAX_SCALAR_DIGITS
    assert limit == 358
    path = tmp_path / "assign.txt"
    path.write_text("".join(f"{v} = {_scalar_of_digits(rng, limit)}\n" for v in VARIABLES))
    code, out, err = run(capsys, "system", "eval", "--assign", str(path))
    assert (code, err) == (1, "")
    assert len(out.splitlines()) == 16
    assert 4000 < max(map(len, re.findall(r"\d+", out))) <= 4300


@pytest.mark.parametrize("value", [
    "1/" + "3" * 359, "-" + "9" * 359, "2 - " + "1" * 359 + "*sqrt3",
    "1/2 + 1/" + "0" * 359 + "7 sqrt3", "7" * 1500, "4" * 4400, "1" * 4000 + "/3",
])
def test_system_eval_scalar_over_the_digit_bound_exits_2(tmp_path, capsys, value):
    path = tmp_path / "assign.txt"
    path.write_text(SAMPLE_FILE.replace("b6 = -3", f"b6 = {value}"))
    code, out, err = run(capsys, "system", "eval", "--assign", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}:9: scalar with a number of more than 358 digits\n"


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "system", "search")[0] == 2  # missing --bound
    assert run(capsys, "magnus", "[m1,m9]", "--vars", "m1,m2")[0] == 2  # unknown gen
    code, _, err = run(capsys, "reduce", "[x,y")
    assert code == 2 and "offset" in err


@pytest.mark.parametrize("command,options", [
    (("reduce",), ()), (("magnus",), ("--vars", "m2,m3")), (("lie", "to-basis"), ()),
])
def test_deep_nesting_exits_2(capsys, command, options):
    for text in ("[" * 5000 + "m2" + ",m3]" * 5000, "(" * 5000 + "m2" + ")" * 5000):
        code, out, err = run(capsys, *command, text, *options)
        assert code == 2 and out == ""
        assert err.startswith("error: nesting deeper than") and err.count("\n") == 1


@pytest.mark.parametrize("command,options", [(("reduce",), ()), (("magnus",), ("--vars", "m2,m3"))])
def test_word_length_limit_exits_2(capsys, command, options):
    cases = {
        "m2^1000001": "error: exponent larger than 1000000",
        "m2^-3000000": "error: exponent larger than 1000000",
        "[" * 20 + "m2" + ",m3]" * 20: "error: word of up to",  # 2^20 letters
        "[" * 30 + "m2" + ",m3]" * 30: "error: word of up to",
        "(m2*m3)^600000": "error: word of up to",
    }
    for text, message in cases.items():
        code, out, err = run(capsys, *command, text, *options)
        assert code == 2 and out == ""
        assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("command,options", [(("reduce",), ()), (("magnus",), ("--vars", "x"))])
def test_exponent_with_thousands_of_digits_exits_2(capsys, command, options):
    # more digits than int() converts (4300): a ParseError at the exponent
    for text in ("x^" + "9" * 5000, "x^-" + "9" * 5000):
        code, out, err = run(capsys, *command, text, *options)
        assert code == 2 and out == ""
        assert err == "error: exponent larger than 1000000 in absolute value at offset 2\n"
    code, out, _ = run(capsys, *command, "x^0000002", *options)
    assert code == 0
    assert out.splitlines()[0] == ("x x" if command == ("reduce",) else "1 + 2x1")


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr(lie, "verify_lemma_w", broken)
    code, out, err = run(capsys, "verify", "lemma41")
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_error_while_printing_exits_3(capsys, monkeypatch):
    # printing is inside the exit-code contract: a defect there is one
    # internal-error line, and nothing reaches stdout
    def broken(*args, **kwargs):
        raise RuntimeError("cannot encode")

    monkeypatch.setattr(json, "dumps", broken)
    code, out, err = run(capsys, "verify", "lemma41", "--json")
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: cannot encode\n"


def test_pole_error_is_a_defect(capsys, monkeypatch):
    # no CLI path evaluates a family on its pole set, so a PoleError
    # that reaches main is a defect in commcalc, not an input error
    def on_pole(k):
        raise obstruction.PoleError("family evaluated on its pole set (b1=0 or b5=0)")

    monkeypatch.setattr(obstruction, "verify_family", on_pole)
    code, out, err = run(capsys, "verify", "families")
    assert code == 3 and out == ""
    assert err == "internal error: PoleError: family evaluated on its pole set (b1=0 or b5=0)\n"


def test_printed_row_off_the_basis_is_a_defect(capsys, monkeypatch):
    # the 15 x 24 rank reads PRINTED_RHS as basis coordinates, so a
    # leaf sequence that is not a basis commutator is a table defect
    monkeypatch.setitem(lie.PRINTED_RHS, 1, ((1, (2, 3, 4, 6, 5)),))
    code, out, err = run(capsys, "verify", "lemma41")
    assert code == 3 and out == ""
    assert err == "internal error: KeyError: (2, 3, 4, 6, 5)\n"


@pytest.mark.parametrize("perm, monomial, failed", [
    # a basis commutator: it no longer reads off as itself
    ((2, 3, 4, 5, 6), (3, 2, 4, 5, 6), ("basis_rank", "quotient_dim")),
    # a non-basis degree-5 commutator: it leaves the basis span
    ((6, 5, 4, 3, 2), (2, 3, 4, 6, 5), ("quotient_dim",)),
    # a degree-4 commutator: it leaves the span of the [i,[j,[k,5]]]
    ((5, 4, 3, 2), (2, 3, 5, 4), ("small_degree_ranks.4",)),
], ids=["basis", "degree5", "degree4"])
def test_quotient_dim_failure_fails_lemma41(capsys, monkeypatch, perm, monomial, failed):
    # push one right-normed expansion off the basis span: the read-off
    # proof fails, and that is a failed certificate (exit 1), not an
    # input error (2) or a defect (3)
    bad = lie.right_normed(perm)
    expand = lie.expand_tree
    monkeypatch.setattr(
        lie, "expand_tree", lambda t: {**expand(t), monomial: 7} if t == bad else expand(t)
    )
    # a fresh cache of basis expansions, dropped with the patch
    monkeypatch.setattr(
        lie, "_right_normed_expansion", functools.cache(lie._right_normed_expansion.__wrapped__)
    )
    code, report, err = run_json(capsys, "verify", "lemma41", "--json")
    assert code == 1 and err == "" and not report["passed"]
    payload = report["payload"]
    none = {k for k in ("basis_rank", "quotient_dim") if payload[k] is None}
    none |= {f"small_degree_ranks.{d}" for d, r in payload["small_degree_ranks"].items() if r is None}
    assert none == set(failed)
    code, out, err = run(capsys, "verify", "lemma41")
    assert code == 1 and err == ""
    quotient = payload["quotient_dim"]
    assert f"quotient dimension: {quotient} (expected 24)" in out.splitlines()
    assert out.splitlines()[-1] == "verdict: FAIL"


def test_lemma41_text_reads_the_expected_values(capsys, monkeypatch):
    # the "(expected ...)" of each line is the reference value the
    # verdict is held against, so changing one changes both
    monkeypatch.setattr(cli, "LEMMA_EXPECTED", {**cli.LEMMA_EXPECTED, "rank": 13})
    code, out, err = run(capsys, "verify", "lemma41")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "rank of the 15x120 generator matrix: 14 (expected 13)"
    assert lines[-1] == "verdict: FAIL"
    code, report, _ = run_json(capsys, "verify", "lemma41", "--json")
    assert code == 1 and report["payload"]["expected"]["rank"] == 13


def test_families_section_reads_the_grid(capsys, monkeypatch):
    # the grid size and the text are read from the grid the families
    # are evaluated on
    monkeypatch.setattr(obstruction, "GRID", range(1, 3))
    code, report, _ = run_json(capsys, "verify", "families", "--json")
    assert code == 0
    payload = report["payload"]
    assert payload["grid_size"] == 2
    assert {k: f["grid_points"] for k, f in payload["families"].items()} == {
        "1": 4, "2": 4, "3": 4,
    }
    code, out, err = run(capsys, "verify", "families")
    assert code == 0 and err == ""
    assert out.startswith("families on the 2x2 grid: 1: pass, 2: pass, 3: pass;")


def test_grid_option_removed(capsys):
    code, out, err = run(capsys, "verify", "families", "--grid", "13")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --grid" in err


#: The arguments of `magnus` whose expansion has coefficients +-2 and +-4
SQUARE_COMMUTATOR = ("magnus", "[m1^2,m2]*m3^-2", "--vars", "m1,m2,m3")
#: A `magnus` word over four generators with runs of 3 and -2
NESTED = ("magnus", "[[m1,m2],m3]*m4^3*[m1,m4]^-2", "--vars", "m1,m2,m3,m4")
#: A `lie to-basis` input whose combination starts with a negative term
TO_BASIS = ("lie", "to-basis", "[[m6,m3],[[m4,m2],m5]]")


@pytest.mark.parametrize("argv,golden", [
    (("verify", "families", "--json"), "verify_families.json"),
    (("verify", "all", "--json", "--bound", "2"), "verify_all_bound2.json"),
    (("system", "search", "--bound", "5", "--json"), "system_search_bound5.json"),
    (("system", "search", "--bound", "2", "--subsystem", "2,3", "--json"),
     "system_search_bound2_rows23.json"),
    ((*SQUARE_COMMUTATOR, "--json"), "magnus_square_commutator.json"),
    ((*TO_BASIS, "--json"), "lie_to_basis.json"),
])
def test_json_matches_golden(capsys, argv, golden):
    # byte-identical to the checked-in report once the timing line is cut
    code, out, _ = run(capsys, *argv)
    assert code == 0
    out = re.sub(r'^  "timing_ms": [0-9.e+-]+,\n', "", out, count=1, flags=re.M)
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv,golden", [
    (("system", "search", "--bound", "5"), "system_search_bound5.txt"),
    (SQUARE_COMMUTATOR, "magnus_square_commutator.txt"),
    (NESTED, "magnus_nested.txt"),
    (TO_BASIS, "lie_to_basis.txt"),
])
def test_text_matches_golden(capsys, argv, golden):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


def test_verify_all_text_matches_golden(capsys):
    code, out, err = run(capsys, "verify", "all", "--bound", "2")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "verify_all_bound2.txt").read_text()


def test_verify_all(capsys):
    code, report, _ = run_json(capsys, "verify", "all", "--json", "--bound", "2")
    assert code == 0
    payload = report["payload"]
    assert set(payload) == {
        "lemma41", "appendix", "hopf", "families", "transcription", "integer_search",
    }
    assert payload["integer_search"]["solutions"] == []
    assert payload["transcription"]["flagged_rows"] == [9]


def test_parse_scalar():
    assert parse_scalar("-1/4") == QSqrt3(Fraction(-1, 4))
    assert parse_scalar("0") == QSqrt3(0)
    assert parse_scalar("1/3 + 2/3 sqrt3") == QSqrt3(Fraction(1, 3), Fraction(2, 3))
    assert parse_scalar("-sqrt3") == QSqrt3(0, -1)
    assert parse_scalar("2 - sqrt3") == QSqrt3(2, -1)
    assert parse_scalar("1/10 + 10/100 sqrt3") == QSqrt3(Fraction(1, 10), Fraction(1, 10))
    # a whole number before sqrt3 is its coefficient, not a rational part
    assert parse_scalar("12*sqrt3") == QSqrt3(0, 12)
    assert parse_scalar("9/10*sqrt3") == QSqrt3(0, Fraction(9, 10))
    assert parse_scalar("-23*sqrt3") == QSqrt3(0, -23)
    assert parse_scalar("2/3 sqrt3") == QSqrt3(0, Fraction(2, 3))
    assert parse_scalar("-4 - 12*sqrt3") == QSqrt3(-4, -12)
    for text in ("elephant", "1 2 sqrt3", "", "1 + 2", "sqrt3 + 1", "1 sqrt3 + 2", "2.5"):
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_schema_check_catches_defects():
    good = {"command": "x", "version": "1", "passed": True, "payload": {}, "timing_ms": 1.0}
    assert schema_problems(good) == []
    assert schema_problems(dict(good, timing_ms=2)) == []
    assert schema_problems([1, 2]) == ["report is not an object"]
    assert schema_problems({}) == [f"missing key {k!r}" for k in SCHEMA["required"]]
    assert schema_problems({k: v for k, v in good.items() if k != "payload"}) == [
        "missing key 'payload'"]
    assert schema_problems(dict(good, passed="yes")) == ["key 'passed' is not a boolean"]
    assert schema_problems(dict(good, timing_ms=True)) == ["key 'timing_ms' is not a number"]
    assert schema_problems(dict(good, extra=1)) == ["unexpected key 'extra'"]


def src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH, for
    a fresh CLI process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).resolve().parent.parent / "src"),
         *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # both cost start-up in every process and commcalc uses neither
    probe = ("import sys; before = set(sys.modules); import commcalc.cli; "
             "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "commcalc.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_full_system_search_costs_the_same_at_any_bound():
    # the rows have no common solution mod 2, so the search refutes the
    # full system before it enumerates; at this bound enumeration would
    # not finish
    argv = ["system", "search", "--bound", "1000000", "--json"]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "commcalc.cli", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 10.0
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout)["payload"]
    assert payload["count"] == 0 and payload["solutions"] == []


def test_subsystem_refuted_mod_4_costs_the_same_at_any_bound():
    # rows 2,4,5,6,8,9,10,11,13,14 have parity solutions but none mod 4,
    # so the search refutes them before it counts any head; enumerating
    # them at bound 6 would take 4 826 809 heads, over the limit
    argv = ["system", "search", "--subsystem", "2,4,5,6,8,9,10,11,13,14",
            "--bound", "1000000", "--json"]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "commcalc.cli", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 10.0
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout)["payload"]
    assert payload["count"] == 0 and payload["solutions"] == []


@pytest.mark.parametrize("stderr_to_stdout", [False, True])
@pytest.mark.parametrize("argv,code", [
    (["system", "search", "--bound", "1", "--subsystem", "2,3"], 0),
    (["system", "search", "--bound", "1", "--subsystem", "2,3", "--json"], 0),
    (["system", "eval", "--assign", "{failing}"], 1),
])
def test_closed_stdout_keeps_the_verdict_code(tmp_path, argv, code, stderr_to_stdout):
    # as in `commcalc ... | head -1`: the reader of stdout is gone before
    # the first write, and the exit code is still the verdict's
    failing = tmp_path / "assign.txt"
    failing.write_text(SAMPLE_FILE.replace("c3 = -1/4", "c3 = 1/4"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "commcalc.cli", *(a.format(failing=failing) for a in argv)],
            stdout=write_end, stderr=subprocess.STDOUT if stderr_to_stdout else subprocess.PIPE,
            env=src_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr in (None, b"")


def test_version_and_help(capsys):
    assert run(capsys, "--version")[0] == 0
    assert run(capsys, "--help")[0] == 0


# --- exit-code contract on arbitrary text ---------------------------------

_WORD_TOKENS = ["a", "b", "x1", "m2", "m3", "m6", "é", "x²", "a٣", "[", "]", "(", ")",
                ",", "*", "^", "-", "1", "2", "99", "٣", "²", " ",
                "[m2,m3]", "[m4,[m5,m6]]", "[a,b]^-1", "(x1*é)^2"]
_LABEL_TOKENS = ["0", "1", "2", "3", "7", "15", "16", "-1", "٣", ",", " "]
_NAMES = ["a", "b", "x1", "m2", "m3", "é", "x²", "a٣", "1", ""]
_COMMANDS = ["reduce", "magnus", "lie", "search"]


def _fuzz_argv(command, pieces, names):
    # exponents of at most two digits keep every word short
    text = re.sub(r"\d{3,}", lambda m: m.group()[:2], "".join(pieces))
    # declare the text's own names too, so that some expansions run
    names = ",".join(dict.fromkeys(names + re.findall(r"[^\W\d_]\w*", text)))
    return {
        "reduce": ["reduce", "--", text],
        "magnus": ["magnus", f"--vars={names}", "--", text],
        "lie": ["lie", "to-basis", "--", text],
        "search": ["system", "search", "--bound", "1", f"--subsystem={text}"],
    }[command]


def check_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "internal error" not in err.getvalue(), argv
    assert "Traceback" not in err.getvalue(), argv


if hypothesis is None:

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_exit_contract_on_arbitrary_text(command):
        rng = random.Random(f"exit-{command}")
        tokens = _LABEL_TOKENS if command == "search" else _WORD_TOKENS
        for _ in range(100):
            pieces = [
                rng.choice(tokens) if rng.random() < 0.9 else chr(rng.randrange(32, 0x3000))
                for _ in range(rng.randrange(13))
            ]
            names = rng.sample(_NAMES, rng.randrange(4))
            check_exit_contract(_fuzz_argv(command, pieces, names))

else:

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_exit_contract_on_arbitrary_text(command):
        tokens = _LABEL_TOKENS if command == "search" else _WORD_TOKENS

        @hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @hypothesis.given(
            st.lists(st.one_of(st.sampled_from(tokens), st.characters()), max_size=12),
            st.lists(st.sampled_from(_NAMES), max_size=3),
        )
        def check(pieces, names):
            check_exit_contract(_fuzz_argv(command, pieces, names))

        check()


# --- exit-code contract on assignment files --------------------------------

#: Names an assignment line may give besides the twelve variables:
#: unknown and malformed ones.
_UNKNOWN = ["a1", "b3", "c5", "a7", "x", "A3", "a[7]", "a[3", "a3]", "a 3", "a٣", "", "a3 b1"]
#: Values that are not a printed scalar, or that stress one.
_HOSTILE_VALUES = [
    "1/0", "-1/00", "1 + 1/0 sqrt3", "2 - 3/0 * sqrt3", "1/٠", "0/0", "٣/٤", "",
    "9" * 5000, "1" * 4000 + "/3", "7" * 1500, "1/" + "3" * 1200, "1 2 sqrt3",
    "sqrt 3", "1e5", "0.5", "--1", "1/2/3", "sqrt3 + 1", "2 ** sqrt3", "= 1", "a3",
]
_QUIET_LINES = ["", "   ", "\t", "# a comment", "  # a3 = 1/0"]
_MALFORMED_LINES = ["a3", "=", "= 1", "a3 == 1", "a3 = 1 = 2"]


def _drawn_fraction(randint, nonzero=False) -> Fraction:
    num = randint(1, 30) * (-1) ** randint(0, 1) if nonzero else randint(-30, 30)
    return Fraction(num, randint(1, 12))


def _drawn_scalar(choice, randint) -> str:
    """Every form str(QSqrt3) prints: p, p/q, [-]sqrt3, r*sqrt3,
    r/s*sqrt3 and a rational part with a sign and a root part."""
    a = _drawn_fraction(randint) if randint(0, 2) else 0
    return str(QSqrt3(a, choice([0, 1, -1, _drawn_fraction(randint)])))


def _drawn_assignment_file(choice, randint) -> str:
    """An assignment file: the twelve variables in some order, named
    plainly or bracketed, at a point of a solution family or at drawn
    scalars, with comments and blank lines.  One file in three is
    hostile: now and then a value is hostile or a variable missing,
    and unknown names, repeated names and malformed lines go in."""
    hostile = randint(0, 2) == 0
    if randint(0, 1):
        b1, b5 = _drawn_fraction(randint, True), _drawn_fraction(randint, True)
        values = {v: str(x) for v, x in family_assignment(randint(1, 3), b1, b5).items()}
    else:
        values = {v: _drawn_scalar(choice, randint) for v in VARIABLES}
    variables = list(VARIABLES)
    lines = []
    while variables:
        v = variables.pop(randint(0, len(variables) - 1))
        if hostile and randint(0, 11) == 0:
            continue
        name = choice([v, f"{v[0]}[{v[1:]}]"])
        value = choice(_HOSTILE_VALUES) if hostile and randint(0, 5) == 0 else values[v]
        comment = choice(["", "", " # note", "#a3 = 1"])
        layout = choice(["{} = {}{}", "{}={}{}", "  {}  =  {}  {}"])
        lines.append(layout.format(name, value, comment))
    for _ in range(randint(0, 3)):
        kind = randint(0, 3) if hostile else 3
        if kind == 0:
            line = f"{choice(_UNKNOWN)} = {_drawn_scalar(choice, randint)}"
        elif kind == 1:
            v = choice(VARIABLES)
            line = f"{choice([v, f'{v[0]}[{v[1:]}]'])} = {_drawn_scalar(choice, randint)}"
        elif kind == 2:
            line = choice(_MALFORMED_LINES)
        else:
            line = choice(_QUIET_LINES)
        lines.insert(randint(0, len(lines)), line)
    return "\n".join(lines) + choice(["", "\n"])


def check_assignment_file(path, text, as_json):
    path.write_text(text, encoding="utf-8")
    check_exit_contract(["system", "eval", "--assign", str(path), *(["--json"] * as_json)])


if hypothesis is None:

    def test_system_eval_exit_contract_on_drawn_files(tmp_path):
        rng = random.Random("assignment-files")
        for _ in range(200):
            text = _drawn_assignment_file(rng.choice, rng.randint)
            check_assignment_file(tmp_path / "assign.txt", text, rng.random() < 0.5)

else:

    def test_system_eval_exit_contract_on_drawn_files(tmp_path):
        @hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.data(), st.booleans())
        def check(data, as_json):
            text = _drawn_assignment_file(
                lambda seq: data.draw(st.sampled_from(seq)),
                lambda lo, hi: data.draw(st.integers(lo, hi)),
            )
            check_assignment_file(tmp_path / "assign.txt", text, as_json)

        check()
