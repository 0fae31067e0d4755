"""The package loads only what is used: re-exports, the README's
library snippet, and the layers each CLI command compiles."""

import ast
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import commcalc
from commcalc import hopf, lie, magnus, obstruction, words

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Every name the package re-exports, by the layer that defines it.
REEXPORTS = {
    words: ["Alphabet", "CommExpr", "Commutator", "Conjugate", "GroupWord", "Inverse",
            "Leaf", "ParseError", "Product", "UnmappedGeneratorError", "WordError",
            "commutator", "expr_to_word", "parse_expr", "print_expr", "substitute"],
    magnus: ["MagnusPoly", "VariableSet", "expand"],
    lie: ["RationalMatrix", "TreeError", "expand_tree", "right_normed", "to_basis",
          "verify_appendix_identity", "verify_lemma_w"],
    obstruction: ["QSqrt3", "evaluate", "integer_search", "obstruction_system", "verify_family"],
    hopf: ["find_substitutions", "substituted_longitude", "verify_hopf_triviality"],
}
LAYERS = {"words", "magnus", "lie", "obstruction", "hopf"}


def test_every_reexport_is_its_layers_object():
    for layer, names in REEXPORTS.items():
        for name in names:
            assert getattr(commcalc, name) is getattr(layer, name), name


def test_dir_and_star_import_cover_every_reexport():
    names = {name for names in REEXPORTS.values() for name in names}
    assert names | LAYERS <= set(dir(commcalc))
    namespace: dict = {}
    exec("from commcalc import *", namespace)
    assert names | LAYERS <= set(namespace)
    assert namespace["expand"] is magnus.expand


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        commcalc.no_such_name
    assert not hasattr(commcalc, "cli_main")
    with pytest.raises(ImportError):
        exec("from commcalc import no_such_name", {})


# --- fresh processes ------------------------------------------------------

#: Runs before the code under test: records every source file compiled
#: and, at exit, writes those and the imported modules to REPORT.
PROLOGUE = """\
import atexit, sys
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and compiled.append(str(args[1])))

def report():
    modules = sorted(sys.modules)
    import json
    with open({report!r}, "w") as fh:
        json.dump({{"compiled": compiled, "modules": modules}}, fh)

atexit.register(report)
"""

RUN_CLI = """\
import runpy
sys.argv[0] = "commcalc"
runpy.run_module("commcalc.cli", run_name="__main__", alter_sys=True)
"""


def run_fresh(tmp_path, code: str, *args: str):
    """Run code in a fresh interpreter without `site` (which may import
    modules of its own), on a copy of the package with no bytecode, so
    that every commcalc module it runs is compiled.  Returns the process,
    the commcalc modules compiled and the names of all modules imported."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "commcalc", src / "commcalc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", PROLOGUE.format(report=str(report)) + code, *args],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    seen = json.loads(report.read_text())
    package = src / "commcalc"
    compiled = {pathlib.Path(f).stem for f in seen["compiled"]
                if pathlib.Path(f).parent == package}
    return proc, compiled, set(seen["modules"])


BASE = {"__init__", "cli", "words"}

#: (argv, exit code, the commcalc modules the command compiles)
FOOTPRINTS = [
    (["reduce", "[x,y]^3*x^-2"], 0, BASE),
    (["reduce", "[x,y"], 2, BASE),
    (["magnus", "[m1,m2]*m3", "--vars", "m1,m2,m3"], 0, BASE | {"magnus"}),
    (["lie", "to-basis", "[m2,[[m3,m4],[m5,m6]]]"], 0, BASE | {"lie"}),
    (["system", "search", "--bound", "3"], 0, {"__init__", "cli", "obstruction"}),
    (["verify", "families"], 0, {"__init__", "cli", "obstruction"}),
    (["verify", "hopf"], 0, BASE | {"magnus", "hopf"}),
]


@pytest.mark.parametrize(
    "argv, code, modules", FOOTPRINTS,
    ids=["reduce", "reduce-error", "magnus", "lie", "search", "families", "hopf"],
)
def test_command_compiles_only_the_layers_it_uses(tmp_path, argv, code, modules):
    proc, compiled, imported = run_fresh(tmp_path, RUN_CLI, *argv)
    assert proc.returncode == code, proc.stderr
    assert compiled == modules
    # typing served annotations only; the obstruction layer's numbers
    # are ints and QSqrt3s, and Fractions are built only by the commands
    # that read or print them
    assert not imported & {"typing", "fractions", "decimal"}


def test_qsqrt3_with_a_foreign_operand_loads_no_fractions(tmp_path):
    # only a loaded fractions module can have made a Fraction operand
    code = ("from commcalc.obstruction import QSqrt3\n"
            "assert QSqrt3(1).__mul__(object()) is NotImplemented\n")
    proc, _, imported = run_fresh(tmp_path, code)
    assert proc.returncode == 0, proc.stderr
    assert "fractions" not in imported


def library_snippet() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_runs_as_shown(tmp_path):
    snippet = library_snippet()
    proc, compiled, _ = run_fresh(tmp_path, snippet)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the snippet's first print shows its output in a comment
    shown = re.search(r"print\(poly\.render\(\)\)\s*# (.*)", snippet).group(1)
    assert lines[0] == shown == "1 - x2x3x4 + x2x4x3 + x3x4x2 - x4x3x2"
    assert len(ast.literal_eval(lines[1])) == 8  # "8-term basis combination"
    # the names come from four layers, and only those four run
    assert compiled == {"__init__", "words", "magnus", "lie", "obstruction"}
