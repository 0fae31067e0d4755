"""The benchmark's tracer still sees the functions it measures.

perfbench/trace_child.py wraps commcalc's public functions by name and
records counters from their arguments and results (the `w` and `vars`
of `magnus.expand`, the `terms` of its result, the length of the word
`words.substitute` returns); perfbench/layers.py turns the spans into
metrics.  A rename or a deletion in commcalc would silently empty a
metric, so each command here runs under the tracer in a fresh process
and its deterministic counters are held to known values.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _layers() -> dict:
    """perfbench/layers.py as a namespace, read without importing it
    (importing would write a bytecode cache under perfbench/)."""
    path = PERFBENCH / "layers.py"
    namespace: dict = {"__name__": "layers"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


LAYERS = _layers()

#: (command, the counters its traced run gives; every other count is 0)
CASES = [
    (["magnus", "[[m1,m2],m3]*m4^3*[m1,m4]^-2", "--vars", "m1,m2,m3,m4", "--json"],
     {"magnus.expand_calls": 1, "magnus.letters_in": 19, "magnus.terms_out": 12,
      "words.letters_out": 19}),
    (["reduce", "[x,y]^3*x^-2*(y*é2)^2", "--json"], {"words.letters_out": 18}),
    (["lie", "to-basis", "[m2,[[m3,m4],[m5,m6]]]", "--json"], {"lie.to_basis_calls": 1}),
    (["verify", "hopf", "--json"],
     {"hopf.candidates": 152, "magnus.expand_calls": 18, "magnus.letters_in": 292,
      "magnus.terms_out": 88, "words.letters_out": 262}),
    (["verify", "families", "--json"],
     {"obstruction.evaluate_calls": 1, "obstruction.grid_points": 507,
      "obstruction.system_calls": 4}),
    (["system", "search", "--bound", "3", "--json"], {"obstruction.system_calls": 1}),
    (["system", "search", "--bound", "20", "--subsystem", "2,3", "--json"],
     {"obstruction.solutions": 160, "obstruction.system_calls": 1}),
]


def traced_spans(argv: list) -> list:
    """The spans of one traced run, which must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    with tempfile.TemporaryFile() as spans_file:
        fd = spans_file.fileno()
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "trace_child.py"), str(fd), *argv],
            pass_fds=(fd,), env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        json.loads(proc.stdout)
        spans_file.seek(0)
        return json.load(spans_file)


def traced_counts(argv: list) -> dict:
    metrics = LAYERS["command_metrics"](traced_spans(argv), 0.0)
    names = {*LAYERS["CALLS"], *LAYERS["COUNTS"]}
    return {k: v for k, v in metrics.items() if k in names and v}


@pytest.mark.parametrize(
    "argv, counts", CASES,
    ids=["magnus", "reduce", "lie", "hopf", "families", "search", "subsystem"],
)
def test_tracer_counts(argv, counts):
    assert traced_counts(argv) == counts


def test_tracer_times_the_lemma_elimination():
    # lie.rank_ms sums the spans of the two elimination methods
    spans = traced_spans(["verify", "lemma41", "--json"])
    names = {span[0] for span in spans}
    assert {"lie.RationalMatrix.rank", "lie.RationalMatrix.left_kernel"} <= names
    assert LAYERS["command_metrics"](spans, 0.0)["lie.rank_ms"] > 0
