"""Closed-loop benchmark of the commcalc CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout.  One client runs the
workload's commands one after another, each in a fresh
`python -m commcalc.cli ...` process with `src` on PYTHONPATH, and
checks every answer against a known result (see workloads.py).  It
repeats passes over the commands until the next pass would overrun
--seconds, and reports medians over the passes.  The last line of
stdout is one JSON object with the metrics named in BENCHMARK.json:
the end-to-end ones with --trace 0, the per-layer ones with --trace 1.
A traced run runs each command twice in a row, untraced and then under
trace_child.py, still one fresh process each, so caches start cold as
they do for users.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
#: Fresh `import commcalc` processes timed for setup_s.
SETUP_SAMPLES = 11


class Runner:
    """Runs child processes one at a time, each with a wall-clock
    deadline, and reports wall time, CPU time and peak RSS from
    wait4()."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._pid = None
        self._timed_out = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._pid is not None:
            self._timed_out = True
            os.kill(self._pid, signal.SIGKILL)

    def run(self, argv: list, pass_fd: int | None = None) -> dict:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return {"timed_out": True, "wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0}
        with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
            self._timed_out = False
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT, pass_fds=() if pass_fd is None else (pass_fd,))
            self._pid = proc.pid
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                self._pid = None
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return {
                "timed_out": self._timed_out,
                "code": proc.returncode,
                "stdout": out.read().decode(),
                "stderr": err.read().decode()[-2000:],
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024,
            }


def problems_of(cmd: workloads.Command, res: dict) -> list:
    """Ways the command's outcome differs from its known answer."""
    if res["timed_out"]:
        return ["did not finish before the run's deadline"]
    if res["code"] != 0:
        return [f"exit code {res['code']}: {res['stderr'].strip()[-300:]}"]
    try:
        return cmd.check(json.loads(res["stdout"]))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]


def run_command(runner: Runner, cmd: workloads.Command, traced: bool) -> tuple:
    """(process result, per-layer metrics or None) of one command."""
    if not traced:
        return runner.run(["-m", "commcalc.cli", *cmd.argv]), None
    with tempfile.TemporaryFile(dir=WORK) as spans_file:
        fd = spans_file.fileno()
        res = runner.run([str(HERE / "trace_child.py"), str(fd), *cmd.argv], fd)
        spans_file.seek(0)
        spans = spans_file.read()
    if res["timed_out"] or not spans:
        return res, None
    return res, layers.command_metrics(json.loads(spans), res["wall_s"])


def run_pass(runner: Runner, cmds: list, modes: tuple) -> dict:
    """One pass over the commands, each run once in every mode (False =
    untraced, True = traced) back to back, so that the traced and the
    untraced run of a command see the same machine.  Per mode, the
    pass's wall time is the sum of its commands' process wall times."""
    walls = {m: [] for m in modes}
    cpu = dict.fromkeys(modes, 0.0)
    rss = dict.fromkeys(modes, 0.0)
    failed = dict.fromkeys(modes, 0)
    layer = Counter()
    timed_out = False
    for cmd in cmds:
        for mode in modes:
            res, metrics = run_command(runner, cmd, mode)
            problems = problems_of(cmd, res)
            if problems:
                failed[mode] += 1
                print(f"FAIL {' '.join(cmd.argv[:3])[:80]}: {'; '.join(problems)}",
                      file=sys.stderr)
            walls[mode].append(res["wall_s"])
            cpu[mode] += res["cpu_s"]
            rss[mode] = max(rss[mode], res["rss_mb"])
            layer += metrics or Counter()
            timed_out = res["timed_out"]
            if timed_out:
                break
        if timed_out:
            break
    return {m: {
        "pass_s": sum(walls[m]),
        "slowest_cmd_s": max(walls[m], default=0.0),
        "cpu_s": cpu[m],
        "rss_mb": rss[m],
        "attempted": len(walls[m]),
        "failed": failed[m],
        "timed_out": timed_out,
        "layer": layer if m else None,
    } for m in modes}


def check_import(runner: Runner) -> None:
    """One untimed import, which also compiles the sources: it must
    load commcalc from this checkout."""
    res = runner.run(["-c", "import commcalc; print(commcalc.__file__)"])
    where = res.get("stdout", "").strip()
    if res.get("code") != 0 or not Path(where).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: `import commcalc` does not load {ROOT / 'src'}: {where or res}")


def measure_setup(runner: Runner) -> float:
    """Median wall time of fresh processes that import commcalc."""
    return statistics.median(
        runner.run(["-c", "import commcalc"])["wall_s"] for _ in range(SETUP_SAMPLES)
    )


def loop(runner: Runner, cmds: list, seconds: float, modes: tuple) -> dict:
    """Closed loop, one client: repeat passes until another would end
    after `seconds`.  Returns the passes of each mode."""
    passes = {m: [] for m in modes}
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for mode, result in run_pass(runner, cmds, modes).items():
            passes[mode].append(result)
        now = time.perf_counter()
        if result["timed_out"] or now - start + (now - pass_start) > seconds:
            return passes


def median_of(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def tally(passes: list) -> tuple[int, int]:
    """(commands attempted, commands failed) over the passes."""
    return sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes)


def end_to_end(passes: list, setup_s: float) -> dict:
    attempted, failed = tally(passes)
    return {
        "setup_s": setup_s,
        "pass_s": median_of(passes, "pass_s"),
        "slowest_cmd_s": median_of(passes, "slowest_cmd_s"),
        "cpu_s": median_of(passes, "cpu_s"),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(plain: list, traced: list) -> dict:
    """Medians over the traced passes (the lower middle value, so counts
    stay whole); a layer a workload never enters reads 0."""
    values = dict.fromkeys(layers.METRICS, 0)
    for name in set().union(*(p["layer"] for p in traced)):
        values[name] = statistics.median_low(p["layer"][name] for p in traced)
    base = median_of(plain, "pass_s")
    values["trace.overhead_pct"] = 100 * (median_of(traced, "pass_s") - base) / base
    return values


def report(spec: list, values: dict, passes: list) -> dict:
    """The result line: every metric the spec names, with its unit."""
    unknown = [m["name"] for m in spec if m["name"] not in values]
    if unknown:
        sys.exit(f"error: BENCHMARK.json names metrics this benchmark does not compute: {unknown}")
    attempted, failed = tally(passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }


def load_spec() -> dict:
    src = ROOT / "src" / "commcalc" / "__init__.py"
    if not src.is_file():
        sys.exit(f"error: no commcalc sources at {src.parent}; run from a source checkout")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def inputs_digest(cmds: list) -> str:
    return hashlib.sha256(json.dumps([c.argv for c in cmds]).encode()).hexdigest()[:16]


def benchmark(args) -> dict:
    spec = load_spec()
    WORK.mkdir(exist_ok=True)
    cmds = workloads.WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload}: seed {args.seed}, {len(cmds)} commands, "
          f"inputs sha256 {inputs_digest(cmds)}")
    runner = Runner(time.perf_counter() + RUN_LIMIT_S)
    check_import(runner)
    if args.trace:
        passes = loop(runner, cmds, args.seconds, (False, True))
        values = per_layer(passes[False], passes[True])
        metrics = spec["per_layer"]
    else:
        setup_s = measure_setup(runner)
        passes = loop(runner, cmds, args.seconds, (False,))
        values = end_to_end(passes[False], setup_s)
        metrics = spec["end_to_end"]
    runs = [p for ps in passes.values() for p in ps]
    counts = [f"{len(ps)} {'traced' if kind else 'untraced'}" for kind, ps in passes.items()]
    print(f"passes: {', '.join(counts)}")
    return report(metrics, values, runs)


def self_test() -> int:
    """Plant one wrong expectation next to a right one and show that
    exactly the wrong one is counted as failed, traced and untraced."""
    load_spec()
    WORK.mkdir(exist_ok=True)
    tree = workloads.random_trees(random.Random(0))[0]
    right = workloads.basis_coefficients(tree)
    key = next(iter(right))
    wrong = dict(right, **{key: str(-int(right[key]))})
    cmds = [workloads.lie_cmd(tree, right), workloads.lie_cmd(tree, wrong)]
    runner = Runner(time.perf_counter() + RUN_LIMIT_S)
    ok = True
    for mode, res in run_pass(runner, cmds, (False, True)).items():
        counted = res["attempted"] == 2 and res["failed"] == 1
        print(f"self-test ({'traced' if mode else 'untraced'}): {res['failed']} of "
              f"{res['attempted']} counted as failed, expected 1 of 2: "
              f"{'ok' if counted else 'WRONG'}")
        ok &= counted
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that a wrong answer is counted, then exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    print(json.dumps(benchmark(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
