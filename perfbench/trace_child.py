"""Run one commcalc CLI command with every public function of its
modules wrapped in a span, then write the spans out.

    PYTHONPATH=src python3 perfbench/trace_child.py FD <commcalc arguments>

FD is an open file descriptor inherited from the parent; the spans go
there as JSON when the command ends.  A span is [name, start, end,
parent index, counts]: `counts` holds the work counters recorded for a
few functions, taken from their arguments and results after the clock
stops.  A call nested directly in a call of the same function (as in
a recursive walk) is folded into the outer span.  Spans stay in memory
until the end, so tracing does no I/O while the command runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

MODULES = ("words", "magnus", "lie", "obstruction", "hopf", "cli")

#: Public methods traced besides the module-level functions: the exact
#: rational elimination behind every rank and kernel.
METHODS = {"lie": {"RationalMatrix": ("rank", "left_kernel")}}

#: span name -> counters from (bound arguments, result)
COUNTERS = {
    "words.substitute": lambda a, r: {"letters": len(r)},
    "magnus.expand": lambda a, r: {
        "n": len(a["vars"]), "letters": len(a["w"]), "terms": len(r.terms),
    },
    "obstruction.verify_family": lambda a, r: {"grid_points": r["grid_points"]},
    "obstruction.integer_search": lambda a, r: {
        "bound": a["bound"], "full": a.get("labels") is None, "solutions": len(r[1]),
    },
    "hopf.find_substitutions": lambda a, r: {"candidates": (2 * a["bound"] + 1) ** 3},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs).arguments
                span[4] = counter(bound, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of each module, and rebind every
        name in the package that refers to one of them, so calls made
        through `from .words import ...` imports are traced too."""
        import commcalc

        modules = {m: sys.modules[f"commcalc.{m}"] for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
        for mod in [commcalc, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    from commcalc import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as out:
            json.dump(tracer.spans, out)


if __name__ == "__main__":
    sys.exit(main())
