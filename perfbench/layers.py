"""Per-layer metrics from the spans of one traced command.

Times are inclusive times of the outermost span of a function (a span
with no ancestor of the same name), in milliseconds; `<layer>.self_ms`
is the layer's self time, each span's duration minus the time its
direct children cover.  Counts come from the counters the traced
process recorded and repeat exactly from run to run.
"""

from __future__ import annotations

from collections import Counter

LAYERS = ("words", "magnus", "lie", "obstruction", "hopf", "cli")

#: metric -> span names whose outermost inclusive time it sums
TIMES = {
    "words.parse_ms": ("words.parse_expr",),
    "words.to_word_ms": ("words.expr_to_word",),
    "magnus.expand_ms": ("magnus.expand",),
    "lie.to_basis_ms": ("lie.to_basis",),
    "lie.verify_lemma_ms": ("lie.verify_lemma_w",),
    "lie.rank_ms": ("lie.RationalMatrix.rank", "lie.RationalMatrix.left_kernel"),
    "lie.expand_tree_ms": ("lie.expand_tree",),
    "lie.appendix_ms": ("lie.appendix_report",),
    "obstruction.family_ms": ("obstruction.verify_family",),
    "obstruction.system_ms": ("obstruction.obstruction_system",),
    "obstruction.search_ms": ("obstruction.integer_search",),
    "hopf.verify_ms": ("hopf.verify_hopf_triviality",),
    "hopf.find_substitutions_ms": ("hopf.find_substitutions",),
    "cli.main_ms": ("cli.main",),
}

#: metric -> span name whose outermost calls it counts
CALLS = {
    "magnus.expand_calls": "magnus.expand",
    "lie.to_basis_calls": "lie.to_basis",
    "obstruction.evaluate_calls": "obstruction.evaluate",
    "obstruction.system_calls": "obstruction.obstruction_system",
}

#: metric -> (span name, counter) summed over outermost calls
COUNTS = {
    "words.letters_out": ("words.substitute", "letters"),
    "magnus.letters_in": ("magnus.expand", "letters"),
    "magnus.terms_out": ("magnus.expand", "terms"),
    "obstruction.grid_points": ("obstruction.verify_family", "grid_points"),
    "obstruction.solutions": ("obstruction.integer_search", "solutions"),
    "hopf.candidates": ("hopf.find_substitutions", "candidates"),
}


_TIME_OF = {n: m for m, names in TIMES.items() for n in names}
_CALLS_OF = {n: m for m, n in CALLS.items()}

#: Every metric command_metrics can produce.
METRICS = frozenset([
    *TIMES, *CALLS, *COUNTS, *(f"{layer}.self_ms" for layer in LAYERS),
    *(f"magnus.expand_ms.n{n}" for n in (5, 6, 7)),
    *(f"obstruction.search_ms.b{b}" for b in (3, 4, 5, 6)),
    "obstruction.search_ms.blocks", "cli.startup_ms",
])


def _split(name: str, counts: dict) -> str | None:
    """The scaling-curve metric a span also counts toward, if any:
    Magnus time against n, search time against bound."""
    if name == "magnus.expand" and counts["n"] in (5, 6, 7):
        return f"magnus.expand_ms.n{counts['n']}"
    if name == "obstruction.integer_search":
        return f"obstruction.search_ms.b{counts['bound']}" if counts["full"] else (
            "obstruction.search_ms.blocks")
    return None


def command_metrics(spans: list, wall_s: float) -> Counter:
    """Per-layer metrics of one command from its spans and the wall
    time of its process (start-up is what cli.main does not cover)."""
    out: Counter = Counter()
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (name, start, end, parent, counts) in enumerate(spans):
        ms = (end - start) * 1000
        out[f"{name.split('.')[0]}.self_ms"] += ms - covered[i] * 1000
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p >= 0:
            continue  # nested in a call of the same function
        if name in _TIME_OF:
            out[_TIME_OF[name]] += ms
        if name in _CALLS_OF:
            out[_CALLS_OF[name]] += 1
        if not counts:
            continue  # no counters, or the call raised
        for metric, (span_name, key) in COUNTS.items():
            if span_name == name:
                out[metric] += counts[key]
        split = _split(name, counts)
        if split:
            out[split] += ms
    out["cli.startup_ms"] += wall_s * 1000 - out["cli.main_ms"]
    return out
