"""Command-line front end.

Every command emits a human-readable report on stdout and, with
--json, a JSON document conforming to data/report_schema.json.  Exit
codes: 0 all certificates pass, 1 a certificate failed, 2 usage or
input error, 3 internal error (a defect in commcalc, reported as one
"internal error:" line on stderr).  Reports are byte-stable across
re-runs apart from the timing field.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import __version__, hopf, lie, magnus, obstruction, words


def _report(command: str, passed: bool, payload: dict, t0: float) -> dict:
    return {
        "command": command,
        "version": __version__,
        "passed": passed,
        "payload": payload,
        "timing_ms": round((time.perf_counter() - t0) * 1000, 3),
    }


def _emit(report: dict, text_lines: list[str], as_json: bool) -> int:
    """Print the report and return its verdict code, also when the
    reader of stdout has gone (as `| head -1` does)."""
    try:
        if as_json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            for line in text_lines:
                print(line)
            print(f"verdict: {'pass' if report['passed'] else 'FAIL'}")
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# command implementations


def cmd_magnus(args) -> int:
    t0 = time.perf_counter()
    names = [n.strip() for n in args.vars.split(",") if n.strip()]
    alphabet = words.Alphabet(names)
    expr = words.parse_expr(args.expr, alphabet)
    vars_ = magnus.VariableSet.from_generators(alphabet.generators)
    word = words.expr_to_word(expr)
    poly = magnus.expand(word, vars_)
    degree = poly.min_degree()
    payload = {
        "expression": words.print_expr(expr),
        "vars": names,
        "expansion": poly.render(),
        "is_trivial": poly.is_one(),
        "lcs_degree": "infinite" if degree is None else degree,
    }
    report = _report("magnus", True, payload, t0)
    return _emit(report, [poly.render()], args.json)


def cmd_reduce(args) -> int:
    t0 = time.perf_counter()
    seen = words.generator_names(args.expr)
    if not seen:
        raise words.ParseError("no generators in expression", 0, "generator name")
    alphabet = words.Alphabet(seen)
    word = words.expr_to_word(words.parse_expr(args.expr, alphabet))
    payload = {
        "expression": args.expr,
        "reduced": str(word),
        "length": len(word),
        "letters": [[g, s] for g, s in word.letters],
    }
    report = _report("reduce", True, payload, t0)
    return _emit(report, [str(word)], args.json)


def cmd_lie_to_basis(args) -> int:
    t0 = time.perf_counter()
    alphabet = words.Alphabet([f"m{i}" for i in lie.INDICES])
    expr = words.parse_expr(args.expr, alphabet)
    tree = lie.comm_expr_to_tree(expr)
    coeffs = lie.to_basis(tree)
    payload = {
        "expression": lie.tree_text(tree),
        "combination": lie.render_combination(coeffs),
        "coefficients": {
            lie.tree_text(lie.right_normed(p)): str(c) for p, c in sorted(coeffs.items())
        },
    }
    report = _report("lie to-basis", True, payload, t0)
    return _emit(report, [payload["combination"]], args.json)


#: Reference values the computed ones are held against; a mismatch in
#: the report names the falsified claim directly.
LEMMA_EXPECTED = {
    "rank": 14,
    "kernel_dim": 1,
    "kernel": "all-ones",
    "quotient_dim": 24,
    "basis_rank": 24,
    "small_degree_ranks": {"2": 1, "3": 2, "4": 6},
}


def _lemma_payload() -> dict:
    payload = lie.verify_lemma_w()
    payload["basis_rank"] = lie.basis_rank()
    payload["small_degree_ranks"] = {str(d): lie.quotient_dim(range(2, 2 + d)) for d in (2, 3, 4)}
    payload["expected"] = LEMMA_EXPECTED
    payload["passed"] = all(payload[k] == v for k, v in LEMMA_EXPECTED.items())
    return payload


def _appendix_payload() -> dict:
    payload = lie.appendix_report()
    payload["passed"] = payload["all_verified"]
    return payload


def _hopf_payload() -> dict:
    payload = hopf.verify_hopf_triviality()
    payload["substitutions_bound1"] = [list(t) for t in hopf.find_substitutions(1)]
    twisted = [list(t) for t in hopf.find_substitutions(2, twisted=True)]
    payload["twisted_band"] = {"bound": 2, "found": twisted, "solvable": bool(twisted)}
    payload["passed"] = (
        payload["all_passed"]
        and [1, 1, -1] in payload["substitutions_bound1"]
        and payload["twisted_band"]["solvable"]
    )
    return payload


#: Family 1 at b1 = b5 = 1, in the scalar syntax of `system eval`.
FAMILY1_SAMPLE_POINT = {
    "a3": "-1", "a4": "-1", "a5": "-2", "a6": "-2",
    "b1": "1", "b2": "2", "b5": "1", "b6": "-3",
    "c1": "0", "c2": "-1/2", "c3": "-1/4", "c4": "-1/4",
}


def _families_payload() -> dict:
    reports = {str(k): obstruction.verify_family(k) for k in (1, 2, 3)}
    point = {v: parse_scalar(x) for v, x in FAMILY1_SAMPLE_POINT.items()}
    sample = obstruction.evaluate(obstruction.obstruction_system(), point)
    sample_zero = all(v.is_zero() for v in sample.values())
    return {
        "grid_size": 13,
        "families": reports,
        "sample_point_residuals_zero": sample_zero,
        "passed": (
            all(r["all_residuals_zero"] for r in reports.values())
            and sample_zero
            and all(reports["1"]["closed_form_facts"].values())
        ),
    }


def _transcription_payload() -> dict:
    check = obstruction.transcription_check()
    check["expected"] = {"all_agree": True, "flagged_rows": [9]}
    check["passed"] = check["all_agree"] and check["flagged_rows"] == [9]
    return check


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    target = args.target
    sections: dict = {}
    text: list[str] = []
    if target in ("lemma41", "all"):
        sections["lemma41"] = _lemma_payload()
        text.append(lie.render_lemma_report(sections["lemma41"]))
    if target in ("appendix", "all"):
        sections["appendix"] = _appendix_payload()
        rows = sections["appendix"]["rows"]
        text.append(
            f"appendix identities: {sum(r['verified'] for r in rows)}/15 verified; "
            f"printed-form mismatches flagged on rows "
            f"{[r['row'] for r in rows if not r['printed_matches']]}"
        )
    if target in ("hopf", "all"):
        sections["hopf"] = _hopf_payload()
        h = sections["hopf"]
        text.append(
            f"substituted longitude: {h['substituted_word'] or '1'} -> "
            f"expansion {h['magnus_expansion']}"
        )
        text.append(
            f"certificates: substitution {h['substituted_trivial']}, "
            f"jacobi {h['jacobi_product_trivial']}, hall-witt {h['hall_witt_trivial']}"
        )
    if target in ("families", "all"):
        sections["families"] = _families_payload()
        f = sections["families"]
        text.append(
            "families on the 13x13 grid: "
            + ", ".join(
                f"{k}: {'pass' if v['all_residuals_zero'] else 'FAIL'}"
                for k, v in sorted(f["families"].items())
            )
            + f"; sample point zero: {f['sample_point_residuals_zero']}"
        )
    if target == "all":
        sections["transcription"] = _transcription_payload()
        text.append(
            f"dual-source transcription: agree={sections['transcription']['all_agree']}, "
            f"flagged rows {sections['transcription']['flagged_rows']}"
        )
        canon, sols = obstruction.integer_search(args.bound)
        sections["integer_search"] = {
            "bound": args.bound,
            "solutions": [list(s) for s in sols],
            "passed": not sols,
        }
        text.append(
            f"integer search |v| <= {args.bound}: "
            + (f"{len(sols)} solutions (claim falsified)" if sols else "no solutions")
        )
    passed = all(s["passed"] for s in sections.values())
    payload = sections if target == "all" else sections[target]
    report = _report(f"verify {target}", passed, payload, t0)
    return _emit(report, text, args.json)


def _row_labels(text: str) -> list[int]:
    """The row labels of --subsystem: ASCII decimal numbers separated by
    commas or spaces.  A label of more than six digits, leading zeros
    aside, names no row and is refused before int() reads it."""
    labels = [x for x in re.split(r"[,\s]+", text.strip()) if x]
    if not labels:
        raise ValueError(f"--subsystem {text!r} names no row labels")
    for x in labels:
        if not re.fullmatch(r"0*[0-9]{1,6}", x):
            raise ValueError(f"--subsystem label {x!r} is not a row number")
    return [int(x) for x in labels]


def cmd_system_search(args) -> int:
    t0 = time.perf_counter()
    labels = None if args.subsystem is None else _row_labels(args.subsystem)
    canon, sols = obstruction.integer_search(args.bound, labels=labels)
    full = labels is None
    payload = {
        "bound": args.bound,
        "subsystem": labels,
        "variables": list(canon),
        "count": len(sols),
        "solutions": [list(s) for s in sols[:200]],
        "truncated": len(sols) > 200,
    }
    passed = (not full) or not sols
    report = _report("system search", passed, payload, t0)
    if full:
        line = (
            f"no integer solutions with |v| <= {args.bound}"
            if not sols
            else f"{len(sols)} integer solutions with |v| <= {args.bound} (claim falsified)"
        )
    else:
        line = f"{len(sols)} solutions over {list(canon)} with |v| <= {args.bound}"
    return _emit(report, [line], args.json)


#: A rational part must be followed by a sign or the end, so that in
#: "12*sqrt3" or "2/3 sqrt3" the whole number is the sqrt3 coefficient.
_VALUE_RE = re.compile(
    r"\s*(?P<a>[+-]?\d+(?:/\d+)?(?=\s*(?:[+-]|$)))?\s*"
    r"(?P<root>(?P<sign>[+-])?\s*(?:(?P<b>\d+(?:/\d+)?)\s*\*?\s*)?sqrt3)?\s*"
)


def parse_scalar(text: str) -> obstruction.QSqrt3:
    """Parse 'p/q', 'p/q + r/s sqrt3', '-sqrt3', '12*sqrt3', etc.: every
    form str(QSqrt3) prints.  A number of more than
    obstruction.MAX_SCALAR_DIGITS digits is refused."""
    m = _VALUE_RE.fullmatch(text)
    if not m or (m.group("a") is None and m.group("root") is None):
        raise ValueError(f"cannot parse scalar {text!r}")
    a = _fraction(text, m.group("a")) if m.group("a") else 0
    b = 0
    if m.group("root"):
        b = _fraction(text, m.group("b")) if m.group("b") else 1
        if m.group("sign") == "-":
            b = -b
    return obstruction.QSqrt3(a, b)


def _fraction(text: str, part: str) -> obstruction.QSqrt3:
    """The rational number of a matched 'p' or 'p/q' of text, as a
    QSqrt3.  Its digits may be any script's decimals, so a zero
    denominator is one whose every digit is zero."""
    num, _, den = part.partition("/")
    limit = obstruction.MAX_SCALAR_DIGITS
    if len(num.lstrip("+-")) > limit or len(den) > limit:
        raise ValueError(f"scalar with a number of more than {limit} digits")
    if den and not any(map(int, den)):
        raise ValueError(f"zero denominator in scalar {text!r}")
    return obstruction.QSqrt3(int(num)) / int(den or 1)


def parse_assignment_file(path: str) -> dict:
    """Lines 'a3 = -1' or 'c3 = -1/4'; accepts the bracketed naming
    a[3] as well.  '#' starts a comment.  A variable given twice is an
    error."""
    assignment = {}
    first_line = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'name = value'")
            name, value = line.split("=", 1)
            name = name.strip().replace("[", "").replace("]", "")
            if name not in obstruction.VARIABLES:
                raise ValueError(f"{path}:{lineno}: unknown variable {name!r}")
            if name in first_line:
                raise ValueError(
                    f"{path}:{lineno}: variable {name!r} given twice "
                    f"(first on line {first_line[name]})"
                )
            first_line[name] = lineno
            try:
                assignment[name] = parse_scalar(value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    missing = [v for v in obstruction.VARIABLES if v not in assignment]
    if missing:
        raise ValueError(f"{path}: assignment missing {missing}")
    return assignment


def cmd_system_eval(args) -> int:
    t0 = time.perf_counter()
    assignment = parse_assignment_file(args.assign)
    system = obstruction.obstruction_system()
    residuals = obstruction.evaluate(system, assignment)
    payload = {
        "assignment": {k: str(v) for k, v in sorted(assignment.items())},
        "residuals": {str(k): str(v) for k, v in sorted(residuals.items())},
        "satisfied": all(v.is_zero() for v in residuals.values()),
    }
    report = _report("system eval", payload["satisfied"], payload, t0)
    lines = [f"({k}) residual {v}" for k, v in sorted(residuals.items())]
    return _emit(report, lines, args.json)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commcalc",
        description="Exact-arithmetic commutator-calculus verification suite",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("magnus", help="Magnus expansion of an expression")
    p.add_argument("expr")
    p.add_argument("--vars", required=True, help="comma-separated generator names")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_magnus)

    p = sub.add_parser("reduce", help="free reduction of an expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p_lie = sub.add_parser("lie", help="multilinear commutator operations")
    lie_sub = p_lie.add_subparsers(dest="lie_command", required=True)
    p = lie_sub.add_parser("to-basis", help="rewrite over the right-most-index-6 basis")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lie_to_basis)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "target", choices=["lemma41", "appendix", "hopf", "families", "all"]
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--bound", type=int, default=5, help="search bound for 'all' (default 5)")
    p.set_defaults(func=cmd_verify)

    p_system = sub.add_parser("system", help="obstruction-system operations")
    system_sub = p_system.add_subparsers(dest="system_command", required=True)
    p = system_sub.add_parser("search", help="bounded integer search")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--subsystem", help="comma-separated row labels, e.g. 2,3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_system_search)
    p = system_sub.add_parser("eval", help="evaluate an assignment file")
    p.add_argument("--assign", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_system_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a WordError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
