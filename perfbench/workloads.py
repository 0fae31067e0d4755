"""The benchmark's workloads: the commands each one runs and the known
answer each command must give.

Every expected answer comes from the paper or from the way the input
was built, never from commcalc's own output:

* certify -- the paper's facts (rank 14, the all-ones kernel, 24, the
  15 identities with rows 12-15 flagged, the Hopf substitution
  [1,1,-1], the three families zero on the grid);
* search -- the solution counts of the obstruction system: none with
  all |v| <= B, 8B for each coupled block, 40^2 for two blocks at
  bound 5; every listed block solution is also put back into the
  block's equations, transcribed here;
* algebra -- inputs generated from the seed whose reduced form, Magnus
  expansion or basis coordinates this module computes by itself.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Command:
    """One CLI invocation (without the interpreter) and its oracle.

    `check` takes the parsed --json report and returns the list of
    ways it differs from the known answer (empty when it is right).
    """

    argv: tuple
    check: Callable[[dict], list]


def _expect(payload: dict, **facts) -> list:
    return [
        f"{key}: expected {want!r}, got {payload.get(key)!r}"
        for key, want in facts.items()
        if payload.get(key) != want
    ]


# ---------------------------------------------------------------------------
# certify: what a reader of the paper runs


def _check_lemma41(report: dict) -> list:
    return _expect(report["payload"], rank=14, kernel_dim=1, kernel="all-ones", quotient_dim=24)


def _check_appendix(report: dict) -> list:
    rows = report["payload"]["rows"]
    problems = []
    if [r["row"] for r in rows] != list(range(1, 16)):
        problems.append("rows are not 1..15")
    if not all(r["verified"] for r in rows):
        problems.append("not all 15 identities verified")
    flagged = [r["row"] for r in rows if r["flagged"]]
    if flagged != [12, 13, 14, 15]:
        problems.append(f"flagged rows {flagged}, expected [12, 13, 14, 15]")
    return problems


def _check_hopf(report: dict) -> list:
    p = report["payload"]
    problems = _expect(p, substituted_trivial=True, jacobi_product_trivial=True,
                       hall_witt_trivial=True)
    if [1, 1, -1] not in p.get("substitutions_bound1", []):
        problems.append("[1, 1, -1] missing from the Hopf substitutions")
    return problems


def _check_families(report: dict) -> list:
    families = report["payload"]["families"]
    problems = []
    if sorted(families) != ["1", "2", "3"]:
        problems.append(f"families {sorted(families)}, expected 1, 2, 3")
    for k, fam in families.items():
        if fam["grid_points"] != 169 or not fam["all_residuals_zero"]:
            problems.append(f"family {k} not zero on the 13x13 grid")
    return problems


CERTIFY = (
    ("lemma41", _check_lemma41),
    ("appendix", _check_appendix),
    ("hopf", _check_hopf),
    ("families", _check_families),
)


def certify(seed: int) -> list:
    """The four paper certificates, in an order drawn from the seed."""
    cmds = [Command(("verify", target, "--json"), check) for target, check in CERTIFY]
    random.Random(seed).shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# search: the bounded integer search

#: The coupled rows of the obstruction system, transcribed from the
#: paper's equation table: label -> (monomials with coefficients, target).
BLOCK_ROWS = {
    2: (((1, ("b6", "c4")), (-1, ("b5", "c3"))), 1),
    3: (((1, ("b6", "c3")), (-1, ("b5", "c4"))), 1),
    4: (((-1, ("a3", "b2")), (1, ("b1", "a4"))), 1),
    7: (((-1, ("a4", "b2")), (1, ("b1", "a3"))), 1),
    12: (((1, ("a5", "c2")), (1, ("c1", "a6"))), 1),
    15: (((1, ("a6", "c2")), (1, ("c1", "a5"))), 1),
}


def _row_holds(label: int, point: dict) -> bool:
    terms, target = BLOCK_ROWS[label]
    total = 0
    for coeff, mono in terms:
        for v in mono:
            coeff *= point[v]
        total += coeff
    return total == target


def _search_check(bound: int, labels: tuple, count: int) -> Callable[[dict], list]:
    def check(report: dict) -> list:
        p = report["payload"]
        problems = _expect(p, bound=bound, count=count)
        names = p["variables"]
        seen = set()
        for sol in p["solutions"]:
            point = dict(zip(names, sol))
            if any(abs(x) > bound for x in sol) or tuple(sol) in seen:
                problems.append(f"solution {sol} out of bound or repeated")
            elif not all(_row_holds(label, point) for label in labels):
                problems.append(f"solution {sol} does not satisfy rows {labels}")
            seen.add(tuple(sol))
        if len(p["solutions"]) != min(count, 200):
            problems.append(f"{len(p['solutions'])} solutions listed")
        return problems[:5]

    return check


def search(seed: int) -> list:
    """Full system at bounds 3-6 (no solutions), each coupled block at
    bound 20 (8 * 20 solutions), and two blocks at bound 5 (40^2)."""
    cmds = [
        Command(("system", "search", "--bound", str(b), "--json"), _search_check(b, (), 0))
        for b in (3, 4, 5, 6)
    ]
    for labels, bound, count in (((2, 3), 20, 160), ((4, 7), 20, 160),
                                 ((12, 15), 20, 160), ((2, 3, 4, 7), 5, 1600)):
        sub = ",".join(map(str, labels))
        cmds.append(Command(("system", "search", "--bound", str(bound), "--subsystem", sub,
                             "--json"), _search_check(bound, labels, count)))
    random.Random(seed).shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# algebra: library-scale inputs with answers known by construction


def _letters_text(letters: list) -> str:
    """A reduced word in the report's form: 'x x y^-1', or '1'."""
    return " ".join(g if s == 1 else f"{g}^-1" for g, s in letters) or "1"


def _reduce_cmd(expr: str, letters: list) -> Command:
    want = _letters_text(letters)

    def check(report: dict) -> list:
        p = report["payload"]
        problems = _expect(p, length=len(letters))
        if p.get("reduced") != want:
            problems.append(f"reduced form differs from the known one ({len(letters)} letters)")
        return problems

    return Command(("reduce", expr, "--json"), check)


def _reduce_inputs(rng: random.Random) -> list:
    """Power-heavy expressions whose free reduction is known.  The
    exponents vary by under 1 % between seeds, so the (quadratic) work
    does too."""
    x, y = rng.sample(["x", "y", "z", "g", "h", "t"], 2)
    n1, n2, n3, m3 = (base + rng.randint(-10, 10) for base in (1500, 1500, 1200, 1200))
    n4 = 850 + rng.randint(-5, 5)
    return [
        # conjugate of a letter by a power: nothing cancels
        _reduce_cmd(f"{x}^{n1}*{y}*{x}^-{n1}",
                    [(x, 1)] * n1 + [(y, 1)] + [(x, -1)] * n1),
        # a power times its inverse: everything cancels
        _reduce_cmd(f"({x}*{y})^{n4}*({y}^-1*{x}^-1)^{n4}", []),
        # commutator of two powers: [a,b] = a^-1 b^-1 a b
        _reduce_cmd(f"[{x}^{n3},{y}^{m3}]",
                    [(x, -1)] * n3 + [(y, -1)] * m3 + [(x, 1)] * n3 + [(y, 1)] * m3),
        # powers that partly cancel
        _reduce_cmd(f"{x}^{n2}*{y}^{n4}*{y}^-{n4}*{x}^-{n2 - 7}", [(x, 1)] * 7),
    ]


def _word_text(rng: random.Random, gens: list, avoid: str) -> str:
    """A conjugator of fixed shape: four runs with exponents 1, -1, 2
    and -2 in random order, over random generators that differ from
    their neighbours and start away from `avoid`, so that nothing
    cancels inside the conjugate and its length is the same for every
    seed."""
    parts, prev = [], avoid
    for e in rng.sample((1, -1, 2, -2), 4):
        g = rng.choice([x for x in gens if x != prev])
        parts.append(g if e == 1 else f"{g}^{e}")
        prev = g
    return "*".join(parts)


def _trivial_factor(rng: random.Random, gens: list, nested: bool) -> str:
    """A commutator of two elements of the normal closure of one
    generator g.  Both sides lie in the ideal of x_g, so every term of
    its expansion beyond 1 repeats x_g and dies: it expands to 1."""
    g = rng.choice(gens)
    u, v = (_word_text(rng, gens, g) for _ in range(2))
    if not nested:
        return f"[{g}^({u}),{g}^({v})]"
    h = rng.choice([x for x in gens if x != g])
    return f"[[{g}^({u}),{h}^({_word_text(rng, gens, h)})],{g}^({v})]"


def lie_expansion(tree) -> dict:
    """Tensor expansion of a bracket tree, [a,b] -> ab - ba, as a map
    from index tuples to nonzero integer coefficients."""
    if isinstance(tree, int):
        return {(tree,): 1}
    a, b = lie_expansion(tree[0]), lie_expansion(tree[1])
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
            out[kb + ka] = out.get(kb + ka, 0) - va * vb
    return {k: v for k, v in out.items() if v}


_TERM = re.compile(r"([+-]?)\s*(\d*)((?:x\d+)+)")


def parse_expansion(text: str) -> dict:
    """Read a rendered expansion such as '1 + x1x2 - 2x2x1' into a map
    from index tuples to coefficients (the constant under ())."""
    body = text.strip()
    out: dict = {}
    if body.startswith("1"):
        out[()] = 1
        body = body[1:]
    for sign, mag, mono in _TERM.findall(body):
        coeff = int(mag or 1) * (-1 if sign == "-" else 1)
        out[tuple(int(i) for i in re.findall(r"\d+", mono))] = coeff
    return out


def _magnus_cmd(rng: random.Random, n: int, factors: int, k: int) -> Command:
    """P * T1 * ... * Tm * P^-1 next to a left-normed commutator C of k
    distinct generators (none when k is 0), where each Ti expands to 1.
    The whole expands to exactly what C does: 1 plus the degree-k Lie
    polynomial of C (longer terms would repeat one of C's k variables),
    so the lcs degree is k.  P is n + 1 blocks, each every generator
    once in random order and sign, so every monomial of the squarefree
    ring can occur in E(P) and the running product stays near the
    ring's full size, as a generic word's does.

    The word's shape comes from a fixed generator per n and the seed
    only renames the generators: the cost of an expansion depends on
    the shape (how coefficients grow and cancel), so this keeps the
    work the same for every seed."""
    gens = [f"m{i}" for i in rng.sample(range(1, n + 1), n)]
    shape = random.Random(f"magnus-{n}")
    prefix = "*".join(
        g if shape.random() < 0.5 else f"{g}^-1"
        for _ in range(n + 1) for g in shape.sample(gens, n)
    )
    parts = [prefix] + [_trivial_factor(shape, gens, i % 2 == 1) for i in range(factors)]
    parts.append(f"({prefix})^-1")
    want = {(): 1}
    if k:
        leaves = [int(g[1:]) for g in shape.sample(gens, k)]
        tree, text = leaves[0], f"m{leaves[0]}"
        for i in leaves[1:]:
            tree, text = (tree, i), f"[{text},m{i}]"
        want.update(lie_expansion(tree))
        parts.insert(shape.choice((0, len(parts))), text)
    expr = "*".join(parts)
    degree = k or "infinite"

    def check(report: dict) -> list:
        p = report["payload"]
        problems = _expect(p, is_trivial=not k, lcs_degree=degree)
        if parse_expansion(p["expansion"]) != want:
            problems.append("expansion differs from the known one")
        return problems

    return Command(("magnus", expr, "--vars", ",".join(sorted(gens)), "--json"), check)


#: (generators, trivial factors, degree k of C) per Magnus input.  The
#: running product stays near the size of the squarefree ring (326,
#: 1957 and 13700 monomials at n = 5, 6, 7), so a letter costs more as
#: n grows.  The n = 5 word has no C and expands to exactly 1.
MAGNUS_SHAPES = ((5, 12, 0), (6, 6, 4), (7, 1, 3))


def _random_tree(rng: random.Random, leaves: list):
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randint(1, len(leaves) - 1)
    return (_random_tree(rng, leaves[:cut]), _random_tree(rng, leaves[cut:]))


def _tree_text(tree) -> str:
    if isinstance(tree, int):
        return f"m{tree}"
    return f"[{_tree_text(tree[0])},{_tree_text(tree[1])}]"


def basis_coefficients(tree) -> dict:
    """Coordinates over the right-normed basis [i1,[i2,[i3,[i4,m6]]]]:
    each basis element expands to exactly one monomial ending in 6,
    i1 i2 i3 i4 6, with coefficient +1, so a tree's coordinates are the
    coefficients of its own monomials ending in 6."""
    return {
        "[{},[{},[{},[{},m6]]]]".format(*(f"m{i}" for i in mono[:4])): str(c)
        for mono, c in sorted(lie_expansion(tree).items())
        if mono[-1] == 6
    }


def lie_cmd(tree, want: dict) -> Command:
    def check(report: dict) -> list:
        got = report["payload"]["coefficients"]
        return [] if got == want else [f"coefficients {got} differ from {want}"]

    return Command(("lie", "to-basis", _tree_text(tree), "--json"), check)


LIE_TREES = 10


def random_trees(rng: random.Random) -> list:
    """Degree-5 bracket trees of random shape over a random order of 2..6."""
    return [_random_tree(rng, rng.sample(range(2, 7), 5)) for _ in range(LIE_TREES)]


def algebra(seed: int) -> list:
    """Power-heavy reductions, Magnus words over 5-7 generators and
    degree-5 basis rewrites, all generated from the seed."""
    rng = random.Random(seed)
    cmds = _reduce_inputs(rng)
    cmds += [_magnus_cmd(rng, *shape) for shape in MAGNUS_SHAPES]
    cmds += [lie_cmd(t, basis_coefficients(t)) for t in random_trees(rng)]
    return cmds


WORKLOADS = {"certify": certify, "search": search, "algebra": algebra}

