"""The 14-equation band-sum obstruction system: exact evaluation, the
three parametric solution families over Q(sqrt 3), and an exact bounded
search, which refutes the full system mod 2 and so at every bound.

A row is an Equation, a named tuple (label, terms, target) whose terms
are (coefficient, variable names) pairs in source order; the system is
the tuple of the 15 rows in label order.  This layer needs nothing
from the others: its numbers are ints and QSqrt3s.

Each family is a plain function (b1, b5) -> point in the source's
printed shape, certified by exact evaluation on the fixed 13 x 13 grid
(a degree bound makes that a proof; see verify_family).  Values in
Q(sqrt 3) are QSqrt3s, three integers (a + b*sqrt(3))/d in lowest
terms.  The grid pass is integer arithmetic that reduces once per
row: a residual is summed in unreduced triples over a common
denominator and put in lowest terms at the end.  The search is
factored: rows sharing no variable are searched apart and joined by
product, the variable order is planned from the rows, the last
variable a block's rows end at is solved rather than enumerated -- the
last two together, by Cramer's rule, where two of its rows are jointly
linear in them -- and a block whose rows read only its own variables
is solved once and reused.  Before a component is enumerated, its
rows are solved mod 2 over the 2^n parity vectors of its variables,
then mod 4; if none fits, no integer point can, and the component is
refuted at every bound.  The full system is refuted this way, so its
search costs the same at any bound.

The system lives in 12 variables a3,a4,a5,a6,b1,b2,b5,b6,c1,c2,c3,c4
(the homological band-sum multiplicities; the missing a1,a2,b3,b4,c5,c6
encode the constraint that slices do not go over their own handle).
Row (1) is the identically-satisfied base equation; rows (2)-(15) each
set a degree-2 or degree-3 polynomial equal to 1.

The system is stored twice, from its two source transcriptions -- a
structured equation table and a solver input block -- and the two are
cross-checked against each other on the first call of
obstruction_system().  The solver block's
row 9 carries a spurious trailing "== 1"; the cross-check flags it and
compares the equation part, rather than repairing the text silently.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from collections import namedtuple
from collections.abc import Callable, Iterable

VARIABLES: tuple[str, ...] = (
    "a3", "a4", "a5", "a6", "b1", "b2", "b5", "b6", "c1", "c2", "c3", "c4",
)

#: The search's one work limit, on the heads of all its components'
#: plans -- each (2B + 1) to the number of variables it enumerates
#: rather than solves, not counting fixed-block reuse or a == 0
#: branches -- and on the joined solution count.
MAX_HEADS = 10**6


class PoleError(ZeroDivisionError):
    """A family was evaluated on its pole set (b1 = 0 or b5 = 0)."""


def _parts(x):
    """(a, b, d) with x = (a + b*sqrt(3))/d for an int, Fraction or
    QSqrt3 x, else None."""
    if isinstance(x, QSqrt3):  # first: isinstance(x, Fraction) is an ABC check
        return x._a, x._b, x._d
    if isinstance(x, int):
        return x, 0, 1
    from fractions import Fraction  # here, so that the search and the families never load it
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


def _reduced(a: int, b: int, d: int) -> "QSqrt3":
    """The QSqrt3 (a + b*sqrt(3))/d in lowest terms; d must be nonzero."""
    g = math.gcd(a, b, d)
    if d < 0:
        g = -g
    x = object.__new__(QSqrt3)
    x._a = a // g
    x._b = b // g
    x._d = d // g
    return x


class QSqrt3:
    """Exact element a + b*sqrt(3) of the real quadratic field Q(sqrt 3).

    Held as three ints (a + b*sqrt(3))/d in lowest terms: d > 0 and
    gcd(a, b, d) = 1, so equal elements have equal triples.  The
    rational parts a and b are read-only properties returning Fractions.
    QSqrt3(a, b) takes each part as an int, a Fraction or a QSqrt3 and
    raises TypeError for anything else, floats included.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, a=0, b=0):
        pa, pb = _parts(a), _parts(b)
        if pa is None or pb is None:
            bad = type(a if pa is None else b).__name__
            raise TypeError(f"QSqrt3 takes int, Fraction or QSqrt3 parts, not {bad}")
        a1, b1, d1 = pa
        a2, b2, d2 = pb  # b*sqrt(3) = (3*b2 + a2*sqrt(3))/d2
        return _reduced(a1 * d2 + 3 * b2 * d1, b1 * d2 + a2 * d1, d1 * d2)

    @property
    def a(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._b, self._d)

    def __add__(self, o):
        if isinstance(o, int):
            return _reduced(self._a + o * self._d, self._b, self._d)
        p = _parts(o)
        if p is None:
            return NotImplemented
        a, b, d = p
        return _reduced(self._a * d + a * self._d, self._b * d + b * self._d, self._d * d)

    __radd__ = __add__

    def __sub__(self, o):
        return NotImplemented if _parts(o) is None else self + -o

    def __rsub__(self, o):
        return NotImplemented if _parts(o) is None else -self + o

    def __mul__(self, o):
        if isinstance(o, int):
            return _reduced(self._a * o, self._b * o, self._d)
        p = _parts(o)
        if p is None:
            return NotImplemented
        a, b, d = p
        return _reduced(self._a * a + 3 * self._b * b, self._a * b + self._b * a, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        p = _parts(o)
        if p is None:
            return NotImplemented
        a, b, d = p
        # multiply by the conjugate (a - b*sqrt(3)) over the integer norm
        norm = a * a - 3 * b * b
        if norm == 0:  # a^2 = 3 b^2 has no rational solution but a = b = 0
            raise ZeroDivisionError("division by zero in Q(sqrt 3)")
        return _reduced((self._a * a - 3 * self._b * b) * d,
                        (self._b * a - self._a * b) * d, self._d * norm)

    def __rtruediv__(self, o):
        p = _parts(o)
        return NotImplemented if p is None else _reduced(*p) / self

    def __neg__(self):
        x = object.__new__(QSqrt3)
        x._a, x._b, x._d = -self._a, -self._b, self._d
        return x

    def __eq__(self, o):
        p = _parts(o)
        return NotImplemented if p is None else (self._a, self._b, self._d) == p

    def __hash__(self):
        # a rational element hashes as its Fraction, which it equals
        return hash(self.a) if self._b == 0 else hash((self._a, self._b, self._d))

    def is_zero(self) -> bool:
        return self._a == self._b == 0

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        mag = abs(b)
        tail = "sqrt3" if mag == 1 else f"{mag}*sqrt3"
        if a == 0:
            return tail if b > 0 else f"-{tail}"
        return f"{a} {'-' if b < 0 else '+'} {tail}"

    def __repr__(self):
        return f"QSqrt3({self.a}, {self.b})"


SQRT3 = QSqrt3(0, 1)


# ---------------------------------------------------------------------------
# the system, from its two sources


#: One row: its label, its terms ((coeff, (var, ...)), ...) in source
#: order, and its target; the row says sum of coeff * product = target.
Equation = namedtuple("Equation", "label terms target")


def _residual(row: Equation, assignment: dict) -> QSqrt3:
    """Value minus target of a row at an assignment of QSqrt3 values.

    It reads each value's three ints directly, so every value must
    be a QSqrt3, as evaluate makes sure.  The row is summed in
    unreduced triples (a, b, d), products and sums over a common
    denominator, and put in lowest terms once at the end; lowest
    terms are unique, so the result is the same as with QSqrt3
    arithmetic throughout."""
    a, b, d = -row.target, 0, 1
    for coeff, mono in row.terms:
        ta, tb, td = coeff, 0, 1
        for v in mono:
            x = assignment[v]
            ta, tb, td = ta * x._a + 3 * tb * x._b, ta * x._b + tb * x._a, td * x._d
        a, b, d = a * td + ta * d, b * td + tb * d, d * td
    return _reduced(a, b, d)


# Equation-table source: rows (1)-(15); row (1) is the base row that is
# automatically satisfied, normalized here to 0 = 0.
_TABLE: tuple = tuple(Equation(*row) for row in (
    (1, (), 0),
    (2, ((1, ("b6", "c4")), (-1, ("b5", "c3"))), 1),
    (3, ((1, ("b6", "c3")), (-1, ("b5", "c4"))), 1),
    (4, ((-1, ("a3", "b2")), (1, ("b1", "a4"))), 1),
    (5, ((-1, ("a3", "b6", "c2")), (-1, ("b1", "a5", "c4"))), 1),
    (6, ((1, ("a3", "b5", "c2")), (1, ("b1", "a6", "c4"))), 1),
    (7, ((-1, ("a4", "b2")), (1, ("b1", "a3"))), 1),
    (8, ((-1, ("a4", "b6", "c2")), (-1, ("b1", "a5", "c3"))), 1),
    (9, ((1, ("a4", "b5", "c2")), (1, ("b1", "a6", "c3"))), 1),
    (10, ((1, ("a5", "b2", "c4")), (-1, ("c1", "a3", "b6"))), 1),
    (11, ((1, ("a5", "b2", "c3")), (-1, ("c1", "a4", "b6"))), 1),
    (12, ((1, ("a5", "c2")), (1, ("c1", "a6"))), 1),
    (13, ((1, ("a6", "b2", "c4")), (-1, ("c1", "a3", "b5"))), 1),
    (14, ((1, ("a6", "b2", "c3")), (-1, ("c1", "a4", "b5"))), 1),
    (15, ((1, ("a6", "c2")), (1, ("c1", "a5"))), 1),
))


def _scalar_digit_bound(rows: tuple) -> int:
    """Most digits a number of an assignment scalar may have so that no
    residual of the rows has an int of more than 4300 digits, the most
    Python prints by default.

    A scalar p/q + r/s sqrt3 whose numbers have at most D digits is a
    QSqrt3 whose three ints are below M = 10^(2D).  A product's ints
    are below 4 times the product of its factors' bounds (its rational
    part is a1*a2 + 3*b1*b2), so a monomial of degree k and coefficient
    c has ints below |c| * 4^(k-1) * M^k.  Over a common denominator,
    t such monomials minus the target T have ints below
    (t * |c| * 4^(k-1) + |T|) * M^(kt), and lowest terms only shrink
    them.
    """
    k = max(len(mono) for _, terms, _ in rows for _, mono in terms)
    t = max(len(terms) for _, terms, _ in rows)
    c = max(abs(coeff) for _, terms, _ in rows for coeff, _ in terms)
    target = max(abs(target) for _, _, target in rows)
    return (4300 - len(str(t * c * 4 ** (k - 1) + target))) // (2 * k * t)


#: 358: the rows have degree 3, two terms, coefficients +-1 and target 1.
MAX_SCALAR_DIGITS = _scalar_digit_bound(_TABLE)


# Solver-input source, verbatim (one line per equation, rows (2)-(15)).
# Line 8 -- row (9) -- ends in the transcribed "== 1 == 1".
_SOLVER_LINES: tuple[str, ...] = (
    "b[6] c[4] - b[5] c[3] == 1",
    "b[6] c[3] - b[5] c[4] == 1",
    "-a[3] b[2] + b[1] a[4] == 1",
    "-a[3] b[6] c[2] - b[1] a[5] c[4] == 1",
    "a[3] b[5] c[2] + b[1] a[6] c[4] == 1",
    "-a[4] b[2] + b[1] a[3] == 1",
    "-a[4] b[6] c[2] - b[1] a[5] c[3] == 1",
    "a[4] b[5] c[2] + b[1] a[6] c[3] == 1 == 1",
    "a[5] b[2] c[4] - c[1] a[3] b[6] == 1",
    "a[5] b[2] c[3] - c[1] a[4] b[6] == 1",
    "a[5] c[2] + c[1] a[6] == 1",
    "a[6] b[2] c[4] - c[1] a[3] b[5] == 1",
    "a[6] b[2] c[3] - c[1] a[4] b[5] == 1",
    "a[6] c[2] + c[1] a[5] == 1",
)


def _parse_solver_line(line: str) -> tuple[tuple, int, bool]:
    """Parse 'a[3] b[6] c[2] - ... == 1' into normalized terms.  Returns
    (terms, target, extra_equality_flag)."""
    pieces = line.split("==")
    lhs = pieces[0]
    targets = [p.strip() for p in pieces[1:]]
    extra = len(targets) > 1
    target = int(targets[0])
    terms = []
    for sign, body in re.findall(r"([+-]?)\s*((?:[abc]\[\d\]\s*)+)", lhs):
        mono = tuple(sorted(m.replace("[", "").replace("]", "")
                            for m in re.findall(r"[abc]\[\d\]", body)))
        terms.append((-1 if sign == "-" else 1, mono))
    return _normalize_terms(terms), target, extra


def _normalize_terms(terms: Iterable[tuple]) -> tuple:
    acc: dict = {}
    for c, mono in terms:
        acc[tuple(sorted(mono))] = acc.get(tuple(sorted(mono)), 0) + c
    return tuple(sorted((c, m) for m, c in acc.items() if c))


def transcription_check() -> dict:
    """Row-by-row comparison of the two source transcriptions."""
    rows = []
    for (label, terms, target), line in zip(_TABLE[1:], _SOLVER_LINES):
        solver_terms, solver_target, extra = _parse_solver_line(line)
        rows.append({
            "label": label,
            "agrees": _normalize_terms(terms) == solver_terms and target == solver_target,
            "solver_line_typo": extra,
        })
    return {
        "rows": rows,
        "all_agree": all(r["agrees"] for r in rows),
        "flagged_rows": [r["label"] for r in rows if r["solver_line_typo"]],
    }


@functools.cache
def obstruction_system() -> tuple:
    """The 15 rows in label order.

    The first call in a process cross-checks the two source
    transcriptions and raises on drift between them."""
    check = transcription_check()
    if not check["all_agree"]:
        raise AssertionError(f"transcription drift between sources: {check}")
    return _TABLE


def evaluate(rows: Iterable[Equation], assignment: dict) -> dict:
    """Exact residual (value - target) of each row, keyed by label.

    The rows may be the whole system or any selection of it.  The
    assignment maps variables to ints, Fractions or QSqrt3s and must
    give every variable the rows read; a missing one raises
    ValueError naming them all, in VARIABLES order."""
    rows = tuple(rows)
    env = {v: x if isinstance(x, QSqrt3) else QSqrt3(x) for v, x in assignment.items()}
    try:
        return {row.label: _residual(row, env) for row in rows}
    except KeyError:
        used = {v for row in rows for _, mono in row.terms for v in mono}
        missing = [v for v in VARIABLES if v in used and v not in env]
        raise ValueError(f"assignment missing variables: {missing}") from None


# ---------------------------------------------------------------------------
# parametric solution families over Q(sqrt 3), (b1, b5) -> point, as
# printed in the source with s = sqrt 3.  Every denominator is a nonzero
# constant times b1 or b5: the pole set is exactly {b1 = 0} u {b5 = 0}.


def _family_1(b1, b5) -> dict:
    """The rational family: c3 = c4 = -1/(4 b5), c1 = 0."""
    return {
        "a3": -1 / b1, "a4": -1 / b1,
        "a5": -2 * b5 / b1, "a6": -2 * b5 / b1,
        "b1": b1, "b2": 2 * b1,
        "b5": b5, "b6": -3 * b5,
        "c1": QSqrt3(0), "c2": -b1 / (2 * b5),
        "c3": -1 / (4 * b5), "c4": -1 / (4 * b5),
    }


def _family_2(b1, b5) -> dict:
    """a3 = -s/(2 b1); irrational in every coordinate that is forced
    away from Q."""
    s = SQRT3
    return {
        "a3": -s / (2 * b1), "a4": -s / (2 * b1),
        "a5": QSqrt3(0), "a6": 3 * (-5 * b5 - 3 * s * b5) / (2 * (3 * b1 + 2 * s * b1)),
        "b1": b1, "b2": (3 * b1 + 2 * s * b1) / 3,
        "b5": b5, "b6": -b5 - s * b5,
        "c1": -2 * (3 * b1 + 2 * s * b1) / (3 * (5 + 3 * s) * b5),
        "c2": -2 * (3 * b1 + 2 * s * b1) / (3 * (5 + 3 * s) * b5),
        "c3": (-1 - s) / ((5 + 3 * s) * b5), "c4": (-1 - s) / ((5 + 3 * s) * b5),
    }


def _family_3(b1, b5) -> dict:
    """The Galois conjugate shape, a3 = +s/(2 b1)."""
    s = SQRT3
    return {
        "a3": s / (2 * b1), "a4": s / (2 * b1),
        "a5": QSqrt3(0), "a6": 3 * (5 * b5 - 3 * s * b5) / (2 * (-3 * b1 + 2 * s * b1)),
        "b1": b1, "b2": (3 * b1 - 2 * s * b1) / 3,
        "b5": b5, "b6": -b5 + s * b5,
        "c1": -2 * (-3 * b1 + 2 * s * b1) / (3 * (-5 + 3 * s) * b5),
        "c2": -2 * (-3 + 2 * s) * b1 / (3 * (-5 + 3 * s) * b5),
        "c3": (1 - s) / ((-5 + 3 * s) * b5), "c4": (1 - s) / ((-5 + 3 * s) * b5),
    }


FAMILIES: dict = {1: _family_1, 2: _family_2, 3: _family_3}

#: The values of b1 and of b5 on the families' grid {1..13}^2.
GRID = range(1, 14)


def family_assignment(family_id: int, b1, b5) -> dict:
    """The point of family `family_id` at parameters (b1, b5); raises
    PoleError on the pole set b1 = 0 or b5 = 0."""
    b1 = b1 if isinstance(b1, QSqrt3) else QSqrt3(b1)
    b5 = b5 if isinstance(b5, QSqrt3) else QSqrt3(b5)
    if b1.is_zero() or b5.is_zero():
        raise PoleError("family evaluated on its pole set (b1=0 or b5=0)")
    return FAMILIES[family_id](b1, b5)


def verify_family(family_id: int) -> dict:
    """Evaluate a family exactly at every point (b1, b5) of GRID^2,
    the 13 x 13 grid {1..13}^2.

    After clearing denominators, each residual numerator is a
    polynomial of degree at most 12 in each of b1 and b5, so vanishing
    on the grid forces it to be zero (Alon, "Combinatorial
    Nullstellensatz", 1999): the grid pass is a proof of the family,
    not a spot check.  Family 1's report also holds its closed-form
    facts c3 = c4, c3 * b5 = -1/4 and c1 = 0, checked at the same points.
    """
    if family_id not in FAMILIES:
        raise ValueError(f"family id must be 1..3, got {family_id}")
    system = obstruction_system()
    points = [(b1, b5, family_assignment(family_id, b1, b5))
              for b1 in GRID for b5 in GRID]
    failures = []
    for b1, b5, env in points:
        res = evaluate(system, env)
        bad = {k: str(v) for k, v in res.items() if not v.is_zero()}
        if bad:
            failures.append({"point": (str(b1), str(b5)), "residuals": bad})
    report = {
        "family": family_id,
        "grid_points": len(points),
        "all_residuals_zero": not failures,
        "failures": failures,
    }
    if family_id == 1:
        report["closed_form_facts"] = {
            "c3_equals_c4": all(env["c3"] == env["c4"] for _, _, env in points),
            "c3_equals_minus_quarter_over_b5": all(
                4 * b5 * env["c3"] == -1 for _, b5, env in points
            ),
            "c1_is_zero": all(env["c1"].is_zero() for _, _, env in points),
        }
    return report


# ---------------------------------------------------------------------------
# bounded integer search


def integer_search(
    bound: int,
    labels: Iterable[int] | None = None,
) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    """All integer solutions of the chosen rows with |v| <= bound.

    The search is exact and factored in four ways:

    * Rows that share no variable, even through other rows, form
      independent components; each is searched on its own and the
      results are joined by Cartesian product.
    * Every row is multilinear, so it is linear in its last variable
      y: a*y + r = target.  When that variable's turn comes, y is
      solved as (target - r) / a if that is an integer within the
      bound, and the branch is pruned otherwise; with a == 0 the branch
      enumerates y when r == target and is pruned when not.  Every
      other row ending at the same variable is checked the moment it
      is assigned.
    * Where two rows end at y, and no monomial of the first two holds
      both y and the variable x before it in the same block, as in
      each coupled pair, those rows are a 2 x 2 linear system in
      (x, y).  Under each head of the
      variables before x it is solved exactly: divmod by the
      determinant, pruned unless both quotients are exact and within
      the bound.  A head with determinant 0 falls back to enumerating
      x and solving y from the first row.  So only variables that end
      no row, and are not solved with the next one, are enumerated: a
      coupled pair alone takes (2B + 1)^2 heads, not (2B + 1)^3.
    * Variables are taken in an order planned from the rows (see
      _search_order), in blocks that end where rows end.  A block whose
      rows read only its own variables -- {(4),(7)} and {(12),(15)} in
      the full system -- is solved once, and its local solutions are
      reused under every solution of the blocks before it.
    * Before any of that, each component is solved mod 2, then mod 4
      (see _solvable_mod): every integer solution reduces to a vector
      of residues that satisfies every row mod m, so a component with
      none has no solution at any bound and is not enumerated.  The
      full system has none mod 2, so its search takes the same few
      hundred nodes at every bound; a core such as rows
      2,4,5,6,8,9,10,11,13,14 has parity solutions but none mod 4.

    Returns (variables in canonical order, sorted solution tuples).
    Unknown row labels raise ValueError, and so do more than MAX_HEADS
    heads in all the components' plans, before any component runs, and
    more than MAX_HEADS solutions, before the join.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    system = obstruction_system()
    if labels is not None:
        labels = set(labels)
        unknown = labels - {eq.label for eq in system}
        if unknown:
            raise ValueError(f"unknown row labels {sorted(unknown)}; rows are 1-{len(system)}")
    rows = [eq for eq in system if eq.terms and (labels is None or eq.label in labels)]
    plans = [_search_component(component) for component in _components(rows)]
    frees = [free for _, free, solve in plans if solve]  # refuted: no heads
    heads = sum((2 * bound + 1) ** free for free in frees)
    if heads > MAX_HEADS:
        largest = int(MAX_HEADS ** (1 / max(frees)) / 2) + 1
        while sum((2 * largest + 1) ** free for free in frees) > MAX_HEADS:
            largest -= 1
        raise ValueError(
            f"rows {[eq.label for eq in rows]} with |v| <= {bound} take {heads} search heads, "
            f"over the limit of {MAX_HEADS}; the largest bound within it is {largest}"
        )
    parts = [solve(bound) if solve else [] for _, _, solve in plans]
    count = math.prod(map(len, parts))
    if count > MAX_HEADS:
        raise ValueError(f"{count} solutions with |v| <= {bound} exceed the limit of {MAX_HEADS}")
    order = [v for names, _, _ in plans for v in names]
    canon = tuple(v for v in VARIABLES if v in order)
    # every row holds two or more variables, so itemgetter returns a
    # tuple; with no rows there is nothing to pick from the one empty join
    pick = operator.itemgetter(*map(order.index, canon)) if canon else tuple
    return canon, sorted(pick(sum(combo, ())) for combo in itertools.product(*parts))


def _variables_of(eq: Equation) -> set:
    return {v for (_, mono) in eq.terms for v in mono}


def _components(rows: list) -> list[list]:
    """Split rows into the connected components of 'shares a variable',
    each component keeping label order."""
    groups: list[set] = []
    for eq in rows:
        names = _variables_of(eq)
        for other in [g for g in groups if g & names]:
            groups.remove(other)
            names |= other
        groups.append(names)
    return [[eq for eq in rows if _variables_of(eq) & names] for names in groups]


def _value(terms, val) -> int:
    total = 0
    for c, idxs in terms:
        for i in idxs:
            c *= val[i]
        total += c
    return total


def _search_order(rows: list) -> tuple[tuple[str, ...], list]:
    """The search plan of a component: its variables and its rows in
    search order.  Rows with equal variable sets form one group, as each
    coupled pair (2),(3), (4),(7) and (12),(15) does.  Until no group is
    left, the group adding the fewest new variables goes next (ties:
    more rows first, then sorted names) and appends its new variables
    in sorted order, so rows close as early as they can."""
    groups: dict = {}
    for eq in rows:
        groups.setdefault(frozenset(_variables_of(eq)), []).append(eq)
    order, plan = [], []
    while groups:
        seen = set(order)
        names = min(groups, key=lambda s: (len(s - seen), -len(groups[s]), sorted(s)))
        order += sorted(names - seen)
        plan += groups.pop(names)
    return tuple(order), plan


def _solvable_mod(order, ending, m: int) -> bool:
    """Whether the rows of a component plan have a common solution mod m:
    a depth-first walk over {0, ..., m - 1} along `order` that checks
    each row of `ending` (depth -> [(terms over depths, target)]) as it
    closes."""
    val = [0] * len(order)

    def walk(d: int) -> bool:
        if d == len(order):
            return True
        for residue in range(m):
            val[d] = residue
            if all((_value(terms, val) - t) % m == 0 for terms, t in ending.get(d, ())):
                if walk(d + 1):
                    return True
        return False

    return walk(0)


def _split(terms, i) -> tuple[list, list]:
    """(coefficient of depth i, the other terms) of terms linear in depth i."""
    return ([(c, tuple(j for j in idxs if j != i)) for c, idxs in terms if i in idxs],
            [(c, idxs) for c, idxs in terms if i not in idxs])


def _search_component(rows: list) -> tuple[tuple[str, ...], int, Callable | None]:
    """The plan of one connected component: its variables in
    _search_order, how many of them it enumerates rather than solves,
    and a function of the bound listing its solutions (None if the rows
    have none mod 2 or mod 4).  A block ends at every depth where a row
    ends, and one product over the domain enumerates its variables
    before the last two, x and y.  Where its first two closing rows are
    jointly linear in x and y, they solve both by Cramer's rule in
    integers under each head with a nonzero determinant.  Under any other head,
    and in every other block, the product runs over x too and the
    first closing row solves y.  The other closing rows check."""
    order, plan = _search_order(rows)
    depth_of = {v: i for i, v in enumerate(order)}
    ending: dict = {}  # depth -> [(terms over depths, target)] in plan order
    for eq in plan:
        terms = [(c, tuple(depth_of[v] for v in m)) for (c, m) in eq.terms]
        last = max(i for _, idxs in terms for i in idxs)
        ending.setdefault(last, []).append((terms, eq.target))
    # every integer solution reduces to one mod m; mod 4 alone would
    # do, but the mod-2 walk is the cheaper one and refutes the full
    # system (under 1 ms against about 20 ms)
    if not (_solvable_mod(order, ending, 2) and _solvable_mod(order, ending, 4)):
        return order, 0, None

    blocks = []  # (lo, last, first row split at last, check rows, pair or None)
    lo = 0
    for last, closing in sorted(ending.items()):
        (terms, target), *checks = closing
        pair = None
        if checks and lo < last and not any(
                last - 1 in idxs and last in idxs
                for row_terms, _ in closing[:2] for _, idxs in row_terms):
            pair = []  # per row: (x terms, y terms, other terms, target)
            for row_terms, row_target in closing[:2]:
                y_terms, rest = _split(row_terms, last)
                x_terms, other = _split(rest, last - 1)
                pair.append((x_terms, y_terms, other, row_target))
        blocks.append((lo, last, (*_split(terms, last), target), checks, pair))
        lo = last + 1
    free = sum(last - lo - (pair is not None) for lo, last, _, _, pair in blocks)
    return order, free, functools.partial(_enumerate, order, ending, blocks)


def _enumerate(order, ending, blocks, bound: int) -> list[tuple[int, ...]]:
    """The solutions with |v| <= bound of a component's plan, in its order."""
    domain = range(-bound, bound + 1)
    val = [0] * len(order)

    def keep(found, lo, last, checks):
        """Append val[lo..last] if every check row holds there."""
        for terms, t in checks:
            if _value(terms, val) != t:
                return
        found.append(tuple(val[lo:last + 1]))

    def solve_last(found, lo, last, first, checks):
        """Solve depth `last` from the first closing row under val."""
        a_terms, r_terms, target = first
        a = _value(a_terms, val)
        rest = target - _value(r_terms, val)
        if a:
            y, remainder = divmod(rest, a)
            candidates = (y,) if not remainder and -bound <= y <= bound else ()
        else:
            candidates = domain if rest == 0 else ()
        for y in candidates:
            val[last] = y
            keep(found, lo, last, checks)

    def block_solutions(lo, last, first, checks, pair) -> list[tuple[int, ...]]:
        """Assignments of depths lo..last under the values already in val."""
        found = []
        if pair is None:
            for head in itertools.product(domain, repeat=last - lo):
                val[lo:last] = head
                solve_last(found, lo, last, first, checks)
            return found
        (ax1, ay1, r1, t1), (ax2, ay2, r2, t2) = pair
        for head in itertools.product(domain, repeat=last - 1 - lo):
            val[lo:last - 1] = head
            a1, b1, a2, b2 = _value(ax1, val), _value(ay1, val), _value(ax2, val), _value(ay2, val)
            det = a1 * b2 - a2 * b1
            if not det:
                for x in domain:
                    val[last - 1] = x
                    solve_last(found, lo, last, first, checks)
                continue
            e1, e2 = t1 - _value(r1, val), t2 - _value(r2, val)
            x, rx = divmod(e1 * b2 - e2 * b1, det)
            y, ry = divmod(a1 * e2 - a2 * e1, det)
            if not (rx or ry) and -bound <= x <= bound and -bound <= y <= bound:
                val[last - 1], val[last] = x, y
                keep(found, lo, last, checks[1:])
        return found

    # a block whose rows read only its own variables is solved once
    fixed = {k: block_solutions(*b) for k, b in enumerate(blocks)
             if all(i >= b[0] for terms, _ in ending[b[1]] for _, idxs in terms for i in idxs)}
    found = []

    def walk(k: int):
        if k == len(blocks):
            found.append(tuple(val))
            return
        lo, last = blocks[k][:2]
        for sol in fixed[k] if k in fixed else block_solutions(*blocks[k]):
            val[lo:last + 1] = sol
            walk(k + 1)

    walk(0)
    return found
