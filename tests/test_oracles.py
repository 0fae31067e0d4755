"""Independent oracles for the Lie certificates, the Magnus engine and
the Q(sqrt 3) families.

The brackets are expanded with sympy's noncommutative symbols and the
ranks and kernels come from sympy's exact matrices, so these checks
trust neither the engine's tensor expansion nor its integer
elimination, which is also compared with sympy on random matrices.
Only the table data (the generators and the printed rewriting rows)
is taken from commcalc.  Words are expanded the same way, letter by
letter, and compared with `magnus.expand`.  The families are
transcribed here again as sympy expressions in b1, b5 and sqrt(3); the
system's rows are simplified to zero on them symbolically, and the
engine's points are compared with them without trusting `QSqrt3`.
`QSqrt3` arithmetic itself is compared with sympy's radsimp on
generated operands, and so are the residuals `evaluate` gives at
generated points that are not solutions, with numbers of up to
`MAX_SCALAR_DIGITS` digits (hypothesis when installed, else a seeded
loop).
"""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from family_reference import family_assignment

from commcalc.cli import parse_scalar
from commcalc.lie import INDICES, LEMMA_GENERATORS, PRINTED_RHS, RationalMatrix
from commcalc.magnus import VariableSet, expand
from commcalc.obstruction import (
    FAMILIES,
    MAX_SCALAR_DIGITS,
    VARIABLES,
    QSqrt3,
    evaluate,
    obstruction_system,
)
from commcalc.words import Alphabet, GroupWord

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # a seeded loop stands in for the property test
    hypothesis = None

X = {i: sympy.Symbol(f"x{i}", commutative=False) for i in range(2, 7)}


def bracket(t):
    if isinstance(t, int):
        return X[t]
    a, b = bracket(t[0]), bracket(t[1])
    return sympy.expand_mul(a * b - b * a)


def right_normed_bracket(perm):
    expr = X[perm[-1]]
    for i in reversed(perm[:-1]):
        expr = sympy.expand_mul(X[i] * expr - expr * X[i])
    return expr


def matrix(exprs, indices):
    """Rows: the expressions' coefficients on the permutation monomials
    over `indices`, in lex order."""
    cols = sorted(permutations(indices))
    rows = []
    for expr in exprs:
        coeffs = {
            tuple(int(s.name[1:]) for s in mono.args): c
            for mono, c in expr.as_coefficients_dict().items()
        }
        assert set(coeffs) <= set(cols)
        rows.append([coeffs.get(c, 0) for c in cols])
    return sympy.Matrix(rows)


def coordinates(rows):
    """Rows: coefficients on the 24 basis commutators [i1,[i2,[i3,[i4,6]]]],
    in lex order of their leaf sequences, taken as given."""
    basis = sorted(p for p in permutations(INDICES) if p[-1] == 6)
    return sympy.Matrix([[sum(c for c, q in row if q == p) for p in basis] for row in rows])


def test_printed_rows_rank_14_with_all_ones_left_kernel():
    exprs = [
        sympy.expand_mul(sympy.Add(*(c * right_normed_bracket(p) for c, p in PRINTED_RHS[k])))
        for k in range(1, 16)
    ]
    # on the 120 tensor columns, and on the 24 coordinates the engine ranks
    for m, width in ((matrix(exprs, INDICES), 120),
                     (coordinates(PRINTED_RHS[k] for k in range(1, 16)), 24)):
        assert m.shape == (15, width)
        assert m.rank() == 14
        kernel = m.T.nullspace()
        assert len(kernel) == 1
        assert list(kernel[0] / kernel[0][0]) == [1] * 15


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_expansion_matrix_rank_is_factorial(d):
    indices = tuple(range(2, 2 + d))
    m = matrix([right_normed_bracket(p) for p in permutations(indices)], indices)
    assert m.shape == (math.factorial(d), math.factorial(d))
    # DomainMatrix ranks the 120 x 120 case exactly over ZZ in ~30 ms,
    # where Matrix.rank takes ~0.6 s
    assert DomainMatrix.from_Matrix(m).rank() == math.factorial(d - 1)


def test_direct_label_expansions_have_rank_15():
    m = matrix([bracket(t) for t in LEMMA_GENERATORS], INDICES)
    assert m.rank() == 15
    # the labels' 24 coordinates: their coefficients on the monomials ending in 6
    ending_in_6 = [j for j, p in enumerate(sorted(permutations(INDICES))) if p[-1] == 6]
    assert m.extract(list(range(15)), ending_in_6).rank() == 15


def _integer_matrices(rng):
    """Small integer matrices, wide and tall: sparse enough that pivots
    need row swaps, some with a zero row, a zero column or a row that
    is a multiple of another."""
    cases = [[[0]], [[0, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0, 2], [0, 3, 1], [5, 1, 1]]]
    for _ in range(200):
        n, m = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.3:
            rows[rng.randrange(n)] = [0] * m
        if rng.random() < 0.3:
            col = rng.randrange(m)
            for row in rows:
                row[col] = 0
        if n > 1 and rng.random() < 0.3:
            rows[rng.randrange(n)] = [-2 * x for x in rows[rng.randrange(n)]]
        cases.append(rows)
    return cases


def test_integer_elimination_matches_sympy():
    for rows in _integer_matrices(random.Random(1968)):
        m = sympy.Matrix(rows)
        ours = RationalMatrix(rows)
        assert ours.rank() == m.rank(), rows
        kernel = ours.left_kernel()
        nullspace = m.T.nullspace()
        assert len(kernel) == len(nullspace), rows
        if not kernel:
            continue
        k = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v] for v in kernel])
        assert all(next(x for x in v if x) == 1 for v in kernel)
        assert (k * m).is_zero_matrix
        # same span: the reduced row-echelon forms agree
        assert k.rref()[0] == sympy.Matrix.hstack(*nullspace).T.rref()[0], rows


# --- Magnus expansion ------------------------------------------------------
#
# Each letter is 1 + x or 1 - x (the inverse series 1 - x + x^2 - ...
# truncated, since x^2 dies), multiplied out by sympy on the raw,
# unreduced letters; after every factor the monomials that repeat an
# index are dropped.

Y = {i: sympy.Symbol(f"x{i}", commutative=False) for i in range(1, 7)}


def _indices(mono) -> tuple:
    out = []
    for factor in mono.args if isinstance(mono, sympy.Mul) else (mono,):
        if factor != 1:
            base, exp = factor.as_base_exp()
            out += [int(base.name[1:])] * int(exp)
    return tuple(out)


def sympy_magnus(letters) -> dict:
    p = sympy.Integer(1)
    for i, sign in letters:
        p = sympy.expand(p * (1 + sign * Y[i]))
        p = sympy.Add(*(
            c * mono for mono, c in p.as_coefficients_dict().items()
            if len(set(_indices(mono))) == len(_indices(mono))
        ))
    return {_indices(mono): int(c) for mono, c in p.as_coefficients_dict().items() if c}


def test_magnus_expansion_matches_sympy_on_random_words():
    rng = random.Random(2031)
    for trial in range(24):
        n = 3 + trial % 4
        alphabet = Alphabet([f"m{i}" for i in range(1, n + 1)])
        gens = alphabet.generators
        letters = []
        for _ in range(rng.randrange(2, 7)):  # runs of up to five equal letters
            letters += [(rng.choice(gens), rng.choice((1, -1)))] * rng.randrange(1, 6)
        if trial % 3 == 0:  # a word that cancels to the identity
            letters += [(g, -s) for g, s in reversed(letters)]
        elif trial % 3 == 1:  # a commutator of two pieces
            half = rng.randrange(len(letters) + 1)
            u, v = letters[:half], letters[half:]
            inv = lambda w: [(g, -s) for g, s in reversed(w)]  # noqa: E731
            letters = inv(u) + inv(v) + u + v
        position = {g: i + 1 for i, g in enumerate(gens)}
        want = sympy_magnus([(position[g], s) for g, s in letters])
        got = expand(GroupWord(tuple(letters)), VariableSet.from_generators(gens))
        assert got.terms == want


# --- Q(sqrt 3) families ----------------------------------------------------
#
# The source's closed forms, with s = sqrt(3), transcribed independently
# of obstruction.py.

B1, B5 = sympy.symbols("b1 b5")
S = sympy.sqrt(3)

SYMPY_FAMILIES = {
    1: {
        "a3": -1 / B1, "a4": -1 / B1, "a5": -2 * B5 / B1, "a6": -2 * B5 / B1,
        "b1": B1, "b2": 2 * B1, "b5": B5, "b6": -3 * B5,
        "c1": sympy.Integer(0), "c2": -B1 / (2 * B5),
        "c3": -1 / (4 * B5), "c4": -1 / (4 * B5),
    },
    2: {
        "a3": -S / (2 * B1), "a4": -S / (2 * B1), "a5": sympy.Integer(0),
        "a6": 3 * (-5 * B5 - 3 * S * B5) / (2 * (3 * B1 + 2 * S * B1)),
        "b1": B1, "b2": sympy.Rational(1, 3) * (3 * B1 + 2 * S * B1),
        "b5": B5, "b6": -B5 - S * B5,
        "c1": -2 * (3 * B1 + 2 * S * B1) / (3 * (5 + 3 * S) * B5),
        "c2": -2 * (3 * B1 + 2 * S * B1) / (3 * (5 + 3 * S) * B5),
        "c3": (-1 - S) / ((5 + 3 * S) * B5), "c4": (-1 - S) / ((5 + 3 * S) * B5),
    },
    3: {
        "a3": S / (2 * B1), "a4": S / (2 * B1), "a5": sympy.Integer(0),
        "a6": 3 * (5 * B5 - 3 * S * B5) / (2 * (-3 * B1 + 2 * S * B1)),
        "b1": B1, "b2": sympy.Rational(1, 3) * (3 * B1 - 2 * S * B1),
        "b5": B5, "b6": -B5 + S * B5,
        "c1": -2 * (-3 * B1 + 2 * S * B1) / (3 * (-5 + 3 * S) * B5),
        "c2": -2 * (-3 + 2 * S) * B1 / (3 * (-5 + 3 * S) * B5),
        "c3": (1 - S) / ((-5 + 3 * S) * B5), "c4": (1 - S) / ((-5 + 3 * S) * B5),
    },
}


def _as_fractions(value) -> tuple:
    """(a, b) with value = a + b*sqrt(3), both rational."""
    value = sympy.expand(sympy.radsimp(value))
    b = value.coeff(S)
    a = sympy.expand(value - b * S)
    assert a.is_Rational and b.is_Rational, value
    return Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))


@pytest.mark.parametrize("family_id", [1, 2, 3])
def test_family_residuals_simplify_to_zero(family_id):
    point = SYMPY_FAMILIES[family_id]
    assert set(point) == set(VARIABLES) and set(FAMILIES) == {1, 2, 3}
    for eq in obstruction_system():
        value = sum(c * sympy.Mul(*(point[v] for v in mono)) for c, mono in eq.terms)
        assert sympy.simplify(value - eq.target) == 0, (family_id, eq.label)


@pytest.mark.parametrize("family_id", [1, 2, 3])
def test_family_points_match_sympy(family_id):
    point = SYMPY_FAMILIES[family_id]
    for b1, b5 in [(1, 1), (2, 7), (-3, 5), (Fraction(-2, 3), Fraction(-5, 4))]:
        got = family_assignment(family_id, b1, b5)
        at = {B1: sympy.Rational(str(b1)), B5: sympy.Rational(str(b5))}
        for v in VARIABLES:
            assert (got[v].a, got[v].b) == _as_fractions(point[v].subs(at)), (v, b1, b5)


# --- QSqrt3 arithmetic against sympy ------------------------------------------


def _rational(f: Fraction):
    return sympy.Rational(f.numerator, f.denominator)


def check_qsqrt3_against_sympy(p, q, n, f):
    """x = p[0] + p[1] sqrt3 and y = q[0] + q[1] sqrt3 (Fraction parts),
    an int n and a Fraction f: every result of + - * / and negation,
    with int and Fraction scalars on either side, equals sympy's radsimp
    of the same expression, is held in lowest terms (d > 0,
    gcd(a, b, d) = 1), and survives parse_scalar(str(...))."""
    x, y = QSqrt3(*p), QSqrt3(*q)
    sx = _rational(p[0]) + _rational(p[1]) * S
    sy = _rational(q[0]) + _rational(q[1]) * S
    sn, sf = sympy.Integer(n), _rational(f)
    cases = [
        (x, sx), (x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy), (-x, -sx),
        (x + n, sx + sn), (n - x, sn - sx), (n * x, sn * sx), (x * f, sx * sf),
        (f + y, sf + sy), (y - f, sy - sf),
    ]
    if q[0] or q[1]:
        cases += [(x / y, sx / sy), (n / y, sn / sy), (f / y, sf / sy)]
    if n:
        cases.append((x / n, sx / sn))
    if f:
        cases.append((y / f, sy / sf))
    for got, want in cases:
        assert (got.a, got.b) == _as_fractions(want), (p, q, n, f, want)
        assert got._d > 0 and math.gcd(got._a, got._b, got._d) == 1, repr(got)
        assert parse_scalar(str(got)) == got, str(got)


if hypothesis is None:

    def test_qsqrt3_matches_sympy():
        rng = random.Random(1729)

        def frac():
            return Fraction(rng.randint(-60, 60), rng.randint(1, 40))

        for _ in range(30):
            check_qsqrt3_against_sympy(
                (frac(), frac()), (frac(), frac()), rng.randint(-99, 99), frac()
            )

else:
    _fractions = st.fractions(min_value=-60, max_value=60, max_denominator=40)

    # no explain phase: it traces every line sympy runs, which made one
    # failing run take 50-115 s instead of about 3 s
    @hypothesis.settings(
        max_examples=30,
        deadline=None,
        database=None,
        phases=[p for p in hypothesis.Phase if p is not hypothesis.Phase.explain],
    )
    @hypothesis.given(
        st.tuples(_fractions, _fractions),
        st.tuples(_fractions, _fractions),
        st.integers(-99, 99),
        _fractions,
    )
    def test_qsqrt3_matches_sympy(p, q, n, f):
        check_qsqrt3_against_sympy(p, q, n, f)


# --- residuals against sympy --------------------------------------------------


def _sympy_value(x):
    """x (int, Fraction or QSqrt3) as a sympy number."""
    if isinstance(x, QSqrt3):
        return _rational(x.a) + _rational(x.b) * S
    return _rational(Fraction(x))


def check_residuals_against_sympy(assignment: dict):
    """Every residual evaluate gives at the assignment equals sympy's
    exact value of its row there and is held in lowest terms."""
    at = {v: _sympy_value(x) for v, x in assignment.items()}
    residuals = evaluate(obstruction_system(), assignment)
    for eq in obstruction_system():
        value = sympy.Add(*(c * sympy.Mul(*(at[v] for v in mono)) for c, mono in eq.terms))
        got = residuals[eq.label]
        assert (got.a, got.b) == _as_fractions(value - eq.target), (eq.label, assignment)
        assert got._d > 0 and math.gcd(got._a, got._b, got._d) == 1, (eq.label, repr(got))


#: The largest number a scalar of an admitted assignment may hold.
_BIG = 10**MAX_SCALAR_DIGITS - 1

if hypothesis is None:

    def test_residuals_match_sympy():
        rng = random.Random(4913)

        def number(digits):
            return rng.randint(-(10**digits - 1), 10**digits - 1)

        def scalar():
            digits = rng.choice([1, 3, 40, MAX_SCALAR_DIGITS])
            kind = rng.randrange(3)
            if kind == 0:
                return number(digits)
            frac = [Fraction(number(digits), abs(number(digits)) or 1) for _ in range(2)]
            return frac[0] if kind == 1 else QSqrt3(*frac)

        for _ in range(20):
            check_residuals_against_sympy({v: scalar() for v in VARIABLES})

else:
    _numbers = st.one_of(st.integers(-9, 9), st.integers(-_BIG, _BIG))
    _big_fractions = st.builds(Fraction, _numbers, st.integers(1, _BIG) | st.integers(1, 9))
    _scalars = st.one_of(_numbers, _big_fractions, st.builds(QSqrt3, _big_fractions, _big_fractions))

    @hypothesis.settings(
        max_examples=20,
        deadline=None,
        database=None,
        phases=[p for p in hypothesis.Phase if p is not hypothesis.Phase.explain],
    )
    @hypothesis.given(st.fixed_dictionaries({v: _scalars for v in VARIABLES}))
    def test_residuals_match_sympy(assignment):
        check_residuals_against_sympy(assignment)
