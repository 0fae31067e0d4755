"""Independent oracles for the Lie certificates and the Magnus engine.

The brackets are expanded with sympy's noncommutative symbols and the
ranks and kernels come from sympy's exact matrices, so these checks
trust neither the engine's tensor expansion nor its rational
elimination.
Only the table data (the generators and the printed rewriting rows)
is taken from commcalc.  Words are expanded the same way, letter by
letter, and compared with `magnus.expand`.
"""

import math
import random
from itertools import permutations

import pytest

from commcalc.lie import INDICES, LEMMA_GENERATORS, PRINTED_RHS
from commcalc.magnus import VariableSet, expand
from commcalc.words import Alphabet, GroupWord

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

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


def test_printed_rows_rank_14_with_all_ones_left_kernel():
    exprs = [
        sympy.expand_mul(sympy.Add(*(c * right_normed_bracket(p) for c, p in PRINTED_RHS[k])))
        for k in range(1, 16)
    ]
    m = matrix(exprs, INDICES)
    assert m.shape == (15, 120)
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
    assert matrix([bracket(t) for t in LEMMA_GENERATORS], INDICES).rank() == 15


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
        want = sympy_magnus([(g.index + 1, s) for g, s in letters])
        got = expand(GroupWord(tuple(letters)), VariableSet.from_generators(gens))
        assert got.terms == want
