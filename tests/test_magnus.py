"""Expansion in the squarefree ring: values, laws, rendering."""

import random
import time

import pytest

from commcalc.magnus import (
    MagnusPoly,
    NonUnitError,
    VariableSet,
    expand,
    invert,
    is_trivial_word,
    lcs_degree,
)
from commcalc.words import Alphabet, GroupWord, UnmappedGeneratorError, commutator

ABC = Alphabet(["g1", "g2", "g3"])
VARS = VariableSet.from_generators(ABC.generators)
G1, G2, G3 = (GroupWord.generator(g) for g in ABC.generators)
SIX = Alphabet([f"g{i}" for i in range(1, 7)])


def test_single_letter_expansions():
    assert expand(G1, VARS).terms == {(): 1, (1,): 1}
    assert expand(G1.inverse(), VARS).terms == {(): 1, (1,): -1}


def test_inverse_letter_is_one_minus_x():
    # (1+x)(1-x) = 1 because x^2 dies in the squarefree quotient
    assert expand(G1 * G1.inverse(), VARS).is_one()
    prod = expand(G1, VARS) * expand(G1.inverse(), VARS)
    assert prod.is_one()


def test_commutator_expansion():
    w = commutator(G1, G2)
    assert expand(w, VARS).terms == {(): 1, (1, 2): 1, (2, 1): -1}
    assert expand(w, VARS).render() == "1 + x1x2 - x2x1"


def test_unmapped_generator_error():
    other = Alphabet(["h"])
    h = GroupWord.generator(other["h"])
    with pytest.raises(UnmappedGeneratorError):
        expand(h, VARS)


def test_invert_simple():
    one = MagnusPoly.one()
    assert invert(one) == one
    p = MagnusPoly.letter(1, 1)  # 1 + x1
    assert invert(p).terms == {(): 1, (1,): -1}


def test_invert_requires_unit():
    with pytest.raises(NonUnitError):
        invert(MagnusPoly({(): 2}))
    with pytest.raises(NonUnitError):
        invert(MagnusPoly({(1,): 1}))


def _random_word(rng, gens, max_len=8) -> GroupWord:
    return GroupWord(
        tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randrange(max_len)))
    )


def test_multiplicativity_random():
    rng = random.Random(42)
    gens = list(ABC.generators)
    for _ in range(250):
        u, v = _random_word(rng, gens), _random_word(rng, gens)
        assert expand(u * v, VARS) == expand(u, VARS) * expand(v, VARS)


def test_inverse_law_random():
    rng = random.Random(43)
    gens = list(ABC.generators)
    for _ in range(250):
        w = _random_word(rng, gens)
        assert invert(expand(w, VARS)) == expand(w.inverse(), VARS)
        assert (expand(w, VARS) * expand(w.inverse(), VARS)).is_one()


def test_squarefree_closure_random():
    rng = random.Random(44)
    gens = list(ABC.generators)
    for _ in range(250):
        p = expand(_random_word(rng, gens), VARS)
        q = expand(_random_word(rng, gens), VARS)
        for mono in (p * q).terms:
            assert len(set(mono)) == len(mono)


def test_triviality():
    assert is_trivial_word(GroupWord(), VARS)
    assert not is_trivial_word(commutator(G1, G2), VARS)


def test_lcs_degree_values():
    assert lcs_degree(G1, VARS) == 1
    assert lcs_degree(commutator(G1, G2), VARS) == 2
    assert lcs_degree(commutator(commutator(G1, G2), G3), VARS) == 3
    assert lcs_degree(GroupWord(), VARS) is None


def test_left_to_right_coefficient_convention():
    # coefficient of x1x2x3 in the expansion of [g1,[g2,g3]] is +1
    w = commutator(G1, commutator(G2, G3))
    assert expand(w, VARS).terms.get((1, 2, 3)) == 1


def test_top_degree_conjugation_invariance():
    # over n variables, a word whose nonconstant terms all have length n
    # has conjugation-invariant expansion
    rng = random.Random(45)
    gens = list(ABC.generators)
    w = commutator(commutator(G1, G2), G3)
    base = expand(w, VARS)
    assert all(len(k) == 3 for k in base.terms if k)
    for g in gens:
        conj = w.conjugate(GroupWord.generator(g))
        assert expand(conj, VARS) == base
    # and for random deeper multilinear commutators
    for _ in range(200):
        order = rng.sample([G1, G2, G3], 3)
        w = commutator(order[0], commutator(order[1], order[2]))
        base = expand(w, VARS)
        g = rng.choice(gens)
        assert expand(w.conjugate(GroupWord.generator(g)), VARS) == base


def test_rendering_graded_lex():
    p = MagnusPoly({(): 1, (2, 3, 4): 1, (3, 2, 4): -1, (2,): 2})
    assert p.render() == "1 + 2x2 + x2x3x4 - x3x2x4"
    assert MagnusPoly().render() == "0"
    assert MagnusPoly({(1,): -1}).render() == "-x1"


def test_variable_set_indexing():
    named = Alphabet(["m2", "m5", "m9"])
    vs = VariableSet.from_generators(named.generators)
    assert vs.indices == (2, 5, 9)
    plain = Alphabet(["a", "b"])
    vs = VariableSet.from_generators(plain.generators)
    assert vs.indices == (1, 2)


def _letter_by_letter(w: GroupWord, vars: VariableSet) -> MagnusPoly:
    """The definition: the ring product of every letter's 1 + x or 1 - x."""
    p = MagnusPoly.one()
    for g, s in w.letters:
        p = p * MagnusPoly.letter(vars.index_of(g), s)
    return p


def _word_with_runs(rng, gens, runs) -> GroupWord:
    letters = []
    for _ in range(runs):
        letters += [(rng.choice(gens), rng.choice((1, -1)))] * rng.randrange(1, 9)
    return GroupWord(tuple(letters))


def test_runwise_expansion_matches_letter_by_letter_product():
    rng = random.Random(2029)
    for n in range(1, 7):
        gens = list(SIX.generators[:n])
        vars_ = VariableSet.from_generators(gens)
        for _ in range(30):
            u = _word_with_runs(rng, gens, rng.randrange(8))
            v = _word_with_runs(rng, gens, rng.randrange(8))
            for w in (u, u * v, u * v * u.inverse(), commutator(u, v), u * u.inverse()):
                assert expand(w, vars_) == _letter_by_letter(w, vars_)
    # indices far apart and out of order, as trailing-number names give
    named = Alphabet(["m9", "m2", "m40"])
    vars_ = VariableSet.from_generators(named.generators)
    w = _word_with_runs(rng, list(named.generators), 30)
    assert expand(w, vars_) == _letter_by_letter(w, vars_)


def test_run_of_equal_letters_is_one_plus_e_x():
    for e in (1, 2, 7, -1, -5):
        w = G1**e
        assert expand(w, VARS).terms == {(): 1, (1,): e}
        assert expand(w * G2**3 * w.inverse(), VARS).terms == {
            (): 1, (2,): 3, (1, 2): 3 * e, (2, 1): -3 * e,
        }


def test_long_word_over_six_generators_within_budget():
    # an 800-letter word over six generators fills the ring (1957 terms);
    # letter by letter it took about 2.4 s, run by run about 0.1 s (budget 1.5 s)
    rng = random.Random(2030)
    gens = list(SIX.generators)
    w = GroupWord(tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(960)))
    vars_ = VariableSet.from_generators(gens)
    t0 = time.perf_counter()
    p = expand(w, vars_)
    elapsed = time.perf_counter() - t0
    assert 780 <= len(w) <= 820
    assert elapsed < 1.5
    assert len(p.terms) == 1957
    assert p.degree_part(1) == {
        (vars_.index_of(g),): sum(s for h, s in w.letters if h == g) for g in gens
    }
