"""Expansion in the squarefree ring: values, laws, rendering."""

import random
import time

import pytest
from magnus_reference import degree_part, letter_by_letter, product

from commcalc import magnus
from commcalc.magnus import (
    MagnusPoly,
    VariableSet,
    expand,
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
    assert product(expand(G1, VARS), expand(G1.inverse(), VARS)).is_one()


def test_commutator_expansion():
    w = commutator(G1, G2)
    assert expand(w, VARS).terms == {(): 1, (1, 2): 1, (2, 1): -1}
    assert expand(w, VARS).render() == "1 + x1x2 - x2x1"


def test_unmapped_generator_error():
    other = Alphabet(["h"])
    h = GroupWord.generator(other["h"])
    with pytest.raises(UnmappedGeneratorError):
        expand(h, VARS)


def test_a_generator_is_its_name():
    # one name declared in two alphabets, in different orders, is one
    # generator: the letters cancel, and the word expands under either
    # alphabet's variables
    xy, yx = Alphabet(["x", "y"]), Alphabet(["y", "x"])
    w = GroupWord.generator(xy["x"]) * GroupWord.generator(yx["x"], -1)
    assert w.is_identity() and w == GroupWord()
    assert (xy.word("[x,y]") * yx.word("[x,y]").inverse()).is_identity()
    mixed = xy.word("x") * yx.word("y")
    for alphabet, render in ((xy, "1 + x1 + x2 + x1x2"), (yx, "1 + x1 + x2 + x2x1")):
        vars_ = VariableSet.from_generators(alphabet.generators)
        assert expand(w, vars_).is_one()
        assert expand(mixed, vars_).render() == render


def _random_word(rng, gens, max_len=8) -> GroupWord:
    return GroupWord(
        tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randrange(max_len)))
    )


def test_multiplicativity_random():
    rng = random.Random(42)
    gens = list(ABC.generators)
    for _ in range(250):
        u, v = _random_word(rng, gens), _random_word(rng, gens)
        assert expand(u * v, VARS) == product(expand(u, VARS), expand(v, VARS))


def test_inverse_law_random():
    rng = random.Random(43)
    gens = list(ABC.generators)
    for _ in range(250):
        w = _random_word(rng, gens)
        p, q = expand(w, VARS), expand(w.inverse(), VARS)
        assert product(p, q).is_one() and product(q, p).is_one()


def test_squarefree_closure_random():
    rng = random.Random(44)
    gens = list(ABC.generators)
    for _ in range(250):
        p = expand(_random_word(rng, gens), VARS)
        q = expand(_random_word(rng, gens), VARS)
        for mono in product(p, q).terms:
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
                assert expand(w, vars_) == letter_by_letter(w, vars_)
    # indices far apart and out of order, as trailing-number names give
    named = Alphabet(["m9", "m2", "m40"])
    vars_ = VariableSet.from_generators(named.generators)
    w = _word_with_runs(rng, list(named.generators), 30)
    assert expand(w, vars_) == letter_by_letter(w, vars_)


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
    assert degree_part(p, 1) == {
        (vars_.index_of(g),): sum(s for h, s in w.letters if h == g) for g in gens
    }


def test_term_limit_admits_the_full_ring_at_eight_generators():
    # (m1 ... m8)^8 holds every ordered tuple of distinct indices as a
    # subsequence, so its expansion has all 109 601 monomials
    names = [f"m{i}" for i in range(1, 9)]
    w = GroupWord(tuple((g, 1) for g in names) * 8)
    assert len(expand(w, VariableSet.from_generators(names)).terms) == 109_601 <= magnus.MAX_TERMS


def test_term_limit_refuses_the_run_that_passes_it(monkeypatch):
    monkeypatch.setattr(magnus, "MAX_TERMS", 8)
    names = ["m1", "m2", "m3", "m4"]
    vars_ = VariableSet.from_generators(names)
    # m1 m2 m3 reaches exactly 8 terms; the limit is on the count, not the letters
    assert len(expand(GroupWord((("m1", 1), ("m2", 1), ("m3", 1))), vars_).terms) == 8
    assert expand(GroupWord((("m1", 1),) * 50 + (("m2", -1),) * 50), vars_).terms == {
        (): 1, (1,): 50, (2,): -50, (1, 2): -2500,
    }
    with pytest.raises(ValueError, match="exceeds the limit of 8 terms over 4 variables"):
        expand(GroupWord(tuple((g, 1) for g in names)), vars_)
