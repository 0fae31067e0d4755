"""Expansion in the squarefree ring: values, laws, rendering."""

import random
import time
import tracemalloc
from itertools import groupby
from operator import itemgetter

import pytest
from magnus_reference import degree_part, letter_by_letter, product

from commcalc import magnus
from commcalc.magnus import MagnusPoly, VariableSet, expand
from commcalc.words import (
    Alphabet,
    GroupWord,
    UnmappedGeneratorError,
    commutator,
    expr_to_word,
    parse_expr,
)

ABC = Alphabet(["g1", "g2", "g3"])
VARS = VariableSet.from_generators(ABC.generators)
G1, G2, G3 = (GroupWord.generator(g) for g in ABC.generators)
SIX = Alphabet([f"g{i}" for i in range(1, 7)])


def _word(text: str, alphabet: Alphabet) -> GroupWord:
    return expr_to_word(parse_expr(text, alphabet))


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
    h = GroupWord.generator("h")
    with pytest.raises(UnmappedGeneratorError):
        expand(h, VARS)
    # of several unmapped names the first in the word is reported
    with pytest.raises(UnmappedGeneratorError, match="'h'"):
        expand(GroupWord((("h", 1), ("g", 1))), VARS)


def test_a_generator_is_its_name():
    # one name declared in two alphabets, in different orders, is one
    # generator: the letters cancel, and the word expands under either
    # alphabet's variables
    xy, yx = Alphabet(["x", "y"]), Alphabet(["y", "x"])
    w = _word("x", xy) * _word("x^-1", yx)
    assert w.is_identity() and w == GroupWord()
    assert (_word("[x,y]", xy) * _word("[x,y]", yx).inverse()).is_identity()
    mixed = _word("x", xy) * _word("y", yx)
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
    assert expand(GroupWord(), VARS).is_one()
    assert not expand(commutator(G1, G2), VARS).is_one()


def test_lcs_degree_values():
    assert expand(G1, VARS).min_degree() == 1
    assert expand(commutator(G1, G2), VARS).min_degree() == 2
    assert expand(commutator(commutator(G1, G2), G3), VARS).min_degree() == 3
    assert expand(GroupWord(), VARS).min_degree() is None


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
    assert vs.mapping == {"m2": 2, "m5": 5, "m9": 9}
    plain = Alphabet(["a", "b"])
    vs = VariableSet.from_generators(plain.generators)
    assert vs.mapping == {"a": 1, "b": 2}


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
    # powers of both signs, up to |e| = 40 a run
    for n in range(1, 6):
        gens = list(SIX.generators[:n])
        vars_ = VariableSet.from_generators(gens)
        for _ in range(10):
            w = GroupWord()
            for _ in range(rng.randrange(1, 12)):
                w = w * GroupWord.generator(rng.choice(gens), rng.choice((1, -1))) ** rng.randrange(2, 41)
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
    # letter by letter it took about 2.4 s, run by run with packed
    # coefficients about 0.01 s (budget 1.5 s)
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
    monkeypatch.setattr(magnus, "MAX_TERMS", 16)
    names = ["m1", "m2", "m3", "m4"]
    vars_ = VariableSet.from_generators(names)
    # m1 m2 m3 reaches the 8 subsets of {1,2,3}, which hold 1+1+1+1+2+2+2+6 =
    # 16 slots, exactly the limit; the limit is on slots, not on letters
    assert len(expand(GroupWord((("m1", 1), ("m2", 1), ("m3", 1))), vars_).terms) == 8
    # 5 slots: {}, {1}, {2}, {1,2}
    assert expand(GroupWord((("m1", 1),) * 50 + (("m2", -1),) * 50), vars_).terms == {
        (): 1, (1,): 50, (2,): -50, (1, 2): -2500,
    }
    with pytest.raises(ValueError, match="exceeds the limit of 16 terms over 4 variables"):
        expand(GroupWord(tuple((g, 1) for g in names)), vars_)


def test_work_limit_counts_the_slots_each_run_starts_from(monkeypatch):
    vars_ = VariableSet.from_generators(["m1", "m2"])
    w = GroupWord((("m1", 1), ("m2", 1)))
    # the run of m2 starts from 1 slot, {}; the run of m1 from 2, {} and {2}
    monkeypatch.setattr(magnus, "MAX_WORK", 3)
    assert len(expand(w, vars_).terms) == 4
    monkeypatch.setattr(magnus, "MAX_WORK", 2)
    with pytest.raises(ValueError, match="work limit of 2 slot words over 2 variables"):
        expand(w, vars_)


def test_work_limit_admits_the_110th_power_of_m1_to_m8():
    names = [f"m{i}" for i in range(1, 9)]
    vars_ = VariableSet.from_generators(names)
    assert len(expand(GroupWord(tuple((g, 1) for g in names) * 110), vars_).terms) == 109_601
    # one more power takes the coefficients past 63 bits, two words per slot
    with pytest.raises(ValueError, match="work limit of 100000000 slot words over 8 variables"):
        expand(GroupWord(tuple((g, 1) for g in names) * 111), vars_)


def test_work_limit_refuses_a_million_letters_in_little_memory():
    # the runs are walked as they come, never listed: a list of the 10^6
    # one-letter runs of this word would take about 66 MiB, and the work
    # limit refuses it after about 450 runs
    names = [f"m{i}" for i in range(1, 9)]
    w = GroupWord(tuple((g, 1) for g in names) * 125_000)
    vars_ = VariableSet.from_generators(names)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="work limit of 100000000 slot words"):
            expand(w, vars_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_term_limit_counts_only_the_supports_a_word_reaches():
    names = [f"m{i}" for i in range(1, 13)]
    vars_ = VariableSet.from_generators(names)
    # twelve variables, but the word reaches 4 slots
    assert expand(GroupWord((("m1", 1), ("m2", 1))), vars_).terms == {
        (): 1, (1,): 1, (2,): 1, (1, 2): 1,
    }
    # one monomial over 9 generators has 9! = 362 880 slots
    with pytest.raises(ValueError, match="exceeds the limit of 200000 terms over 12 variables"):
        expand(GroupWord(tuple((g, 1) for g in names[:9])), vars_)


def test_a_support_whose_coefficients_cancel_reaches_nothing(monkeypatch):
    # in m3 m2 m1 m2^-1 the x2 terms cancel before m3 is multiplied in,
    # so {2, 3} is never reached: 14 slots, where reaching it makes 16
    monkeypatch.setattr(magnus, "MAX_TERMS", 14)
    a = Alphabet(["m1", "m2", "m3"])
    assert expand(_word("m3*m2*m1*m2^-1", a), VariableSet.from_generators(a.generators)).terms == {
        (): 1, (1,): 1, (3,): 1, (1, 2): -1, (2, 1): 1, (3, 1): 1, (3, 1, 2): -1, (3, 2, 1): 1,
    }


def test_refusal_stops_at_the_support_that_passes_the_limit():
    # m9 (m1 ... m8)^8 fills the ring over m1..m8 before its first run
    # is multiplied in; finishing that run would add 876 809 slots (a
    # peak of about 12 MB at this width), so the expansion must stop at
    # the first support that passes the limit
    names = [f"m{i}" for i in range(1, 10)]
    w = _word("m9^50*(" + "*".join(f"{g}^50" for g in names[:8]) + ")^8", Alphabet(names))
    vars_ = VariableSet.from_generators(names)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the limit"):
            expand(w, vars_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


def test_many_distinct_generators_are_refused_quickly_in_little_memory():
    # m1 ... m5000 reaches a monomial over 9 generators at its ninth run
    # from the right; the work and memory before the refusal must not
    # grow with the 5000 generators the word has not reached yet
    names = [f"m{i}" for i in range(1, 5001)]
    w = GroupWord(tuple((g, 1) for g in names))
    vars_ = VariableSet.from_generators(names)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="exceeds the limit of 200000 terms over 5000 variables"):
            expand(w, vars_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.04 s and 2.6 MB
    assert time.perf_counter() - t0 < 1.5
    assert peak < 8_000_000


@pytest.mark.parametrize("sign", [1, -1])
def test_largest_coefficient_of_a_longest_word(sign):
    # 10^6 letters, the most a word may have: x1x2 is sign * 500 000^2
    w = _word(f"m1^500000*m2^{sign * 500_000}", Alphabet(["m1", "m2"]))
    assert len(w) == 1_000_000
    assert expand(w, VariableSet.from_generators(["m1", "m2"])).terms == {
        (): 1, (1,): 500_000, (2,): sign * 500_000, (1, 2): sign * 250_000_000_000,
    }


def _runwise(w: GroupWord, vars_: VariableSet) -> MagnusPoly:
    """The ring product of the runs' 1 + e x, in the reference ring."""
    p = MagnusPoly({(): 1})
    for g, run in groupby(w.letters, key=itemgetter(0)):
        p = product(p, MagnusPoly({(): 1, (vars_.index_of(g),): sum(s for _, s in run)}))
    return p


def test_coefficients_wider_than_one_machine_word():
    # runs of thousands of letters push coefficients past 2^64, so a
    # slot spans two or three 64-bit words, with both signs in one support
    a = Alphabet([f"m{i}" for i in range(1, 9)])
    vars_ = VariableSet.from_generators(a.generators)
    m1, m2, m3, m4 = (GroupWord.generator(g) ** 65536 for g in a.generators[:4])
    assert expand(m1 * m2 * m3.inverse() * m4, vars_).terms[(1, 2, 3, 4)] == -(2**64)
    w = commutator(m1 * m3, m2 * m4.inverse())
    p = expand(w, vars_)
    assert p == _runwise(w, vars_)
    assert {abs(c) for k, c in p.terms.items() if len(k) == 4} == {2**64}
    # 10^6 letters over 8 generators: three words a slot
    w = GroupWord(tuple((f"m{i}", (-1) ** i) for i in range(1, 9) for _ in range(125_000)))
    p = expand(w, vars_)
    assert p.terms[tuple(range(1, 9))] == 125_000**8
    assert p == _runwise(w, vars_)
    rng = random.Random(64)
    widest = []
    for n in (6, 7):
        gens = list(a.generators[:n])
        for _ in range(5):
            runs = [
                ((rng.choice(gens), rng.choice((1, -1))),) * rng.randrange(1, 2**12)
                for _ in range(rng.randrange(12, 19))
            ]
            w = GroupWord(sum(runs, ()))
            p = expand(w, vars_)
            assert p == _runwise(w, vars_)
            widest.append(max(map(abs, p.terms.values())).bit_length())
    assert sum(b > 64 for b in widest) >= 5


def test_mixed_signs_in_one_support_decode_exactly():
    # a negative slot borrows from the slot above it in the packed integer;
    # each case puts coefficients of both signs side by side in one support
    a = Alphabet(["m1", "m2", "m3", "m4"])
    vars_ = VariableSet.from_generators(a.generators)
    assert expand(_word("[m1,m2]", a), vars_).terms == {(): 1, (1, 2): 1, (2, 1): -1}
    assert expand(_word("[m2,m1]", a), vars_).terms == {(): 1, (1, 2): -1, (2, 1): 1}
    for text in ("[[m1,m2],m3]", "[[m1^3,m2^-2],[m3,m4^5]]", "[m1^-7*m3,[m2^4,m4^-1]]^3"):
        w = _word(text, a)
        p = expand(w, vars_)
        assert p == letter_by_letter(w, vars_)
        top = [c for k, c in p.terms.items() if len(k) == max(map(len, p.terms))]
        assert min(top) < 0 < max(top)
