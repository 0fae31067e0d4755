"""End-to-end certification for the two-component scenario."""

import itertools

import pytest

from commcalc import magnus
from commcalc.hopf import (
    HopfScenario,
    InadmissibleSubstitutionError,
    find_substitutions,
    twisted_band_report,
    verify_hopf_triviality,
)
from commcalc.words import Alphabet, GroupWord, parse_expr, expr_to_word


def test_band_sum_substitution_gives_collected_word():
    scenario = HopfScenario()
    sub = scenario.substitution("m3*m4", "m2^-1")
    word = scenario.build_substituted_l1(sub)
    # substituting directly into the expression text must agree
    meridians = Alphabet(["m2", "m3", "m4"])
    direct = expr_to_word(
        parse_expr("[[m3,m4*m2^-1]*[m2^-1,m4],m2*m3*m4]", meridians)
    )
    assert [(g.name, s) for g, s in word.letters] == [
        (g.name, s) for g, s in direct.letters
    ]


def test_empty_substitution():
    scenario = HopfScenario()
    sub = scenario.substitution("", "")
    # degenerate images: the expression collapses to [[m3,m4],m2]
    word = scenario.build_substituted_l1(sub)
    meridians = Alphabet(["m2", "m3", "m4"])
    expected = expr_to_word(parse_expr("[[m3,m4],m2]", meridians))
    assert [(g.name, s) for g, s in word.letters] == [
        (g.name, s) for g, s in expected.letters
    ]


def test_inadmissible_substitutions_rejected():
    scenario = HopfScenario()
    a, b = scenario.alphabet["a"], scenario.alphabet["b"]
    m2 = GroupWord.generator(scenario.alphabet["m2"])
    m3 = GroupWord.generator(scenario.alphabet["m3"])
    with pytest.raises(InadmissibleSubstitutionError):
        scenario.build_substituted_l1({a: m2, b: m2})
    with pytest.raises(InadmissibleSubstitutionError):
        scenario.build_substituted_l1({a: m3, b: m3})
    with pytest.raises(InadmissibleSubstitutionError):
        scenario.build_substituted_l1({a: m3})


def test_verify_hopf_triviality_certificates():
    report = verify_hopf_triviality()
    assert report["substituted_trivial"]
    assert report["jacobi_product_trivial"]
    assert report["inverse_conjugation_identity"]
    assert report["hall_witt_trivial"]
    assert report["product_identity_left"] and report["product_identity_right"]
    assert report["all_passed"]
    assert report["magnus_expansion"] == "1"


def test_unsubstituted_word_depth():
    scenario = HopfScenario()
    all_vars = magnus.VariableSet.from_generators(
        scenario.alphabet.generators
    )
    from commcalc.words import substitute

    word = substitute(scenario.expression, {})
    assert magnus.lcs_degree(word, all_vars) == 3


def test_find_substitutions_bound_1():
    found = find_substitutions(1)
    assert found == [(-1, -1, 1), (1, 1, -1)]
    assert (1, 1, -1) in found
    assert (0, 0, 0) not in found


def test_find_substitutions_bound_validation():
    with pytest.raises(ValueError):
        find_substitutions(0)


# --- independent oracle: dense table-driven arithmetic over the 16
# squarefree monomials in x2, x3, x4 ---------------------------------------

MONOS = [()] + [
    p
    for d in (1, 2, 3)
    for p in sorted(itertools.permutations((2, 3, 4), d))
]
MONO_INDEX = {m: i for i, m in enumerate(MONOS)}
MUL_TABLE = [
    [
        MONO_INDEX.get(a + b) if not set(a) & set(b) else None
        for b in MONOS
    ]
    for a in MONOS
]


def _dense_mul(u, v):
    out = [0] * len(MONOS)
    for i, x in enumerate(u):
        if x:
            row = MUL_TABLE[i]
            for j, y in enumerate(v):
                if y and row[j] is not None:
                    out[row[j]] += x * y
    return out


def _dense_trivial(word) -> bool:
    acc = [0] * len(MONOS)
    acc[0] = 1
    for g, s in word.letters:
        vec = [0] * len(MONOS)
        vec[0] = 1
        vec[MONO_INDEX[(int(g.name[1:]),)]] = s
        acc = _dense_mul(acc, vec)
    return acc[0] == 1 and not any(acc[1:])


def test_bound_2_matches_dense_brute_force_oracle():
    scenario = HopfScenario()
    expected = []
    for s3, s4, t in itertools.product(range(-2, 3), repeat=3):
        word = scenario.build_substituted_l1(scenario.power_substitution(s3, s4, t))
        if _dense_trivial(word):
            expected.append((s3, s4, t))
    assert find_substitutions(2) == expected
    assert expected == [(-1, -1, 1), (1, 1, -1)]


def test_twisted_band_variant_is_solvable():
    report = twisted_band_report(2)
    assert report["solvable"]
    assert report["found"] == [(-1, 1, -1), (1, -1, 1)]
    # the untwisted solutions do not work on the twisted word
    assert (1, 1, -1) not in report["found"]


def test_conjugation_invariance_of_substituted_words():
    scenario = HopfScenario()
    meridian_gens = [scenario.alphabet[n] for n in ("m2", "m3", "m4")]
    # nontrivial top-degree word: the empty substitution
    word = scenario.build_substituted_l1(scenario.substitution("", ""))
    base = magnus.expand(word, scenario.vars)
    assert base.min_degree() == 3
    for found in find_substitutions(1) + [(0, 0, 0)]:
        word = scenario.build_substituted_l1(scenario.power_substitution(*found))
        expansion = magnus.expand(word, scenario.vars)
        for g in meridian_gens:
            conj = word.conjugate(GroupWord.generator(g))
            assert magnus.expand(conj, scenario.vars) == expansion
