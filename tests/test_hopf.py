"""End-to-end certification for the two-component scenario."""

import itertools
import math

import pytest

from commcalc import hopf, magnus
from commcalc.hopf import (
    VARS,
    find_substitutions,
    substituted_longitude,
    verify_hopf_triviality,
)
from commcalc.words import Alphabet, GroupWord, expr_to_word, parse_expr, substitute


def test_band_sum_substitution_gives_collected_word():
    # a -> m3*m4, b -> m2^-1
    word = substituted_longitude(1, 1, -1)
    # substituting directly into the expression text must agree, though
    # the text is parsed over another alphabet
    meridians = Alphabet(["m2", "m3", "m4"])
    direct = expr_to_word(
        parse_expr("[[m3,m4*m2^-1]*[m2^-1,m4],m2*m3*m4]", meridians)
    )
    assert word == direct


def test_printed_substitution_is_the_band_sum():
    # the report's substitution text, put into the longitude text, gives
    # the word that the certificate expands
    meridians = Alphabet(list(hopf.MERIDIANS))
    printed = verify_hopf_triviality()["substitution"]
    images = {name: expr_to_word(parse_expr(text, meridians)) for name, text in printed.items()}
    longitude = parse_expr(hopf.L1_TEXT, Alphabet([*hopf.MERIDIANS, "a", "b"]))
    assert substitute(longitude, images) == substituted_longitude(*hopf.BAND_SUM)


def test_empty_substitution():
    # degenerate images: the expression collapses to [[m3,m4],m2]
    word = substituted_longitude(0, 0, 0)
    meridians = Alphabet(["m2", "m3", "m4"])
    expected = expr_to_word(parse_expr("[[m3,m4],m2]", meridians))
    assert word == expected


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
    alphabet = Alphabet(["m2", "m3", "m4", "a", "b"])
    all_vars = magnus.VariableSet.from_generators(alphabet.generators)
    word = expr_to_word(parse_expr(hopf.L1_TEXT, alphabet))
    assert magnus.expand(word, all_vars).min_degree() == 3


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


def _dense_trivial(word) -> bool:
    # right-multiply by 1 + s x_g one letter at a time
    one = [1] + [0] * (len(MONOS) - 1)
    acc = one
    for g, s in word.letters:
        col = MONO_INDEX[(int(g[1:]),)]
        step = acc[:]
        for i, c in enumerate(acc):
            if c and MUL_TABLE[i][col] is not None:
                step[MUL_TABLE[i][col]] += s * c
        acc = step
    return acc == one


#: The trivializing substitutions of each longitude, at every bound.
SOLUTIONS = {False: [(-1, -1, 1), (1, 1, -1)], True: [(-1, 1, -1), (1, -1, 1)]}


def _dense_search(bound, twisted=False):
    """The box search the corner read-off replaced, on arithmetic that
    shares no code with magnus.expand."""
    rng = range(-bound, bound + 1)
    return [
        point
        for point in itertools.product(rng, repeat=3)
        if _dense_trivial(substituted_longitude(*point, twisted))
    ]


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
def test_find_substitutions_matches_dense_brute_force_oracle(twisted, bound):
    expected = _dense_search(bound, twisted)
    assert find_substitutions(bound, twisted) == expected
    assert expected == SOLUTIONS[twisted]


@pytest.mark.parametrize("text", ["[a,b]", "[[m3,a],b*m2]", "[a*m4,[b^-1,m3]]"])
def test_read_off_matches_the_oracle_on_other_longitudes(monkeypatch, text):
    # the read-off needs only that a and b enter as power runs; at the
    # corner (0,0,0) some monomials of these words vanish, so every
    # corner's monomials must be checked
    monkeypatch.setattr(hopf, "L1_TEXT", text)
    assert find_substitutions(2) == _dense_search(2)


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
def test_coefficients_interpolate_from_the_eight_corners(twisted):
    # each Magnus coefficient is multilinear in (s3, s4, t), so the
    # corners of {0,1}^3 fix it at every point
    def terms(point):
        return magnus.expand(substituted_longitude(*point, twisted), VARS).terms

    corners = {c: terms(c) for c in itertools.product((0, 1), repeat=3)}
    for point in itertools.product(range(-3, 4), repeat=3):
        interpolated: dict = {}
        for c, corner in corners.items():
            weight = math.prod(x if ci else 1 - x for ci, x in zip(c, point))
            for k, v in corner.items():
                interpolated[k] = interpolated.get(k, 0) + weight * v
        assert terms(point) == {k: v for k, v in interpolated.items() if v}, point


def test_twisted_band_variant_is_solvable():
    found = find_substitutions(2, twisted=True)
    assert found == [(-1, 1, -1), (1, -1, 1)]
    # the untwisted solutions do not work on the twisted word
    assert (1, 1, -1) not in found


def test_conjugation_invariance_of_substituted_words():
    # nontrivial top-degree word: the empty substitution
    base = magnus.expand(substituted_longitude(0, 0, 0), VARS)
    assert base.min_degree() == 3
    for found in find_substitutions(1) + [(0, 0, 0)]:
        word = substituted_longitude(*found)
        expansion = magnus.expand(word, VARS)
        for g in hopf.MERIDIANS:
            conj = word.conjugate(GroupWord.generator(g))
            assert magnus.expand(conj, VARS) == expansion
