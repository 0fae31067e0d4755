"""Free-group words, commutator expressions, parsing, substitution."""

import random
import time

import pytest

from commcalc import words
from commcalc.words import (
    MAX_NESTING,
    MAX_WORD_LENGTH,
    Alphabet,
    Commutator,
    Conjugate,
    GroupWord,
    Inverse,
    Leaf,
    ParseError,
    Product,
    UnknownGeneratorError,
    UnmappedGeneratorError,
    WordError,
    commutator,
    expr_to_word,
    parse_expr,
    print_expr,
    substitute,
)

ABC = Alphabet(["x", "y", "z"])
X, Y, Z = (GroupWord.generator(g) for g in ABC.generators)


def test_parse_simple_commutator():
    alpha = Alphabet(["m3", "m4"])
    e = parse_expr("[m3,m4]", alpha)
    assert e == Commutator(Leaf(alpha["m3"]), Leaf(alpha["m4"]))


def test_parse_l1_expression_shape():
    alpha = Alphabet(["m2", "m3", "m4", "a", "b"])
    e = parse_expr("[[m3,m4*b]*[b,m4],m2*a]", alpha)
    assert isinstance(e, Commutator)
    assert isinstance(e.left, Product) and len(e.left.factors) == 2
    inner = e.left.factors[0]
    assert inner == Commutator(
        Leaf(alpha["m3"]), Product((Leaf(alpha["m4"]), Leaf(alpha["b"])))
    )
    assert e.right == Product((Leaf(alpha["m2"]), Leaf(alpha["a"])))


def test_parse_nested_commutator():
    alpha = Alphabet(["m2", "m3", "m4", "m5", "m6"])
    e = parse_expr("[m2,[[m3,m4],[m5,m6]]]", alpha)
    assert e == Commutator(
        Leaf(alpha["m2"]),
        Commutator(
            Commutator(Leaf(alpha["m3"]), Leaf(alpha["m4"])),
            Commutator(Leaf(alpha["m5"]), Leaf(alpha["m6"])),
        ),
    )


def test_parse_conjugation_and_power():
    e = parse_expr("x^y", ABC)
    assert e == Conjugate(Leaf(ABC["x"]), Leaf(ABC["y"]))
    e = parse_expr("x^-1", ABC)
    assert e == Inverse(Leaf(ABC["x"]))
    e = parse_expr("x^2", ABC)
    assert e == Product((Leaf(ABC["x"]), Leaf(ABC["x"])))
    e = parse_expr("x^-2", ABC)
    assert e == Inverse(Product((Leaf(ABC["x"]), Leaf(ABC["x"]))))


def test_inverse_binds_tighter_than_product():
    e = parse_expr("x*y^-1", ABC)
    assert e == Product((Leaf(ABC["x"]), Inverse(Leaf(ABC["y"]))))


def test_whitespace_insignificant():
    assert parse_expr(" [ x , y ] * z ", ABC) == parse_expr("[x,y]*z", ABC)


def test_syntax_error_has_offset_and_expectation():
    with pytest.raises(ParseError) as err:
        parse_expr("[x,y", ABC)
    assert err.value.offset == 4
    assert "']'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_expr("x*", ABC)
    assert err.value.offset == 2


def test_unknown_generator_rejected():
    with pytest.raises(ParseError) as err:
        parse_expr("[x,w]", ABC)
    assert "unknown generator 'w'" in str(err.value)
    with pytest.raises(UnknownGeneratorError):
        ABC["nope"]


def test_one_name_rule():
    # a letter, then letters or digits, as the parser reads names
    assert words.generator_names("[é2,x]*x^-12 * é2 2y") == ["é2", "x", "y"]
    assert words.generator_names("^-1 , 12") == []
    alphabet = Alphabet(words.generator_names("x²*é"))
    assert print_expr(parse_expr("x²*é", alphabet)) == "x²*é"
    with pytest.raises(words.WordError, match="invalid generator name"):
        Alphabet(["2x"])
    # the index is the trailing run of decimal digits: "²" is a digit
    # but not a decimal, and any script's decimals count
    assert words.trailing_index("m12") == 12
    assert words.trailing_index("a٣") == 3
    assert words.trailing_index("x²") is None
    assert words.trailing_index("x") is None


def test_superscript_exponent_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_expr("x^²", ABC)
    assert err.value.offset == 2


def test_zero_exponent_rejected():
    with pytest.raises(ParseError):
        parse_expr("x^0", ABC)


def test_nesting_depth_limited():
    for depth in (MAX_NESTING, MAX_NESTING + 1, 5000):
        brackets = "[" * depth + "x" + ",y]" * depth
        parens = "(" * depth + "x" + ")" * depth
        if depth <= MAX_NESTING:
            assert print_expr(parse_expr(brackets, ABC)) == brackets
            assert parse_expr(parens, ABC) == Leaf(ABC["x"])
            continue
        for text in (brackets, parens):
            with pytest.raises(ParseError, match="nesting deeper than") as err:
                parse_expr(text, ABC)
            assert err.value.offset == MAX_NESTING


def test_commutator_convention():
    # [x,y] = x^-1 y^-1 x y
    w = expr_to_word(parse_expr("[x,y]", ABC))
    expected = X.inverse() * Y.inverse() * X * Y
    assert w == expected
    assert len(w) == 4


def test_commutator_of_equal_elements_is_trivial():
    assert expr_to_word(parse_expr("[x,x]", ABC)).is_identity()


def test_conjugation_convention():
    # x^g = g^-1 x g
    w = expr_to_word(parse_expr("x^y", ABC))
    assert w == Y.inverse() * X * Y


def test_free_reduction_cancels():
    w = GroupWord(((ABC["x"], 1), (ABC["x"], -1)))
    assert w.is_identity()
    assert GroupWord(w.letters) == w


def test_reduced_word_unchanged():
    w = expr_to_word(parse_expr("[x,y]", ABC))
    assert GroupWord(w.letters) == w and len(w) == 4


def test_hall_witt_reduces_to_identity():
    # [[x,y],z^x] [[z,x],y^z] [[y,z],x^y] = 1 for all distinct triples
    gens = [X, Y, Z]
    for x in gens:
        for y in gens:
            for z in gens:
                if len({x.letters, y.letters, z.letters}) != 3:
                    continue
                w = (
                    commutator(commutator(x, y), z.conjugate(x))
                    * commutator(commutator(z, x), y.conjugate(z))
                    * commutator(commutator(y, z), x.conjugate(y))
                )
                assert w.is_identity()


def _random_word(rng, gens, max_len=6) -> GroupWord:
    letters = tuple(
        (rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randrange(max_len + 1))
    )
    return GroupWord(letters)


def test_product_identities_on_random_words():
    # [x,yz] = [x,z] [x,y]^z  and  [xz,y] = [x,y]^z [z,y]
    rng = random.Random(20240817)
    gens = list(ABC.generators)
    for _ in range(250):
        x, y, z = (_random_word(rng, gens) for _ in range(3))
        assert commutator(x, y * z) == commutator(x, z) * commutator(x, y).conjugate(z)
        assert commutator(x * z, y) == commutator(x, y).conjugate(z) * commutator(z, y)


def test_hall_witt_on_random_words():
    rng = random.Random(99)
    gens = list(ABC.generators)
    for _ in range(200):
        x, y, z = (_random_word(rng, gens) for _ in range(3))
        w = (
            commutator(commutator(x, y), z.conjugate(x))
            * commutator(commutator(z, x), y.conjugate(z))
            * commutator(commutator(y, z), x.conjugate(y))
        )
        assert w.is_identity()


def test_free_reduce_idempotent_and_shortening():
    rng = random.Random(7)
    gens = list(ABC.generators)
    for _ in range(300):
        raw = tuple(
            (rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randrange(12))
        )
        w = GroupWord(raw)
        assert len(w) <= len(raw)
        assert GroupWord(w.letters) == w


def test_inverse_respected_by_flattening():
    rng = random.Random(11)
    for _ in range(200):
        e = _random_expr(rng, depth=3)
        assert expr_to_word(Inverse(e)) == expr_to_word(e).inverse()


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Leaf(rng.choice(ABC.generators))
    kind = rng.randrange(4)
    if kind == 0:
        return Inverse(_random_expr(rng, depth - 1))
    if kind == 1:
        return Product(tuple(_random_expr(rng, depth - 1) for _ in range(rng.randrange(2, 4))))
    if kind == 2:
        return Commutator(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    return Conjugate(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_parse_print_round_trip_random():
    rng = random.Random(123)
    for _ in range(400):
        e = _random_expr(rng, depth=4)
        text = print_expr(e)
        reparsed = parse_expr(text, ABC)
        assert reparsed == e
        assert parse_expr(print_expr(reparsed), ABC) == reparsed


def test_parse_print_parse_is_parse_even_for_singleton_products():
    # a hand-built one-factor product prints as its factor; one reparse
    # reaches the parser's normal form, which is then a fixed point
    e = Product((Leaf(ABC["y"]),))
    once = parse_expr(print_expr(e), ABC)
    assert once == Leaf(ABC["y"])
    assert parse_expr(print_expr(once), ABC) == once


def test_substitution_identity_map_is_flattening():
    alpha = Alphabet(["m2", "m3", "m4", "a", "b"])
    e = parse_expr("[[m3,m4*b]*[b,m4],m2*a]", alpha)
    assert substitute(e, {}) == expr_to_word(e)


def test_substitution_collapse():
    e = parse_expr("[x,y]", ABC)
    assert substitute(e, {ABC["y"]: X}).is_identity()


def test_substitution_inverts_for_negative_signs():
    e = parse_expr("y^-1", ABC)
    image = X * Z
    assert substitute(e, {ABC["y"]: image}) == image.inverse()


def test_total_substitution_requires_every_generator():
    e = parse_expr("[x,y]", ABC)
    with pytest.raises(UnmappedGeneratorError):
        substitute(e, {ABC["x"]: Y}, require_total=True)
    # partial substitution leaves unmapped leaves alone
    assert substitute(e, {ABC["x"]: X}) == commutator(X, Y)


def _random_runs(rng, gens, max_runs=8) -> GroupWord:
    """A reduced word built from runs of one signed generator, so that
    products of such words cancel in long stretches."""
    letters = []
    for _ in range(rng.randrange(max_runs + 1)):
        letters += [(rng.choice(gens), rng.choice((1, -1)))] * rng.randrange(1, 6)
    return GroupWord(tuple(letters))


def _slow_reduce(letters) -> tuple:
    """Cancel adjacent inverse pairs until none is left: the definition
    of free reduction, with no stack."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for k in range(len(letters) - 1):
            (g, s), (h, t) = letters[k], letters[k + 1]
            if g == h and s == -t:
                del letters[k : k + 2]
                changed = True
                break
    return tuple(letters)


def test_junction_product_equals_full_reduction():
    rng = random.Random(2026)
    gens = list(ABC.generators)
    for _ in range(600):
        a = _random_runs(rng, gens)
        b = rng.choice([
            _random_runs(rng, gens),
            a.inverse(),  # cancels completely
            a.inverse() * _random_runs(rng, gens),  # cancels all of a
            GroupWord(a.inverse().letters[: rng.randrange(len(a) + 1)]),  # a suffix of a
        ])
        product = a * b
        assert product == GroupWord(a.letters + b.letters)
        assert product.letters == _slow_reduce(a.letters + b.letters)
        assert (a * a.inverse()).is_identity() and (a.inverse() * a).is_identity()


def test_power_equals_repeated_product():
    rng = random.Random(2027)
    gens = list(ABC.generators)
    for _ in range(300):
        w = _random_runs(rng, gens, max_runs=5)
        if rng.random() < 0.3:  # cyclically unreduced: powers cancel inside
            w = _random_runs(rng, gens, 2) * w * _random_runs(rng, gens, 2).inverse()
        n = rng.randrange(-6, 7)
        repeated = GroupWord()
        for _ in range(abs(n)):
            repeated = repeated * (w if n > 0 else w.inverse())
        assert w**n == repeated
        assert (w**n).letters == _slow_reduce((w if n > 0 else w.inverse()).letters * abs(n))
        if n and w.letters:
            text = str(w).replace(" ", "*")
            assert expr_to_word(parse_expr(f"({text})^{n}", ABC)) == repeated


def test_inverse_of_reduced_word_is_reduced():
    rng = random.Random(2028)
    gens = list(ABC.generators)
    for _ in range(200):
        w = _random_runs(rng, gens)
        assert w.inverse().letters == _slow_reduce(w.inverse().letters)
        assert w.inverse().inverse() == w


def test_exponent_limited():
    assert parse_expr(f"x^{MAX_WORD_LENGTH}", ABC) == Product((Leaf(ABC["x"]),) * MAX_WORD_LENGTH)
    for text in (f"x^{MAX_WORD_LENGTH + 1}", f"x^-{MAX_WORD_LENGTH + 1}", "x^" + "9" * 30):
        with pytest.raises(ParseError, match="exponent larger than") as err:
            parse_expr(text, ABC)
        assert err.value.offset == 2


def test_flattened_length_limited(monkeypatch):
    # twenty nested [.,y] double the word twenty times: over 10^6 letters
    nested = "[" * 20 + "x" + ",y]" * 20
    with pytest.raises(WordError, match="exceeds the limit"):
        expr_to_word(parse_expr(nested, ABC))
    monkeypatch.setattr(words, "MAX_WORD_LENGTH", 100)
    within = {
        "[x^25,y^25]": 100,  # commutator: 2(|x| + |y|)
        "(x^50)^(y^25)": 100,  # conjugate: |x| + 2|y|
        "(x*y)^50": 100,  # product: the sum of the factors
        "x^50*x^-50": 0,
    }
    for text, length in within.items():
        assert len(expr_to_word(parse_expr(text, ABC))) == length
    # the bound counts letters before reduction: x^100*x^-1 has 99 after it
    for text in ("[x^25,y^26]", "(x^50)^(y^26)", "(x*y)^50*z", "x^100*x^-1"):
        with pytest.raises(WordError, match="exceeds the limit"):
            expr_to_word(parse_expr(text, ABC))
    with pytest.raises(ParseError, match="exponent larger than"):
        parse_expr("x^101", ABC)


def test_long_power_builds_in_linear_time():
    # x^10000 took about 20 s when every product re-reduced the whole word;
    # it takes about 10 ms now (budget 0.5 s)
    t0 = time.perf_counter()
    w = expr_to_word(parse_expr("x^10000*y*x^-10000*(y*x)^5000", ABC))
    assert time.perf_counter() - t0 < 0.5
    assert len(w) == 10000 + 1 + 10000 + 10000
