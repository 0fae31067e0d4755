"""Free-group words, commutator expressions, parsing, substitution."""

import random
import time

import pytest

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # the `test` extra is not installed
    hypothesis = None

from commcalc import words
from commcalc.magnus import VariableSet
from commcalc.obstruction import Equation
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
    # a number as long as int() reads keeps its value; a longer one is a
    # WordError, not int()'s own ValueError
    assert words.trailing_index("x" + "0" * 4299 + "7") == 7
    with pytest.raises(WordError, match="generator 'x9999.* too long to index"):
        words.trailing_index("x" + "9" * 5000)


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


def _drawn_expr(choice, randint, names, depth):
    """An expression tree over names, drawn with choice(seq) and
    randint(lo, hi); powers are parsed, as x^n and (...)^-n."""
    if depth == 0 or randint(0, 9) < 3:
        return Leaf(choice(names))
    kind = randint(0, 4)

    def sub():
        return _drawn_expr(choice, randint, names, depth - 1)

    if kind == 0:
        return Inverse(sub())
    if kind == 1:
        return Product(tuple(sub() for _ in range(randint(2, 3))))
    if kind == 2:
        return Commutator(sub(), sub())
    if kind == 3:
        return Conjugate(sub(), sub())
    base = sub()
    text = base.gen if isinstance(base, Leaf) else f"({print_expr(base)})"
    n = choice([-1, 1]) * randint(1, 4)
    return parse_expr(f"{text}^{n}", Alphabet(names))


def test_inverse_respected_by_flattening():
    rng = random.Random(11)
    for _ in range(200):
        e = _drawn_expr(rng.choice, rng.randint, ABC.generators, depth=3)
        assert expr_to_word(Inverse(e)) == expr_to_word(e).inverse()


#: Pieces of generator names under the one name rule: a letter, then
#: letters or digits ("²" is a digit, "٣" a decimal).
_NAME_FIRST = ["x", "y", "m", "é", "a", "ü"]
_NAME_REST = ["x", "é", "1", "2", "7", "٣", "²"]


def check_round_trip(choice, randint):
    names = list(dict.fromkeys(
        choice(_NAME_FIRST) + "".join(choice(_NAME_REST) for _ in range(randint(0, 2)))
        for _ in range(randint(1, 4))
    ))
    alphabet = Alphabet(names)
    e = _drawn_expr(choice, randint, names, depth=4)
    text = print_expr(e)
    reparsed = parse_expr(text, alphabet)
    assert reparsed == e, text
    assert print_expr(reparsed) == text


if hypothesis is None:

    def test_parse_print_round_trip_random():
        rng = random.Random(123)
        for _ in range(400):
            check_round_trip(rng.choice, rng.randint)

else:

    @hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def test_parse_print_round_trip_random(data):
        check_round_trip(
            lambda seq: data.draw(st.sampled_from(seq)),
            lambda lo, hi: data.draw(st.integers(lo, hi)),
        )


# --- the immutable value classes -------------------------------------------

_X, _Y = Leaf("x"), Leaf("y")

#: one value of each class, the name of one of its fields, and its repr
VALUES = [
    (GroupWord((("x", 1), ("y", -1))), "letters", "GroupWord(letters=(('x', 1), ('y', -1)))"),
    (_X, "gen", "Leaf(gen='x')"),
    (Inverse(_X), "base", "Inverse(base=Leaf(gen='x'))"),
    (Product((_X, _Y)), "factors", "Product(factors=(Leaf(gen='x'), Leaf(gen='y')))"),
    (Commutator(_X, _Y), "right", "Commutator(left=Leaf(gen='x'), right=Leaf(gen='y'))"),
    (Conjugate(_X, _Y), "by", "Conjugate(base=Leaf(gen='x'), by=Leaf(gen='y'))"),
    (VariableSet({"m2": 2, "m3": 3}), "mapping", "VariableSet(mapping={'m2': 2, 'm3': 3})"),
    (Equation(12, ((1, ("a5", "c2")), (1, ("a6", "c1"))), 1), "target",
     "Equation(label=12, terms=((1, ('a5', 'c2')), (1, ('a6', 'c1'))), target=1)"),
]


@pytest.mark.parametrize(
    "value, field, text", VALUES, ids=[type(v).__name__ for v, _, _ in VALUES]
)
def test_value_is_immutable_and_keeps_its_repr(value, field, text):
    assert repr(value) == text
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def test_values_equal_by_type_and_fields():
    assert Commutator(_X, _Y) != Conjugate(_X, _Y)
    assert Inverse(_X) != Leaf("x") and Leaf("x") != "x"
    assert Commutator(_X, _Y) != Commutator(_Y, _X)
    pairs = [
        (Leaf("x"), _X),
        (Product((Leaf("x"), Inverse(Leaf("y")))), Product((_X, Inverse(_Y)))),
        (Conjugate(Commutator(_X, _Y), _X), Conjugate(Commutator(Leaf("x"), Leaf("y")), _X)),
        (GroupWord((("x", 1),)), X),
        (Equation(2, (), 1), Equation(2, (), 1)),
    ]
    for a, b in pairs:
        assert a == b and a is not b
        assert hash(a) == hash(b)
    assert len({Leaf("x"), _X, Leaf(gen="x"), _Y}) == 2


def test_variable_set_hashes_as_it_compares_and_keeps_its_own_mapping():
    a, b = VariableSet.from_generators(["m1", "m2"]), VariableSet({"m2": 2, "m1": 1})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, VariableSet({"m1": 2, "m2": 1})}) == 2
    given = {"m2": 2, "m3": 3}
    vs = VariableSet(given)
    given["m3"] = 4
    assert vs.mapping == {"m2": 2, "m3": 3} and vs.index_of("m3") == 3


def test_value_constructors_check_and_normalise():
    with pytest.raises(WordError, match="non-empty"):
        Product(())
    assert GroupWord((("x", 1), ("y", 1), ("y", -1), ("x", -1))).letters == ()
    assert GroupWord(letters=(("x", 1), ("x", -1), ("z", 1))) == Z
    assert GroupWord() == GroupWord(()) and GroupWord().letters == ()
    with pytest.raises(ValueError, match="distinct"):
        VariableSet({"a": 1, "b": 1})
    vs = VariableSet(mapping={"m2": 2})
    assert vs.mapping == {"m2": 2} and vs.index_of("m2") == 2
    eq = Equation(label=4, terms=((1, ("a4", "b1")),), target=1)
    assert (eq.label, eq.terms, eq.target) == (4, ((1, ("a4", "b1")),), 1)


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
    # unmapped leaves stand for themselves
    assert substitute(e, {ABC["x"]: X}) == commutator(X, Y)


def test_substitution_inverts_for_negative_signs():
    e = parse_expr("y^-1", ABC)
    image = X * Z
    assert substitute(e, {ABC["y"]: image}) == image.inverse()


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
