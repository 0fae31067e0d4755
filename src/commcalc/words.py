"""Free-group words over a declared generator alphabet, commutator
expression trees, parsing, free reduction, and substitution.

A generator is its name: a letter is a (name, sign) pair and a `Leaf`
holds a name, so one name means one generator whichever alphabet
declared it.  An `Alphabet` only checks that parsed names were
declared.

Conventions (fixed so the classical commutator identities hold
letter-for-letter):

    [x, y] = x^-1 y^-1 x y        x^g = g^-1 x g

Under these, [x,yz] = [x,z] [x,y]^z, [xz,y] = [x,y]^z [z,y], and the
Hall-Witt word [[x,y],z^x] [[z,x],y^z] [[y,z],x^y] freely reduces to
the identity.

Building a word costs time linear in its length.  A product of two
reduced words can cancel only at the junction, so `GroupWord.__mul__`
strips the matching letters there and reduces nothing else; a power or
a `Product` expression joins all its letters and reduces them once
with a stack.  Flattened words are limited to `MAX_WORD_LENGTH`
letters: each level of a commutator doubles the length, so twenty
nested brackets already give two million letters.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import chain


class WordError(ValueError):
    pass


class UnmappedGeneratorError(WordError):
    """A generator with no Magnus variable assigned to it."""


class ParseError(WordError):
    def __init__(self, message: str, offset: int, expected: str = ""):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class _Value:
    """Base of commcalc's immutable values.  A subclass names its fields
    in __slots__ and sets them once in __init__ through
    object.__setattr__; equality is by type and fields, the hash
    matches it, the repr reads `Leaf(gen='x')`, and assigning or
    deleting an attribute raises AttributeError."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet:
    """The generator names of a session, declared up front.

    Parsing refuses names outside the alphabet; this catches typos in
    expression input instead of silently minting new generators.
    """

    def __init__(self, names: Iterable[str]):
        names = list(names)
        self._names = dict.fromkeys(names)
        if len(self._names) != len(names):
            raise WordError(f"duplicate generator names in {names}")
        for n in names:
            if not n or _name_end(n, 0) != len(n):
                raise WordError(f"invalid generator name: {n!r}")

    @property
    def generators(self) -> tuple[str, ...]:
        """The names in declaration order."""
        return tuple(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._names


def _name_end(text: str, start: int) -> int:
    """End of the generator name at text[start] -- a letter, then
    letters and digits -- or start when no name starts there."""
    end = start
    while end < len(text) and (text[end].isalnum() if end > start else text[end].isalpha()):
        end += 1
    return end


def generator_names(text: str) -> list[str]:
    """The distinct generator names in text, in order of first
    appearance, read by the parser's rule."""
    names, pos = {}, 0
    while pos < len(text):
        end = _name_end(text, pos)
        if end > pos:
            names[text[pos:end]] = None
        pos = max(end, pos + 1)
    return list(names)


def trailing_index(name: str) -> int | None:
    """The decimal number a generator name ends in (m2 -> 2), or None.
    A number too long for int() to read is a WordError."""
    start = len(name)
    while start > 0 and name[start - 1].isdecimal():
        start -= 1
    if start == len(name):
        return None
    try:
        return int(name[start:])
    except ValueError:
        raise WordError(
            f"generator {name!r} ends in a number of {len(name) - start} digits, "
            "too long to index"
        ) from None


#: Most letters a flattened word may have.  Powers above this are a
#: ParseError and longer expression words a WordError, so hostile input
#: fails at once instead of exhausting time or memory.
MAX_WORD_LENGTH = 10**6


def _reduce_letters(letters) -> tuple:
    """Freely reduce (name, sign) pairs with a stack, keeping each pair
    given (as a tuple), so a power's repeated letters stay shared."""
    out: list = []
    for letter in letters:
        g, s = letter
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append(tuple(letter))
    return tuple(out)


def _reduced(letters: tuple) -> "GroupWord":
    """Wrap letters that are already freely reduced, skipping the pass."""
    w = object.__new__(GroupWord)
    object.__setattr__(w, "letters", letters)
    return w


class GroupWord(_Value):
    """An element of the free group in normal form.

    letters is a tuple of (name, sign) pairs with sign in {+1,-1};
    the constructor freely reduces, so equal group elements compare equal.
    Immutable: all operations return new words.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: tuple = ()):
        object.__setattr__(self, "letters", _reduce_letters(letters))

    @staticmethod
    def generator(g: str, sign: int = 1) -> "GroupWord":
        if sign not in (1, -1):
            raise WordError(f"sign must be +1 or -1, got {sign}")
        return GroupWord(((g, sign),))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        # both factors are reduced, so only the junction can cancel
        a, b = self.letters, other.letters
        k, n = 0, min(len(a), len(b))
        while k < n and a[-1 - k][0] == b[k][0] and a[-1 - k][1] == -b[k][1]:
            k += 1
        return _reduced(a[: len(a) - k] + b[k:])

    def inverse(self) -> "GroupWord":
        return _reduced(tuple((g, -s) for g, s in reversed(self.letters)))

    def conjugate(self, by: "GroupWord") -> "GroupWord":
        """self^by = by^-1 * self * by."""
        return by.inverse() * self * by

    def __pow__(self, n: int) -> "GroupWord":
        if n < 0:
            return self.inverse() ** (-n)
        return GroupWord(self.letters * n)

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(g if s == 1 else f"{g}^-1" for g, s in self.letters)


def commutator(x: GroupWord, y: GroupWord) -> GroupWord:
    """[x,y] = x^-1 y^-1 x y, freely reduced."""
    return x.inverse() * y.inverse() * x * y


# ---------------------------------------------------------------------------
# commutator expressions


class CommExpr(_Value):
    __slots__ = ()


class Leaf(CommExpr):
    __slots__ = ("gen",)

    def __init__(self, gen: str):
        object.__setattr__(self, "gen", gen)


class Inverse(CommExpr):
    __slots__ = ("base",)

    def __init__(self, base: CommExpr):
        object.__setattr__(self, "base", base)


class Product(CommExpr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        if not factors:
            raise WordError("products must be non-empty")
        object.__setattr__(self, "factors", factors)


class Commutator(CommExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: CommExpr, right: CommExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Conjugate(CommExpr):
    __slots__ = ("base", "by")

    def __init__(self, base: CommExpr, by: CommExpr):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "by", by)


# --- parsing ---------------------------------------------------------------
#
# expr     := factor { "*" factor }
# factor   := base [ "^" exponent ]
# base     := GENERATOR | "[" expr "," expr "]" | "(" expr ")"
# exponent := "-"? INTEGER | base        (integer = power, base = conjugation)
#
# Whitespace is insignificant; "^-1" binds tighter than "*".

#: Deepest bracket/parenthesis nesting the parser accepts.  The paper's
#: expressions nest fewer than 10 levels; the limit keeps the recursive
#: parser and tree walks far from the interpreter's recursion limit.
MAX_NESTING = 100


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            raise ParseError(
                f"unexpected {self.peek()!r}" if self.peek() else "unexpected end of input",
                self.pos,
                expected=repr(ch),
            )
        self.pos += 1

    def open(self, ch: str):
        self.take(ch)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.pos - 1)

    def close(self, ch: str):
        self.take(ch)
        self.depth -= 1

    def name(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        self.pos = _name_end(self.text, start)
        if self.pos == start:
            raise ParseError(
                f"unexpected {self.peek()!r}" if self.peek() else "unexpected end of input",
                start,
                expected="generator name, '[' or '('",
            )
        return self.text[start:self.pos], start

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if self.pos >= len(self.text) or not self.text[self.pos].isdecimal():
            raise ParseError("bad exponent", start, expected="integer or base")
        first = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        # int() refuses more than 4300 digits; an exponent with more
        # digits than MAX_WORD_LENGTH is out of range, which _power reports
        if len(self.text[first:self.pos].lstrip("0")) > len(str(MAX_WORD_LENGTH)):
            return (-1 if first > start else 1) * (MAX_WORD_LENGTH + 1)
        return int(self.text[start:self.pos])


def parse_expr(text: str, alphabet: Alphabet) -> CommExpr:
    """Parse the concrete syntax into its unique expression tree."""
    toks = _Tokens(text)
    e = _parse_expr(toks, alphabet)
    toks.skip_ws()
    if toks.pos != len(text):
        raise ParseError(f"trailing input {text[toks.pos:]!r}", toks.pos, expected="end of input")
    return e


def _parse_expr(toks: _Tokens, alphabet: Alphabet) -> CommExpr:
    factors = [_parse_factor(toks, alphabet)]
    while toks.peek() == "*":
        toks.take("*")
        factors.append(_parse_factor(toks, alphabet))
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def _parse_factor(toks: _Tokens, alphabet: Alphabet) -> CommExpr:
    base = _parse_base(toks, alphabet)
    if toks.peek() != "^":
        return base
    toks.take("^")
    ch = toks.peek()
    if ch == "-" or ch.isdecimal():
        at = toks.pos
        n = toks.integer()
        return _power(base, n, at)
    return Conjugate(base, _parse_base(toks, alphabet))


def _power(base: CommExpr, n: int, offset: int) -> CommExpr:
    if n == 0:
        raise ParseError("zero exponent has no expression form", offset, expected="nonzero integer")
    if abs(n) > MAX_WORD_LENGTH:
        raise ParseError(f"exponent larger than {MAX_WORD_LENGTH} in absolute value", offset)
    if n < 0:
        return Inverse(_power(base, -n, offset))
    if n == 1:
        return base
    return Product(tuple([base] * n))


def _parse_base(toks: _Tokens, alphabet: Alphabet) -> CommExpr:
    ch = toks.peek()
    if ch == "[":
        toks.open("[")
        left = _parse_expr(toks, alphabet)
        toks.take(",")
        right = _parse_expr(toks, alphabet)
        toks.close("]")
        return Commutator(left, right)
    if ch == "(":
        toks.open("(")
        inner = _parse_expr(toks, alphabet)
        toks.close(")")
        return inner
    name, start = toks.name()
    if name not in alphabet:
        raise ParseError(f"unknown generator {name!r}", start, expected="declared generator")
    return Leaf(name)


def print_expr(e: CommExpr) -> str:
    """Concrete syntax for an expression; parse(print_expr(e)) is
    structurally identical to e for parser-produced trees."""
    if isinstance(e, Leaf):
        return e.gen
    if isinstance(e, Inverse):
        return f"{_print_base(e.base)}^-1"
    if isinstance(e, Product):
        return "*".join(_print_factor(f) for f in e.factors)
    if isinstance(e, Commutator):
        return f"[{print_expr(e.left)},{print_expr(e.right)}]"
    if isinstance(e, Conjugate):
        return f"{_print_base(e.base)}^{_print_base(e.by)}"
    raise TypeError(f"not a CommExpr: {e!r}")


def _print_base(e: CommExpr) -> str:
    if isinstance(e, (Leaf, Commutator)):
        return print_expr(e)
    return f"({print_expr(e)})"


def _print_factor(e: CommExpr) -> str:
    if isinstance(e, Product):
        return f"({print_expr(e)})"
    return print_expr(e)


def signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """The text "a + b - c" of (coefficient, text) pairs in the order
    given, each text its term's magnitude signed by its coefficient;
    "0" when there are none."""
    text = " ".join(f"+ {t}" if c > 0 else f"- {t}" for c, t in terms)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


# --- evaluation ------------------------------------------------------------


def substitute(e: CommExpr, mapping: Mapping[str, GroupWord]) -> GroupWord:
    """Flatten e to a reduced word, replacing the leaves whose names
    are mapped by their image words; the others stand for themselves."""
    if isinstance(e, Leaf):
        if e.gen in mapping:
            return mapping[e.gen]
        return GroupWord.generator(e.gen)
    if isinstance(e, Inverse):
        return substitute(e.base, mapping).inverse()
    if isinstance(e, Product):
        # a parsed power repeats one factor object n times: flatten it once
        flat: dict = {}
        for f in e.factors:
            if id(f) not in flat:
                flat[id(f)] = substitute(f, mapping).letters
        parts = [flat[id(f)] for f in e.factors]
        _check_length(sum(map(len, parts)))
        return GroupWord(tuple(chain.from_iterable(parts)))
    if isinstance(e, Commutator):
        x = substitute(e.left, mapping)
        y = substitute(e.right, mapping)
        _check_length(2 * (len(x) + len(y)))
        return commutator(x, y)
    if isinstance(e, Conjugate):
        x = substitute(e.base, mapping)
        by = substitute(e.by, mapping)
        _check_length(len(x) + 2 * len(by))
        return x.conjugate(by)
    raise TypeError(f"not a CommExpr: {e!r}")


def _check_length(bound: int) -> None:
    if bound > MAX_WORD_LENGTH:
        raise WordError(
            f"word of up to {bound} letters exceeds the limit of {MAX_WORD_LENGTH}"
        )


def expr_to_word(e: CommExpr) -> GroupWord:
    """The freely reduced word of e under the fixed conventions."""
    return substitute(e, {})
