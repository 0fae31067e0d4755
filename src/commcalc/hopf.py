"""End-to-end certification of the doubled-handlebody computation for
the two-component case: build the recorded longitude word, apply the
band-sum substitution, and certify triviality in the free Milnor group
over the three remaining meridians.

The longitude is the fixed expression

    [[m3, m4*b] * [b, m4], m2*a]

over meridians m2, m3, m4 and the two relator meridians a, b.  The
admissibility policy mirrors the standard-embedding restriction at the
homological level: a substitutes to a word in {m3, m4} only and b to a
word in {m2} only (a slice must not run over the handle of its own
piece).
"""

from __future__ import annotations

from itertools import product

from . import magnus
from .words import (
    Alphabet,
    CommExpr,
    GroupWord,
    commutator,
    parse_expr,
    substitute,
)

L1_TEXT = "[[m3,m4*b]*[b,m4],m2*a]"

#: The meridians the substituted longitude is a word in.
MERIDIANS = ("m2", "m3", "m4")

#: Same word with the second b-meridian reversed: the variant produced
#: by a twisted band in the defining diagram.
L1_TWISTED_TEXT = "[[m3,m4*b]*[b^-1,m4],m2*a]"


class InadmissibleSubstitutionError(ValueError):
    pass


class HopfScenario:
    """The fixed longitude expression plus the admissibility policy."""

    def __init__(self, twisted: bool = False):
        self.alphabet = Alphabet([*MERIDIANS, "a", "b"])
        self.twisted = twisted
        self.expression: CommExpr = parse_expr(
            L1_TWISTED_TEXT if twisted else L1_TEXT, self.alphabet
        )
        self.vars = magnus.VariableSet.from_generators(MERIDIANS)

    def admissible(self, sub: dict) -> bool:
        return (
            set(sub) == {"a", "b"}
            and sub["a"].generators() <= {"m3", "m4"}
            and sub["b"].generators() <= {"m2"}
        )

    def substitution(self, a_word: str, b_word: str) -> dict:
        return {"a": self.alphabet.word(a_word), "b": self.alphabet.word(b_word)}

    def power_substitution(self, s3: int, s4: int, t: int) -> dict:
        """a -> m3^s3 m4^s4, b -> m2^t."""
        m2, m3, m4 = (GroupWord.generator(m) for m in MERIDIANS)
        return {"a": m3**s3 * m4**s4, "b": m2**t}

    def build_substituted_l1(self, sub: dict) -> GroupWord:
        """The freely reduced longitude after band-sum substitution,
        as a word over {m2, m3, m4}."""
        if not self.admissible(sub):
            raise InadmissibleSubstitutionError(
                "substitution must send a to a word in {m3,m4} and b to a word in {m2}"
            )
        return substitute(self.expression, sub)

    def is_trivializing(self, sub: dict) -> bool:
        return magnus.is_trivial_word(self.build_substituted_l1(sub), self.vars)


def find_substitutions(bound: int, twisted: bool = False) -> list[tuple[int, int, int]]:
    """All (s3, s4, t) with |s3|,|s4|,|t| <= bound whose substitution
    a -> m3^s3 m4^s4, b -> m2^t trivializes the longitude, in
    lexicographic order."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    scenario = HopfScenario(twisted=twisted)
    rng = range(-bound, bound + 1)
    return [
        (s3, s4, t)
        for s3, s4, t in product(rng, rng, rng)
        if scenario.is_trivializing(scenario.power_substitution(s3, s4, t))
    ]


def _identity_certificates() -> dict:
    """Free-word identities behind the reduction: the commutator product
    rules, the inverse rule [x^-1,y] = [y,x]^(x^-1), and the Hall-Witt
    word, over every ordered triple of distinct meridians."""
    gens = [GroupWord.generator(m) for m in MERIDIANS]
    product_left = True
    product_right = True
    inverse_rule = True
    hall_witt = True
    triples = [
        (x, y, z)
        for x in gens for y in gens for z in gens
        if len({x.letters, y.letters, z.letters}) == 3
    ]
    for x, y, z in triples:
        lhs = commutator(x, y * z)
        rhs = commutator(x, z) * commutator(x, y).conjugate(z)
        product_left &= (lhs * rhs.inverse()).is_identity()
        lhs = commutator(x * z, y)
        rhs = commutator(x, y).conjugate(z) * commutator(z, y)
        product_right &= (lhs * rhs.inverse()).is_identity()
        lhs = commutator(x.inverse(), y)
        rhs = commutator(y, x).conjugate(x.inverse())
        inverse_rule &= (lhs * rhs.inverse()).is_identity()
        hw = (
            commutator(commutator(x, y), z.conjugate(x))
            * commutator(commutator(z, x), y.conjugate(z))
            * commutator(commutator(y, z), x.conjugate(y))
        )
        hall_witt &= hw.is_identity()
    return {
        "product_identity_left": product_left,
        "product_identity_right": product_right,
        "inverse_conjugation_identity": inverse_rule,
        "hall_witt_trivial": hall_witt,
    }


def verify_hopf_triviality() -> dict:
    """The full certificate: (i) the band-sum substitution a -> m3 m4,
    b -> m2^-1 makes the longitude expand to 1 over x2, x3, x4;
    (ii) the three-commutator product left after collecting commutators
    is itself trivial (the Jacobi relation); (iii) the free-word
    identities used along the way hold verbatim."""
    scenario = HopfScenario()
    sub = scenario.substitution("m3*m4", "m2^-1")
    word = scenario.build_substituted_l1(sub)
    expansion = magnus.expand(word, scenario.vars)

    m = {n: GroupWord.generator(n) for n in MERIDIANS}
    jacobi_word = (
        commutator(commutator(m["m3"], m["m4"]), m["m2"])
        * commutator(commutator(m["m2"], m["m3"]), m["m4"])
        * commutator(commutator(m["m4"], m["m2"]), m["m3"])
    )
    jacobi_trivial = magnus.is_trivial_word(jacobi_word, scenario.vars)

    report = {
        "substitution": {"a": "m3*m4", "b": "m2^-1"},
        "substituted_word": str(word),
        "substituted_word_length": len(word),
        "magnus_expansion": expansion.render(),
        "substituted_trivial": expansion.is_one(),
        "jacobi_product_trivial": jacobi_trivial,
    }
    report.update(_identity_certificates())
    report["all_passed"] = all(
        report[k]
        for k in (
            "substituted_trivial",
            "jacobi_product_trivial",
            "product_identity_left",
            "product_identity_right",
            "inverse_conjugation_identity",
            "hall_witt_trivial",
        )
    )
    return report


def twisted_band_report(bound: int = 2) -> dict:
    """The twisted-band variant still admits admissible trivializing
    substitutions; record the search result."""
    found = find_substitutions(bound, twisted=True)
    return {"bound": bound, "found": found, "solvable": bool(found)}
