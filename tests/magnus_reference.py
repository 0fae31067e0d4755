"""Reference for the Magnus expansion: the ring product of the
squarefree ring, taken letter by letter.  It is the definition
`magnus.expand` is held against, and it shares nothing with the
run-wise expansion but the variable assignment.

Polynomials are MagnusPoly values: monomial tuple -> integer, with no
zero coefficient and no repeated-index monomial.
"""

from commcalc.magnus import MagnusPoly, VariableSet
from commcalc.words import GroupWord

ONE = MagnusPoly({(): 1})


def product(p: MagnusPoly, q: MagnusPoly) -> MagnusPoly:
    """p * q in the squarefree ring: a monomial that repeats an index dies."""
    out: dict = {}
    for ka, va in p.terms.items():
        sa = set(ka)
        for kb, vb in q.terms.items():
            if sa & set(kb):
                continue
            k = ka + kb
            c = out.get(k, 0) + va * vb
            if c:
                out[k] = c
            else:
                out.pop(k, None)
    return MagnusPoly(out)


def letter_by_letter(w: GroupWord, vars: VariableSet) -> MagnusPoly:
    """The definition: the ring product of every letter's 1 + x or 1 - x."""
    p = ONE
    for g, s in w.letters:
        p = product(p, MagnusPoly({(): 1, (vars.index_of(g),): s}))
    return p


def degree_part(p: MagnusPoly, d: int) -> dict:
    """The terms of p of degree d."""
    return {k: v for k, v in p.terms.items() if len(k) == d}
