"""The squarefree non-commutative truncated power-series ring and the
Magnus expansion of group words.

Variables x_i are indexed by small integers.  Monomials are ordered
index sequences with no repeats: any product that would repeat an index
is killed, which makes the ring finite-dimensional (326 monomials at
n=5) and makes every inverse a finite geometric series.

A word is trivial in the free Milnor group exactly when its expansion
here is 1; the expansion of g^-1 collapses to 1 - x because the higher
powers of a single variable die in the quotient.  For the same reason
a run of e equal letters expands to (1 +- x)^|e| = 1 + e x, so `expand`
multiplies in one run at a time, updating its terms in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable

from .words import Generator, GroupWord, UnmappedGeneratorError, trailing_index


class NonUnitError(ValueError):
    """Inversion requested for a series whose constant term is not 1."""


@dataclass(frozen=True)
class VariableSet:
    """An ordered set of variable indices plus the generator mapping."""

    mapping: dict  # Generator -> int

    def __post_init__(self):
        idx = list(self.mapping.values())
        if len(set(idx)) != len(idx):
            raise ValueError(f"variable indices must be distinct: {idx}")

    @staticmethod
    def from_generators(gens: Iterable[Generator]) -> "VariableSet":
        """Index by the trailing integer of each name (m2 -> x2) when
        those are present and distinct, positionally otherwise."""
        gens = list(gens)
        suffixes = [trailing_index(g.name) for g in gens]
        if all(s is not None for s in suffixes) and len(set(suffixes)) == len(suffixes):
            return VariableSet(dict(zip(gens, suffixes)))
        return VariableSet({g: i + 1 for i, g in enumerate(gens)})

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.mapping.values()))

    def __len__(self) -> int:
        return len(self.mapping)

    def index_of(self, g: Generator) -> int:
        try:
            return self.mapping[g]
        except KeyError:
            raise UnmappedGeneratorError(
                f"generator {g.name!r} has no variable assigned"
            ) from None


class MagnusPoly:
    """Sparse element of the squarefree ring: monomial tuple -> integer.

    Immutable by discipline; arithmetic returns new values and never
    stores a zero coefficient or a repeated-index monomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = dict(terms) if terms else {}

    @staticmethod
    def one() -> "MagnusPoly":
        return MagnusPoly({(): 1})

    @staticmethod
    def letter(index: int, sign: int) -> "MagnusPoly":
        """Expansion of a single signed letter: 1 + x or 1 - x."""
        return MagnusPoly({(): 1, (index,): sign})

    def __eq__(self, other) -> bool:
        return isinstance(other, MagnusPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "MagnusPoly") -> "MagnusPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            c = out.get(k, 0) + v
            if c:
                out[k] = c
            else:
                out.pop(k, None)
        return MagnusPoly(out)

    def __neg__(self) -> "MagnusPoly":
        return MagnusPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "MagnusPoly") -> "MagnusPoly":
        return self + (-other)

    def __mul__(self, other: "MagnusPoly") -> "MagnusPoly":
        out: dict = {}
        for ka, va in self.terms.items():
            sa = set(ka)
            for kb, vb in other.terms.items():
                if sa & set(kb):
                    continue  # repeated index: dies in the quotient
                k = ka + kb
                c = out.get(k, 0) + va * vb
                if c:
                    out[k] = c
                else:
                    out.pop(k, None)
        return MagnusPoly(out)

    def constant_term(self) -> int:
        return self.terms.get((), 0)

    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def degree_part(self, d: int) -> dict:
        return {k: v for k, v in self.terms.items() if len(k) == d}

    def min_degree(self) -> int | None:
        """Smallest length of a non-constant term, None if there is none."""
        lengths = [len(k) for k in self.terms if k]
        return min(lengths) if lengths else None

    def render(self) -> str:
        """Deterministic text form, monomials in graded lex order."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (len(k), k))
        parts = []
        for i, k in enumerate(keys):
            c = self.terms[k]
            mono = "1" if not k else "".join(f"x{j}" for j in k)
            mag = abs(c)
            body = mono if mag == 1 and k else (f"{mag}" if not k else f"{mag}{mono}")
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MagnusPoly({self.render()})"


def expand(w: GroupWord, vars: VariableSet) -> MagnusPoly:
    """Magnus expansion of a word: the product of its letters'
    expansions, left to right, one run of a generator at a time.

    Multiplying by a run's 1 + e x_i adds e*c to k + (i,) for every
    term c x_k whose k lacks i.  The terms are kept grouped by the set
    of indices they contain (a bitmask), so the sources are whole
    groups without i's bit, and the targets land in groups with it:
    no source changes while a run is multiplied in."""
    bit = {i: 1 << p for p, i in enumerate(vars.indices)}
    by_support = {0: {(): 1}}
    for g, run in groupby(w.letters, key=itemgetter(0)):
        i = vars.index_of(g)
        b = bit[i]
        e = sum(s for _, s in run)
        for support, sources in list(by_support.items()):
            if support & b:
                continue
            targets = by_support.setdefault(support | b, {})
            for k, c in sources.items():
                t = k + (i,)
                c = targets.get(t, 0) + e * c
                if c:
                    targets[t] = c
                else:
                    del targets[t]
    terms: dict = {}
    for group in by_support.values():
        terms.update(group)
    return MagnusPoly(terms)


def invert(p: MagnusPoly) -> MagnusPoly:
    """Inverse via the finite geometric series; the augmentation ideal
    is nilpotent, so (1+m)^-1 = 1 - m + m^2 - ... terminates."""
    if p.constant_term() != 1:
        raise NonUnitError(f"constant term is {p.constant_term()}, not 1")
    m = p - MagnusPoly.one()
    out = MagnusPoly.one()
    power = MagnusPoly.one()
    sign = 1
    while True:
        power = power * m
        if not power.terms:
            return out
        sign = -sign
        out = out + (power if sign > 0 else -power)


def is_trivial_word(w: GroupWord, vars: VariableSet) -> bool:
    """True iff w is trivial in the free Milnor group (expansion == 1)."""
    return expand(w, vars).is_one()


def lcs_degree(w: GroupWord, vars: VariableSet) -> int | None:
    """Lower-central-series degree: the smallest length of a monomial
    with nonzero coefficient in expand(w) - 1; None when the expansion
    is exactly 1 (depth is infinite)."""
    return expand(w, vars).min_degree()
