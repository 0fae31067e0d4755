"""The squarefree non-commutative truncated power-series ring and the
Magnus expansion of group words.

Variables x_i are indexed by small integers; a `VariableSet` assigns
them to generator names.  Monomials are ordered index sequences with no
repeats: any product that would repeat an index is killed, which makes
the ring finite-dimensional (326 monomials at n=5).

A word is trivial in the free Milnor group exactly when its expansion
here is 1; the expansion of g^-1 collapses to 1 - x because the higher
powers of a single variable die in the quotient.  For the same reason
a run of e equal letters expands to (1 +- x)^|e| = 1 + e x, so `expand`
multiplies in one run at a time, updating its terms in place.  The
verifier only compares and prints expansions, so `MagnusPoly` has no
ring arithmetic; the letter-by-letter product that `expand` is tested
against lives with the tests.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import groupby
from operator import itemgetter

from .words import GroupWord, UnmappedGeneratorError, _Value, trailing_index


class VariableSet(_Value):
    """Generator names and the distinct variable indices they map to."""

    __slots__ = ("mapping",)  # name -> int

    def __init__(self, mapping: dict):
        idx = list(mapping.values())
        if len(set(idx)) != len(idx):
            raise ValueError(f"variable indices must be distinct: {idx}")
        object.__setattr__(self, "mapping", mapping)

    @staticmethod
    def from_generators(names: Iterable[str]) -> "VariableSet":
        """Index by the trailing integer of each name (m2 -> x2) when
        those are present and distinct, positionally otherwise."""
        names = list(names)
        suffixes = [trailing_index(n) for n in names]
        if all(s is not None for s in suffixes) and len(set(suffixes)) == len(suffixes):
            return VariableSet(dict(zip(names, suffixes)))
        return VariableSet({n: i + 1 for i, n in enumerate(names)})

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.mapping.values()))

    def __len__(self) -> int:
        return len(self.mapping)

    def index_of(self, name: str) -> int:
        try:
            return self.mapping[name]
        except KeyError:
            raise UnmappedGeneratorError(
                f"generator {name!r} has no variable assigned"
            ) from None


class MagnusPoly:
    """Sparse element of the squarefree ring: monomial tuple -> integer,
    with no zero coefficient and no repeated-index monomial.  It is the
    value `expand` returns, read by comparison and printing only."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = dict(terms) if terms else {}

    def __eq__(self, other) -> bool:
        return isinstance(other, MagnusPoly) and self.terms == other.terms

    def is_one(self) -> bool:
        return self.terms == {(): 1}

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


#: Most terms an expansion may hold after any run.  A word over n
#: generators can reach every monomial of the ring (109 601 at n = 8),
#: and a product of n distinct generators reaches 2^n, so a longer
#: input is refused before its next run can double the count again.
MAX_TERMS = 200_000


def expand(w: GroupWord, vars: VariableSet) -> MagnusPoly:
    """Magnus expansion of a word: the product of its letters'
    expansions, left to right, one run of a generator at a time.

    Multiplying by a run's 1 + e x_i adds e*c to k + (i,) for every
    term c x_k whose k lacks i.  The terms are kept grouped by the set
    of indices they contain (a bitmask), so the sources are whole
    groups without i's bit, and the targets land in groups with it:
    no source changes while a run is multiplied in.  More than
    MAX_TERMS live terms after a run is a ValueError."""
    bit = {i: 1 << p for p, i in enumerate(vars.indices)}
    by_support = {0: {(): 1}}
    live = 1
    for g, run in groupby(w.letters, key=itemgetter(0)):
        i = vars.index_of(g)
        b = bit[i]
        e = sum(s for _, s in run)
        for support, sources in list(by_support.items()):
            if support & b:
                continue
            targets = by_support.setdefault(support | b, {})
            before = len(targets)
            for k, c in sources.items():
                t = k + (i,)
                c = targets.get(t, 0) + e * c
                if c:
                    targets[t] = c
                else:
                    del targets[t]
            live += len(targets) - before
        if live > MAX_TERMS:
            raise ValueError(
                f"Magnus expansion exceeds the limit of {MAX_TERMS} terms "
                f"over {len(vars)} variables"
            )
    terms: dict = {}
    for group in by_support.values():
        terms.update(group)
    return MagnusPoly(terms)


def is_trivial_word(w: GroupWord, vars: VariableSet) -> bool:
    """True iff w is trivial in the free Milnor group (expansion == 1)."""
    return expand(w, vars).is_one()


def lcs_degree(w: GroupWord, vars: VariableSet) -> int | None:
    """Lower-central-series degree: the smallest length of a monomial
    with nonzero coefficient in expand(w) - 1; None when the expansion
    is exactly 1 (depth is infinite)."""
    return expand(w, vars).min_degree()
