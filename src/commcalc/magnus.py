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
multiplies in one run at a time.  It packs the coefficients of all
monomials over one set of variables into one integer (Kronecker
substitution), so a run costs one shift-multiply-add per such set and
C big-integer arithmetic does the work per coefficient.  Each set a
word reaches costs all of its slots, filled or not: the packing gains
on words that fill their sets, and a sparse word over 8 generators
(m1 m2 ... m8: 256 terms in 109 601 slots) costs more than it would
term by term.  The verifier only compares and prints expansions, so
`MagnusPoly` has no ring arithmetic; the letter-by-letter product that
`expand` is tested against lives with the tests.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from itertools import compress, groupby, islice, permutations, repeat
from math import factorial
from operator import itemgetter, lshift, or_

from .words import GroupWord, UnmappedGeneratorError, _Value, trailing_index


class VariableSet(_Value):
    """Generator names and the distinct variable indices they map to.
    It keeps its own copy of the mapping and hashes over its sorted
    items, as a dict does not hash."""

    __slots__ = ("mapping",)  # name -> int

    def __init__(self, mapping: dict):
        idx = list(mapping.values())
        if len(set(idx)) != len(idx):
            raise ValueError(f"variable indices must be distinct: {idx}")
        object.__setattr__(self, "mapping", dict(mapping))

    def __hash__(self):
        return hash(tuple(sorted(self.mapping.items())))

    @staticmethod
    def from_generators(names: Iterable[str]) -> "VariableSet":
        """Index by the trailing integer of each name (m2 -> x2) when
        those are present and distinct, positionally otherwise."""
        names = list(names)
        suffixes = [trailing_index(n) for n in names]
        if all(s is not None for s in suffixes) and len(set(suffixes)) == len(suffixes):
            return VariableSet(dict(zip(names, suffixes)))
        return VariableSet({n: i + 1 for i, n in enumerate(names)})

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
        """True iff the expanded word is trivial in the free Milnor group."""
        return self.terms == {(): 1}

    def min_degree(self) -> int | None:
        """The expanded word's lower-central-series degree: the smallest
        length of a non-constant term, None when there is none (the
        expansion is 1 and the depth infinite)."""
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


#: Most monomial slots an expansion may hold: a support (the set of
#: variables a monomial uses) of k variables holds k! slots once the
#: word reaches it.  The whole ring over 8 generators has 109 601 slots;
#: one support of 9 variables has 9! = 362 880, so a word that reaches a
#: monomial over 9 generators is refused.
MAX_TERMS = 200_000

#: Most work an expansion may do: each run adds the slots reached
#: before it times the 64-bit words per slot, which bounds the words its
#: shift-multiply-adds touch.  It admits (m1 m2 ... m8)^110, whose 880
#: runs reach all 109 601 slots of the 8-generator ring, and refuses
#: ^111, whose coefficients take two words per slot.
MAX_WORK = 10**8


def expand(w: GroupWord, vars: VariableSet) -> MagnusPoly:
    """Magnus expansion of a word: the product of its runs' 1 + e x_i,
    multiplied in on the left from the last run to the first.

    The terms are grouped by support S, the set of variables a monomial
    uses (a bitmask of the word's generators in index order).  S keeps
    one integer, the sum of c(o) * 2^(W * slot(o)) over its |S|!
    orderings o; it is the ring map x -> 2^W applied slot by slot, so
    it is exact for any W.  Slot order is lexicographic in the indices,
    as itertools.permutations lists them: the orderings of S | i that
    start with i are one block, at offset rank(i in S | i) * |S|!,
    holding S's own orderings in S's slot order.  Multiplying
    1 + e x_i in on the left is therefore one shift-multiply-add per
    support S that lacks i, and no source changes while a run is
    multiplied in.

    Width: a degree-k coefficient is a sum, over k runs, of products
    of their exponents, so with t the sum of |e| over the runs it is
    at most e_k(|e|) <= t^k / k! in size.  Here k is at most the number
    of distinct generators in the word, and k! <= MAX_TERMS, since a
    larger support is refused.  W is the least multiple of 64 with
    2^(W-1) above that bound.  At the end, adding half = 2^(W-1) to
    every slot and flipping that bit back leaves each slot's
    coefficient as a W-bit two's-complement field, read in 64-bit
    words.

    A support takes its |S|! slots when a run first reaches it; more
    than MAX_TERMS slots is a ValueError, and so is more than MAX_WORK
    work, each run costing the slots reached before it times q."""
    # (index, name) of each generator of the word, looked up in word
    # order, so the first unmapped one is the one reported
    used = sorted((vars.index_of(g), g) for g in dict.fromkeys(map(itemgetter(0), w.letters)))
    bits = {g: 1 << p for p, (_, g) in enumerate(used)}
    t = len(w)  # a reduced word's runs each have one sign
    top = 0  # the most variables a support may have
    while top < len(used) and factorial(top + 1) <= MAX_TERMS:
        top += 1
    bound = max(t**k // factorial(k) for k in range(top + 1))
    q = bound.bit_length() // 64 + 1  # 64-bit words per slot
    width = 64 * q
    packed = {0: 1}
    slots, work = 1, 0
    # bit -> (supports looked at, [(support without the bit, with it,
    # shift of its block there)]); a run of the bit first looks at the
    # supports reached since its last run, so the lists hold only the
    # supports reached and only the bits whose runs have come
    sources: dict = {}
    for g, run in groupby(reversed(w.letters), itemgetter(0)):
        e = sum(map(itemgetter(1), run))
        work += slots * q
        if work > MAX_WORK:
            raise ValueError(
                f"Magnus expansion exceeds the work limit of {MAX_WORK} slot words "
                f"over {len(vars)} variables"
            )
        b = bits[g]
        looked, found = sources.get(b, (0, []))
        for support in islice(packed, looked, None):
            if not support & b:
                shift = width * factorial(support.bit_count()) * (support & (b - 1)).bit_count()
                found.append((support, support | b, shift))
        sources[b] = (len(packed), found)
        for support, target, shift in found:
            p = packed[support]
            if not p:
                continue
            if target in packed:
                packed[target] += (e * p) << shift
                continue
            slots += factorial(target.bit_count())
            if slots > MAX_TERMS:
                raise ValueError(
                    f"Magnus expansion exceeds the limit of {MAX_TERMS} terms "
                    f"over {len(vars)} variables"
                )
            packed[target] = (e * p) << shift

    field = (1 << (width - 1)).to_bytes(8 * q, "little")
    step = 1 if sys.byteorder == "little" else -1  # 64-bit words, low first
    biases: dict = {}  # slots -> half in each of them
    terms: dict = {}
    for support, p in packed.items():
        asc = [i for k, (i, _) in enumerate(used) if support >> k & 1]
        m = factorial(len(asc))
        if m not in biases:
            biases[m] = int.from_bytes(field * m, "little")
        raw = memoryview(((p + biases[m]) ^ biases[m]).to_bytes(8 * q * m, sys.byteorder))
        coeffs = raw.cast("q")[::step][q - 1 :: q].tolist()  # the signed top words
        for r in reversed(range(q - 1)):
            low = raw.cast("Q")[::step][r::q].tolist()
            coeffs = list(map(or_, map(lshift, coeffs, repeat(64)), low))
        terms.update(zip(compress(permutations(asc), coeffs), filter(None, coeffs)))
    return MagnusPoly(terms)

