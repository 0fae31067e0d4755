"""Formal multilinear commutators, their tensor expansions, exact
integer linear algebra, and the dimension/intersection computations
for the degree-5 commutator space.

A bracket tree expands recursively by [a,b] -> ab - ba into the
multilinear component of the tensor algebra: a signed sum of
permutation monomials.  The relation subspace (Jacobi plus
antisymmetry) is handled operationally as the kernel of this expansion
map, which identifies the quotient with the multilinear free-Lie
component of dimension (d-1)!.

The 24 right-normed commutators [i1,[i2,[i3,[i4,6]]]] are the standard
basis of the degree-5 component (Reutenauer, Free Lie Algebras, 1993),
and each one expands to exactly one monomial ending in 6, namely
i1 i2 i3 i4 6, with coefficient +1.  So a Lie element's coordinates
are its expansion's coefficients on those monomials (_read_off), and
as the basis expansions are the identity there, coordinates map to
tensors injectively: every rank and kernel is taken on the 24
coordinates, and equals the one on the 120 tensor columns.

Trees are nested tuples over distinct integer indices: a leaf is an
int, a bracket is a pair (left, right).  Example, right-normed:
(2, (3, (4, (5, 6)))).
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Sequence
from itertools import permutations

CommTree = int | tuple
TensorVec = dict  # permutation tuple -> integer coefficient


class TreeError(ValueError):
    pass


def tree_leaves(t: CommTree) -> tuple[int, ...]:
    if isinstance(t, int):
        return (t,)
    if isinstance(t, tuple) and len(t) == 2:
        return tree_leaves(t[0]) + tree_leaves(t[1])
    raise TreeError(f"not a bracket tree: {t!r}")


def check_multilinear(t: CommTree) -> tuple[int, ...]:
    leaves = tree_leaves(t)
    if len(set(leaves)) != len(leaves):
        raise TreeError(f"repeated leaf index in {t!r}")
    return leaves


def right_normed(indices: Sequence[int]) -> CommTree:
    """[i1,[i2,[...,[i_{d-1},i_d]...]]]"""
    if len(indices) < 2:
        raise TreeError("need at least two indices")
    t: CommTree = indices[-1]
    for i in reversed(indices[:-1]):
        t = (i, t)
    return t


def expand_tree(t: CommTree) -> TensorVec:
    """Tensor expansion: [a,b] -> ab - ba recursively.  Coefficients of
    the resulting permutation monomials are all in {-1, 0, +1}."""
    check_multilinear(t)
    return _expand(t)


def _expand(t: CommTree) -> TensorVec:
    if isinstance(t, int):
        return {(t,): 1}
    a, b = _expand(t[0]), _expand(t[1])
    out: TensorVec = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + va * vb
            k = kb + ka
            out[k] = out.get(k, 0) - va * vb
    return {k: v for k, v in out.items() if v}


def tree_text(t: CommTree) -> str:
    if isinstance(t, int):
        return f"m{t}"
    return f"[{tree_text(t[0])},{tree_text(t[1])}]"


def comm_expr_to_tree(expr) -> CommTree:
    """Convert a parsed expression built from commutators and single
    generators into a bracket tree, keyed by each generator's trailing
    integer (m2 -> 2)."""
    from .words import Commutator, Leaf, trailing_index

    if isinstance(expr, Leaf):
        index = trailing_index(expr.gen)
        if index is None:
            raise TreeError(f"generator {expr.gen!r} has no integer index")
        return index
    if isinstance(expr, Commutator):
        return (comm_expr_to_tree(expr.left), comm_expr_to_tree(expr.right))
    raise TreeError("only commutators and single generators form bracket trees")


# ---------------------------------------------------------------------------
# exact integer matrices


# Named so for the benchmark's tracer (perfbench/trace_child.py), which
# wraps rank and left_kernel by name for its lie.rank_ms metric: the
# lemma's printed matrix takes one left_kernel elimination, which finds
# its rank too, and the generator labels' matrix one rank.
class RationalMatrix:
    """Dense integer matrix.  Elimination is fraction-free (Bareiss,
    1968) with first-nonzero pivoting, so every derived quantity (rank,
    kernel basis) is deterministic."""

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = [[operator.index(x) for x in r] for r in rows]
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def rank(self) -> int:
        return _eliminate([r[:] for r in self.rows], self.shape[1])

    def left_kernel(self) -> list[list]:
        """Basis of {v : v @ M = 0}: the dependencies among the rows.
        Each basis vector is a list of Fractions scaled so its first
        nonzero entry is 1."""
        from fractions import Fraction  # the one place the Lie layer leaves the integers

        n, m = self.shape
        aug = [self.rows[i] + [int(j == i) for j in range(n)] for i in range(n)]
        rank = _eliminate(aug, m)
        kernel = []
        for row in aug[rank:]:
            lead = next(x for x in row[m:] if x)  # never zero: the identity's rows stay independent
            kernel.append([Fraction(x, lead) for x in row[m:]])
        return kernel


def _eliminate(rows: list, cols: int) -> int:
    """In-place Bareiss forward elimination; returns the rank.  Only the
    first `cols` columns are pivoted on (the rest ride along).  Every
    row below a pivot is updated, so `//` by the previous pivot is exact."""
    n = len(rows)
    piv, prev = 0, 1
    for c in range(cols):
        r = next((i for i in range(piv, n) if rows[i][c]), None)
        if r is None:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        pr = rows[piv]
        p = pr[c]
        for i in range(piv + 1, n):
            f = rows[i][c]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], pr)]
        prev = p
        piv += 1
    return piv


# ---------------------------------------------------------------------------
# the degree-5 space over indices {2,...,6} and its distinguished basis

INDICES = (2, 3, 4, 5, 6)

#: The 24 spanning commutators with right-most index 6, in lex order of
#: their first four indices.
BASIS_PERMS = tuple((i1, i2, i3, i4, 6) for (i1, i2, i3, i4) in sorted(permutations((2, 3, 4, 5))))


def to_basis(t: CommTree) -> dict:
    """The unique integer coefficients expressing expand_tree(t) over
    the 24 right-most-index-6 basis commutators, keyed by leaf sequence
    in lex order.  Degree-5 trees over {2..6} only.  They are read off
    the monomials ending in 6; TreeError if they do not expand back."""
    leaves = check_multilinear(t)
    if sorted(leaves) != list(INDICES):
        raise TreeError(f"to_basis needs leaves {INDICES}, got {sorted(leaves)}")
    coeffs = _read_off(t)
    if coeffs is None:
        raise TreeError("vector outside the span of the basis expansions")
    return coeffs


def _read_off(t: CommTree) -> dict | None:
    """The coefficients of expand_tree(t) at its monomials ending in its
    largest leaf (6 in degree 5), or None unless that combination of
    right-normed commutators expands back to it."""
    vec = expand_tree(t)
    last = max(tree_leaves(t))
    coeffs = {k: vec[k] for k in sorted(vec) if k[-1] == last}
    if combination_vector((c, p) for p, c in coeffs.items()) != vec:
        return None
    return coeffs


def render_combination(coeffs: dict) -> str:
    from .words import signed_sum  # here, so that `verify lemma41` never loads words

    texts = ((c, tree_text(right_normed(p))) for p, c in sorted(coeffs.items()))
    return signed_sum((c, t if abs(c) == 1 else f"{abs(c)}*{t}") for c, t in texts)


# ---------------------------------------------------------------------------
# the fifteen generators and their rewriting table
#
# Each generator has the shape [m_i1, [[m_i2,m_i3],[m_i4,m_i5]]]; the
# table expresses it over the 24-commutator basis.  The source table
# carries four transcription slips, kept verbatim in PRINTED_RHS and
# normalized in APPENDIX_RHS:
#
#   row 12:     the two right-normed terms appear with the orientation
#               of the inner pair reversed (printed row is the exact
#               negative of the true rewriting);
#   rows 13-15: the four terms led by the second inner pair appear
#               negated (a sign slip in the derivation step
#               [x,[P,Q]] = [[x,P],Q] + [P,[x,Q]]).
#
# APPENDIX_RHS is the unique Jacobi/antisymmetry rewriting of each
# labelled commutator; every row is machine-verified against the
# expansion map.  PRINTED_RHS, taken as coordinate vectors over the
# 24-commutator basis, is what the dependency computation
# (verify_lemma_w) runs on: those vectors sum to zero, which is the
# recorded dependency statement.

LEMMA_GENERATORS: tuple = (
    (2, ((3, 4), (5, 6))),
    (2, ((5, 3), (4, 6))),
    (2, ((4, 5), (3, 6))),
    (3, ((4, 2), (5, 6))),
    (3, ((2, 5), (4, 6))),
    (3, ((5, 4), (2, 6))),
    (4, ((2, 3), (5, 6))),
    (4, ((5, 2), (3, 6))),
    (4, ((3, 5), (2, 6))),
    (5, ((3, 2), (4, 6))),
    (5, ((2, 4), (3, 6))),
    (5, ((3, 4), (2, 6))),
    (6, ((2, 3), (4, 5))),
    (6, ((4, 2), (3, 5))),
    (6, ((2, 5), (3, 4))),
)

PRINTED_RHS: dict = {
    1: ((1, (2, 3, 4, 5, 6)), (-1, (2, 4, 3, 5, 6))),
    2: ((1, (2, 5, 3, 4, 6)), (-1, (2, 3, 5, 4, 6))),
    3: ((1, (2, 4, 5, 3, 6)), (-1, (2, 5, 4, 3, 6))),
    4: ((1, (3, 4, 2, 5, 6)), (-1, (3, 2, 4, 5, 6))),
    5: ((1, (3, 2, 5, 4, 6)), (-1, (3, 5, 2, 4, 6))),
    6: ((1, (3, 5, 4, 2, 6)), (-1, (3, 4, 5, 2, 6))),
    7: ((1, (4, 2, 3, 5, 6)), (-1, (4, 3, 2, 5, 6))),
    8: ((1, (4, 5, 2, 3, 6)), (-1, (4, 2, 5, 3, 6))),
    9: ((1, (4, 3, 5, 2, 6)), (-1, (4, 5, 3, 2, 6))),
    10: ((1, (5, 3, 2, 4, 6)), (-1, (5, 2, 3, 4, 6))),
    11: ((1, (5, 2, 4, 3, 6)), (-1, (5, 4, 2, 3, 6))),
    12: ((1, (5, 4, 3, 2, 6)), (-1, (5, 3, 4, 2, 6))),
    13: ((1, (4, 5, 3, 2, 6)), (-1, (5, 4, 3, 2, 6)), (-1, (4, 5, 2, 3, 6)), (1, (5, 4, 2, 3, 6)),
         (1, (2, 3, 5, 4, 6)), (-1, (3, 2, 5, 4, 6)), (-1, (2, 3, 4, 5, 6)), (1, (3, 2, 4, 5, 6))),
    14: ((1, (3, 5, 2, 4, 6)), (-1, (5, 3, 2, 4, 6)), (-1, (3, 5, 4, 2, 6)), (1, (5, 3, 4, 2, 6)),
         (1, (4, 2, 5, 3, 6)), (-1, (2, 4, 5, 3, 6)), (-1, (4, 2, 3, 5, 6)), (1, (2, 4, 3, 5, 6))),
    15: ((1, (3, 4, 5, 2, 6)), (-1, (4, 3, 5, 2, 6)), (-1, (3, 4, 2, 5, 6)), (1, (4, 3, 2, 5, 6)),
         (1, (2, 5, 4, 3, 6)), (-1, (5, 2, 4, 3, 6)), (-1, (2, 5, 3, 4, 6)), (1, (5, 2, 3, 4, 6))),
}

APPENDIX_RHS: dict = dict(PRINTED_RHS)
APPENDIX_RHS[12] = ((1, (5, 3, 4, 2, 6)), (-1, (5, 4, 3, 2, 6)))
for _k in (13, 14, 15):
    _row = PRINTED_RHS[_k]
    APPENDIX_RHS[_k] = tuple((-c, p) for (c, p) in _row[:4]) + _row[4:]
del _k, _row

#: Rows where PRINTED_RHS differs from the verified rewriting.
TRANSCRIPTION_FLAGS: tuple = (12, 13, 14, 15)


def combination_vector(terms: Iterable[tuple]) -> TensorVec:
    """Tensor vector of a signed combination of right-normed commutators."""
    out: TensorVec = {}
    for c, perm in terms:
        for k, v in _right_normed_expansion(tuple(perm)).items():
            cv = out.get(k, 0) + c * v
            if cv:
                out[k] = cv
            else:
                out.pop(k, None)
    return out


@functools.cache
def _right_normed_expansion(perm: tuple) -> TensorVec:
    """expand_tree(right_normed(perm)), expanded once per process;
    callers only read it."""
    return expand_tree(right_normed(perm))


def verify_appendix_identity(k: int, table: dict | None = None) -> bool:
    """True iff generator k's tensor expansion equals the table row's
    combination, exactly.  The default table is the normalized one;
    pass a mutated table to confirm single-sign sensitivity."""
    if not 1 <= k <= 15:
        raise ValueError(f"row index {k} out of range 1..15")
    rhs = (table or APPENDIX_RHS)[k]
    return expand_tree(LEMMA_GENERATORS[k - 1]) == combination_vector(rhs)


def appendix_report() -> dict:
    """Per-row verification of the rewriting table, with the printed
    rows checked verbatim alongside the normalized ones."""
    rows = []
    for k in range(1, 16):
        rows.append({
            "row": k,
            "generator": tree_text(LEMMA_GENERATORS[k - 1]),
            "verified": verify_appendix_identity(k),
            "printed_matches": verify_appendix_identity(k, PRINTED_RHS),
            "flagged": k in TRANSCRIPTION_FLAGS,
        })
    return {
        "rows": rows,
        "all_verified": all(r["verified"] for r in rows),
        "transcription_flags": list(TRANSCRIPTION_FLAGS),
        "note": ("rows 12-15 are stored in the orientation that the expansion map "
                 "verifies; the printed rows differ by the recorded sign slips and "
                 "are what the dependency computation uses"),
    }


def _coordinates(terms: Iterable[tuple]) -> list:
    """The 24 coordinates, in BASIS_PERMS order, of a signed combination
    of basis commutators (KeyError, a defect, for any other)."""
    coords = dict.fromkeys(BASIS_PERMS, 0)
    for c, perm in terms:
        coords[perm] += c
    return list(coords.values())


def verify_lemma_w() -> dict:
    """The dimension/intersection computation for the element w.

    Stacks the fifteen generators' images -- their tabulated rewriting
    rows, as coordinates over the 24 basis commutators -- into a 15 x 24
    matrix and reports its rank and left kernel, which are the 15 x 120
    tensor matrix's once basis_rank() is 24.  Rank 14 with kernel
    spanned by the all-ones vector says exactly that the product of the
    fifteen generators (each with exponent +1) dies in the quotient
    while no smaller sub-product does.

    The report also cross-checks each generator label's read-off
    coordinates against its table row; the four flagged rows fail that
    check (the source table's slips), and the labels' coordinates by
    themselves are linearly independent.  Both facts are reported
    rather than repaired silently; a label that does not read off
    matches no row and leaves literal_label_rank None.
    """
    printed = [_coordinates(PRINTED_RHS[k]) for k in range(1, 16)]
    kernel = RationalMatrix(printed).left_kernel()
    rank = len(printed) - len(kernel)
    all_ones = bool(kernel) and all(x == kernel[0][0] for x in kernel[0])

    labels = [_read_off(t) for t in LEMMA_GENERATORS]
    labels = [c if c is None else _coordinates((v, p) for p, v in c.items()) for c in labels]
    literal_rank = None if None in labels else RationalMatrix(labels).rank()

    return {
        "rank": rank,
        "kernel_dim": len(kernel),
        "kernel": "all-ones" if all_ones else [[str(x) for x in v] for v in kernel],
        "quotient_dim": quotient_dim(),
        "generator_label_matches_table": [lv == pv for lv, pv in zip(labels, printed)],
        "literal_label_rank": literal_rank,
        "transcription_flags": list(TRANSCRIPTION_FLAGS),
    }


def quotient_dim(indices: Iterable[int] = INDICES) -> int | None:
    """Rank of the d! right-normed expansions over `indices`, read off:
    the (d-1)! ending in the largest index when each of those reads off
    as itself (an identity block, so they are independent) and every
    other one reads off as their combination (so it is in their span);
    otherwise None."""
    idx = sorted(indices)
    read = {p: _read_off(right_normed(p)) for p in permutations(idx)}
    basis = [p for p in read if p[-1] == idx[-1]]
    if None in read.values() or any(read[p] != {p: 1} for p in basis):
        return None
    return len(basis)


def basis_rank() -> int | None:
    """Rank of the 24 basis expansions: 24 when each reads off as itself
    (they form the identity on the monomials ending in 6), else None."""
    ok = all(_read_off(right_normed(p)) == {p: 1} for p in BASIS_PERMS)
    return len(BASIS_PERMS) if ok else None
