"""Tensor expansion of bracket trees, exact linear algebra, and the
dimension/intersection computations."""

import functools
import math
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest
from magnus_reference import degree_part

from commcalc import lie, magnus, words
from commcalc.lie import (
    APPENDIX_RHS,
    BASIS_PERMS,
    INDICES,
    LEMMA_GENERATORS,
    PRINTED_RHS,
    TRANSCRIPTION_FLAGS,
    RationalMatrix,
    TreeError,
    basis_rank,
    comm_expr_to_tree,
    combination_vector,
    expand_tree,
    right_normed,
    to_basis,
    tree_text,
    verify_appendix_identity,
    verify_lemma_w,
)


def test_expand_leaf_pair():
    assert expand_tree((2, 3)) == {(2, 3): 1, (3, 2): -1}


def test_repeated_leaf_rejected():
    with pytest.raises(TreeError):
        expand_tree((2, (3, 2)))


def test_jacobi_sum_of_leaves_is_zero():
    x, y, z = 2, 3, 4
    total: dict = {}
    for t in (((x, y), z), ((z, x), y), ((y, z), x)):
        for k, v in expand_tree(t).items():
            total[k] = total.get(k, 0) + v
    assert not any(total.values())


def test_right_normed_expansion_shape():
    vec = expand_tree(right_normed((2, 3, 4, 5, 6)))
    assert len(vec) == 16
    assert vec[(2, 3, 4, 5, 6)] == 1
    assert set(vec.values()) <= {1, -1}


def _random_tree(rng, indices):
    indices = list(indices)
    if len(indices) == 1:
        return indices[0]
    cut = rng.randrange(1, len(indices))
    return (_random_tree(rng, indices[:cut]), _random_tree(rng, indices[cut:]))


def test_antisymmetry_random_subtrees():
    rng = random.Random(5150)
    for _ in range(250):
        pool = rng.sample(range(2, 10), rng.randrange(2, 6))
        cut = rng.randrange(1, len(pool))
        a = _random_tree(rng, pool[:cut])
        b = _random_tree(rng, pool[cut:])
        ab = expand_tree((a, b))
        ba = expand_tree((b, a))
        assert ab == {k: -v for k, v in ba.items()}


def test_jacobi_random_disjoint_subtrees():
    rng = random.Random(5151)
    for _ in range(250):
        pool = rng.sample(range(2, 12), rng.randrange(3, 7))
        i, j = sorted(rng.sample(range(1, len(pool)), 2))
        x = _random_tree(rng, pool[:i])
        y = _random_tree(rng, pool[i:j])
        z = _random_tree(rng, pool[j:])
        total: dict = {}
        for t in (((x, y), z), ((z, x), y), ((y, z), x)):
            for k, v in expand_tree(t).items():
                total[k] = total.get(k, 0) + v
        assert not any(total.values())


def expansion_matrix(perms, indices) -> RationalMatrix:
    """Rows: the expansions of the right-normed commutators `perms`.
    Columns: the permutation monomials over `indices` in lex order.
    Built here, so that its elimination checks the read-off ranks."""
    cols = {c: j for j, c in enumerate(permutations(sorted(indices)))}
    rows = []
    for p in perms:
        row = [0] * len(cols)
        for k, v in expand_tree(right_normed(p)).items():
            row[cols[k]] = v
        rows.append(row)
    return RationalMatrix(rows)


@pytest.mark.parametrize("d,expected", [(2, 1), (3, 2), (4, 6)])
def test_small_degree_ranks(d, expected):
    indices = range(2, 2 + d)
    m = expansion_matrix(permutations(indices), indices)
    assert m.shape == (math.factorial(d), math.factorial(d))
    assert m.rank() == expected == math.factorial(d - 1)
    assert lie.quotient_dim(indices) == expected


def test_full_degree5_matrix():
    m = expansion_matrix(permutations(INDICES), INDICES)
    assert m.shape == (120, 120)
    rank, kernel = m.rank(), m.left_kernel()
    assert rank == 24
    assert len(kernel) == 96
    # the read-off proof gives the rank that elimination gives
    assert lie.quotient_dim() == rank


def test_zero_matrix_rank_kernel():
    m = RationalMatrix([[0, 0], [0, 0], [0, 0]])
    rank, kernel = m.rank(), m.left_kernel()
    assert rank == 0
    assert len(kernel) == 3


def test_non_integer_entries_rejected():
    # fraction-free elimination divides with `//`, which would floor them
    for entry in (Fraction(1, 2), Fraction(2), 1.0, "1"):
        with pytest.raises(TypeError):
            RationalMatrix([[1, entry]])


def test_rank_kernel_deterministic():
    m1 = expansion_matrix(permutations(range(2, 6)), range(2, 6))
    m2 = expansion_matrix(permutations(range(2, 6)), range(2, 6))
    assert (m1.rank(), m1.left_kernel()) == (m2.rank(), m2.left_kernel())


def test_basis_rank_is_24():
    assert basis_rank() == 24
    assert expansion_matrix(BASIS_PERMS, INDICES).rank() == 24


def test_to_basis_on_basis_element():
    t = right_normed((2, 3, 4, 5, 6))
    assert to_basis(t) == {(2, 3, 4, 5, 6): Fraction(1)}


def test_to_basis_first_rewriting_row():
    t = (2, ((3, 4), (5, 6)))
    assert to_basis(t) == {
        (2, 3, 4, 5, 6): Fraction(1),
        (2, 4, 3, 5, 6): Fraction(-1),
    }


def test_to_basis_eight_term_row():
    t = (6, ((2, 3), (4, 5)))
    coeffs = to_basis(t)
    assert len(coeffs) == 8
    assert set(coeffs.values()) == {Fraction(1), Fraction(-1)}
    assert coeffs == {p: c for c, p in APPENDIX_RHS[13]}


def test_to_basis_requires_degree5_leaves():
    with pytest.raises(TreeError):
        to_basis((2, 3))


def test_every_right_normed_generator_lies_in_basis_span():
    # spanning half of the basis statement: all 120 right-normed
    # commutators, and 300 random degree-5 trees, rewrite over the 24
    # distinguished ones
    t0 = time.perf_counter()
    rng = random.Random(2718)
    trees = [right_normed(perm) for perm in permutations(INDICES)]
    trees += [_random_tree(rng, rng.sample(INDICES, 5)) for _ in range(300)]
    for tree in trees:
        coeffs = to_basis(tree)
        assert set(coeffs) <= set(BASIS_PERMS)
        vec: dict = {}
        for p, c in coeffs.items():
            for k, v in expand_tree(right_normed(p)).items():
                vec[k] = vec.get(k, 0) + c * v
        vec = {k: v for k, v in vec.items() if v}
        assert vec == expand_tree(tree)
    # the read-off runs no elimination: 420 rewrites take ~0.1 s
    assert time.perf_counter() - t0 < 1.0


def test_to_basis_span_check(monkeypatch):
    monkeypatch.setattr(lie, "combination_vector", lambda terms: {})
    with pytest.raises(TreeError, match="outside the span"):
        to_basis(right_normed((2, 3, 4, 5, 6)))


def test_zero_expansion_map_proves_no_rank(monkeypatch):
    # every read-off of the zero map expands back (0 = 0), so the ranks
    # rest on each basis commutator reading off as itself
    monkeypatch.setattr(lie, "expand_tree", lambda t: {})
    monkeypatch.setattr(
        lie, "_right_normed_expansion", functools.cache(lie._right_normed_expansion.__wrapped__)
    )
    assert basis_rank() is None
    assert all(lie.quotient_dim(range(2, 2 + d)) is None for d in (2, 3, 4, 5))


def test_appendix_identities_all_verify():
    for k in range(1, 16):
        assert verify_appendix_identity(k), f"identity {k}"


def test_appendix_identity_mutation_detected():
    # flipping any single sign in any row must be caught
    for k in range(1, 16):
        row = APPENDIX_RHS[k]
        for i in range(len(row)):
            mutated = dict(APPENDIX_RHS)
            mutated[k] = tuple(
                (-c, p) if j == i else (c, p) for j, (c, p) in enumerate(row)
            )
            assert not verify_appendix_identity(k, mutated), f"row {k} term {i}"


def test_printed_rows_match_only_where_unflagged():
    for k in range(1, 16):
        printed_ok = verify_appendix_identity(k, PRINTED_RHS)
        assert printed_ok == (k not in TRANSCRIPTION_FLAGS)


def test_printed_vectors_sum_to_zero():
    total: dict = {}
    for k in range(1, 16):
        for key, v in combination_vector(PRINTED_RHS[k]).items():
            total[key] = total.get(key, 0) + v
    assert not any(total.values())


def test_lemma_w_report():
    report = verify_lemma_w()
    assert report["rank"] == 14
    assert report["kernel_dim"] == 1
    assert report["kernel"] == "all-ones"
    assert report["quotient_dim"] == 24
    assert report["generator_label_matches_table"] == [True] * 11 + [False] * 4
    assert report["literal_label_rank"] == 15
    assert report["transcription_flags"] == [12, 13, 14, 15]


@pytest.mark.parametrize("row_1", [
    PRINTED_RHS[1][:1],  # one term dropped: the column sums no longer vanish
    PRINTED_RHS[2],  # a repeat of row 2: rank 14 with another kernel
], ids=["term-dropped", "row-repeated"])
def test_lemma_w_rank_off_the_all_ones_case(monkeypatch, row_1):
    # the rank is read off the kernel's elimination; hold it to a rank of
    # the 15 x 120 tensor matrix, which is the 15 x 24 one's
    monkeypatch.setitem(PRINTED_RHS, 1, row_1)
    report = verify_lemma_w()
    tensor = [combination_vector(PRINTED_RHS[k]) for k in range(1, 16)]
    rank = RationalMatrix([[v.get(p, 0) for p in permutations(INDICES)] for v in tensor]).rank()
    assert report["rank"] == rank == 15 - report["kernel_dim"]
    assert report["kernel"] != "all-ones"


def test_lemma_w_reports_a_label_outside_the_basis_span(monkeypatch):
    # a label whose expansion does not read off is reported as matching
    # no row, and the labels' rank as unknown; it is not dropped
    bad = LEMMA_GENERATORS[0]
    expand = lie.expand_tree
    monkeypatch.setattr(
        lie, "expand_tree", lambda t: {**expand(t), (2, 3, 4, 6, 5): 1} if t == bad else expand(t)
    )
    report = verify_lemma_w()
    assert report["rank"] == 14 and report["quotient_dim"] == 24
    assert report["generator_label_matches_table"] == [False] + [True] * 10 + [False] * 4
    assert report["literal_label_rank"] is None


def test_lemma_generators_have_expected_labels():
    assert tree_text(LEMMA_GENERATORS[0]) == "[m2,[[m3,m4],[m5,m6]]]"
    assert tree_text(LEMMA_GENERATORS[14]) == "[m6,[[m2,m5],[m3,m4]]]"
    assert len(LEMMA_GENERATORS) == 15
    assert len(BASIS_PERMS) == 24


def test_antisymmetry_relators_lie_in_expansion_kernel():
    # formal V-vectors [a,[b,[c,[d,e]]]] + [a,[b,[c,[e,d]]]] expand to 0:
    # the relation subspace is exactly the expansion kernel
    rng = random.Random(77)
    for _ in range(200):
        perm = rng.sample(INDICES, 5)
        swapped = perm[:3] + [perm[4], perm[3]]
        vec = combination_vector([(1, tuple(perm)), (1, tuple(swapped))])
        assert vec == {}


def test_group_to_lie_compatibility():
    # lowest-degree part of the word expansion equals the tree expansion
    rng = random.Random(88)
    for _ in range(60):
        d = rng.randrange(2, 6)
        indices = rng.sample(range(2, 8), d)
        tree = _random_tree(rng, indices)
        vars_ = magnus.VariableSet.from_generators(f"m{i}" for i in sorted(indices))
        word = _tree_word(tree)
        poly = magnus.expand(word, vars_)
        assert degree_part(poly, d) == expand_tree(tree)
        lower = {k: v for k, v in poly.terms.items() if 0 < len(k) < d}
        assert not lower


def _tree_word(tree):
    if isinstance(tree, int):
        return words.GroupWord.generator(f"m{tree}")
    return words.commutator(_tree_word(tree[0]), _tree_word(tree[1]))


def reference_render_combination(coeffs: dict) -> str:
    """lie.render_combination as it was written before it shared the
    signed-sum formatter."""
    if not coeffs:
        return "0"
    parts = []
    for i, p in enumerate(sorted(coeffs)):
        c = coeffs[p]
        body = tree_text(right_normed(p))
        if abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def test_render_combination_matches_the_reference_formatter():
    rng = random.Random(2702)
    cases = [{}, {BASIS_PERMS[0]: -1}, {BASIS_PERMS[3]: 2}, {BASIS_PERMS[5]: -2}]
    for _ in range(200):
        perms = rng.sample(BASIS_PERMS, rng.randint(0, 8))
        cases.append({p: rng.choice([-1, 1]) * rng.choice([1, 1, 2, 3, 12]) for p in perms})
    for coeffs in cases:
        assert lie.render_combination(coeffs) == reference_render_combination(coeffs), coeffs
    assert lie.render_combination({BASIS_PERMS[1]: -2, BASIS_PERMS[0]: 1}) == (
        "[m2,[m3,[m4,[m5,m6]]]] - 2*[m2,[m3,[m5,[m4,m6]]]]"
    )


def test_comm_expr_to_tree():
    alphabet = words.Alphabet(["m2", "m3", "m4", "m5", "m6"])
    e = words.parse_expr("[m2,[[m3,m4],[m5,m6]]]", alphabet)
    assert comm_expr_to_tree(e) == (2, ((3, 4), (5, 6)))
    bad = words.parse_expr("m2*m3", alphabet)
    with pytest.raises(TreeError):
        comm_expr_to_tree(bad)
