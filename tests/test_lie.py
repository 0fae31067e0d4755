"""Tensor expansion of bracket trees, exact linear algebra, and the
dimension/intersection computations."""

import math
import random
import time
from fractions import Fraction

import pytest

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
    build_expansion_matrix,
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


@pytest.mark.parametrize("d,expected", [(2, 1), (3, 2), (4, 6)])
def test_small_degree_ranks(d, expected):
    m = build_expansion_matrix(range(2, 2 + d))
    assert m.shape == (math.factorial(d), math.factorial(d))
    assert m.rank() == expected == math.factorial(d - 1)


def test_full_degree5_matrix():
    m = build_expansion_matrix(INDICES)
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
    m1 = build_expansion_matrix(range(2, 6))
    m2 = build_expansion_matrix(range(2, 6))
    assert (m1.rank(), m1.left_kernel()) == (m2.rank(), m2.left_kernel())


def test_basis_rank_is_24():
    assert basis_rank() == 24


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
    from itertools import permutations

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
        alphabet = words.Alphabet([f"m{i}" for i in sorted(indices)])
        vars_ = magnus.VariableSet.from_generators(alphabet.generators)
        word = _tree_word(tree, alphabet)
        poly = magnus.expand(word, vars_)
        assert poly.degree_part(d) == expand_tree(tree)
        lower = {k: v for k, v in poly.terms.items() if 0 < len(k) < d}
        assert not lower


def _tree_word(tree, alphabet):
    if isinstance(tree, int):
        return words.GroupWord.generator(alphabet[f"m{tree}"])
    return words.commutator(_tree_word(tree[0], alphabet), _tree_word(tree[1], alphabet))


def test_comm_expr_to_tree():
    alphabet = words.Alphabet(["m2", "m3", "m4", "m5", "m6"])
    e = words.parse_expr("[m2,[[m3,m4],[m5,m6]]]", alphabet)
    assert comm_expr_to_tree(e) == (2, ((3, 4), (5, 6)))
    bad = words.parse_expr("m2*m3", alphabet)
    with pytest.raises(TreeError):
        comm_expr_to_tree(bad)
