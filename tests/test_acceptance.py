"""Acceptance criteria.

One test per criterion; each runs at its stated (exact) tolerance,
checks its runtime budget, and prints a single pass/fail line.  Run
with `pytest -s tests/test_acceptance.py` to see the lines as they
happen.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from search_reference import reference_search

from commcalc import hopf, lie, magnus, obstruction, words


def _criterion(number: int, description: str, passed: bool, elapsed: float, limit: float):
    verdict = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"{verdict} criterion {number}: {description} ({elapsed:.2f}s < {limit:g}s)")
    assert passed, f"criterion {number} failed: {description}"
    assert elapsed < limit, f"criterion {number} overran: {elapsed:.2f}s >= {limit}s"


def test_criterion_1_dimension_and_kernel():
    t0 = time.perf_counter()
    report = lie.verify_lemma_w()
    ok = (
        report["rank"] == 14
        and report["kernel_dim"] == 1
        and report["kernel"] == "all-ones"
    )
    _criterion(1, "15x120 generator matrix: rank 14, all-ones left kernel",
               ok, time.perf_counter() - t0, 5.0)


def test_criterion_2_basis_spans():
    t0 = time.perf_counter()
    ok = lie.basis_rank() == 24 and lie.build_expansion_matrix(lie.INDICES).rank() == 24
    _criterion(2, "24 right-most-index-6 expansions have rank 24; full 120-row rank 24",
               ok, time.perf_counter() - t0, 5.0)


def test_criterion_3_small_degree_oracle():
    t0 = time.perf_counter()
    ok = all(
        lie.build_expansion_matrix(range(2, 2 + d)).rank() == math.factorial(d - 1)
        for d in (2, 3, 4)
    )
    _criterion(3, "expansion rank equals (d-1)! for d = 2, 3, 4",
               ok, time.perf_counter() - t0, 1.0)


def test_criterion_4_rewriting_identities():
    t0 = time.perf_counter()
    ok = all(lie.verify_appendix_identity(k) for k in range(1, 16))
    # every single-sign mutation must be detected
    for k in range(1, 16):
        row = lie.APPENDIX_RHS[k]
        for i in range(len(row)):
            mutated = dict(lie.APPENDIX_RHS)
            mutated[k] = tuple(
                (-c, p) if j == i else (c, p) for j, (c, p) in enumerate(row)
            )
            ok = ok and not lie.verify_appendix_identity(k, mutated)
    _criterion(4, "all 15 rewriting identities verify; any sign mutation detected",
               ok, time.perf_counter() - t0, 5.0)


def test_criterion_5_hopf_certificates():
    t0 = time.perf_counter()
    report = hopf.verify_hopf_triviality()
    ok = (
        report["substituted_trivial"]
        and report["magnus_expansion"] == "1"
        and report["jacobi_product_trivial"]
        and report["hall_witt_trivial"]
        and report["product_identity_left"]
        and report["product_identity_right"]
    )
    _criterion(5, "substituted longitude expands to 1; Jacobi and Hall-Witt certificates",
               ok, time.perf_counter() - t0, 1.0)


def test_criterion_6_dual_source_transcription():
    t0 = time.perf_counter()
    check = obstruction.transcription_check()
    # agreement row by row, with the solver block's row-9 typo flagged
    # rather than silently repaired
    ok = check["all_agree"] and check["flagged_rows"] == [9]
    _criterion(6, "equation table and solver block agree; row-9 typo flagged",
               ok, time.perf_counter() - t0, 5.0)


def test_criterion_7_families_on_grid():
    t0 = time.perf_counter()
    ok = True
    for fid in (1, 2, 3):
        report = obstruction.verify_family(fid)
        ok = ok and report["all_residuals_zero"] and report["grid_points"] == 169
    sample = {
        "a3": -1, "a4": -1, "a5": -2, "a6": -2,
        "b1": 1, "b2": 2, "b5": 1, "b6": -3,
        "c1": 0, "c2": Fraction(-1, 2), "c3": Fraction(-1, 4), "c4": Fraction(-1, 4),
    }
    residuals = obstruction.evaluate(obstruction.obstruction_system(), sample)
    ok = ok and all(v.is_zero() for v in residuals.values())
    _criterion(7, "families 1-3 vanish on the 13x13 grid; sample point has zero residuals",
               ok, time.perf_counter() - t0, 10.0)


def test_criterion_8_integer_search():
    t0 = time.perf_counter()
    _, full = obstruction.integer_search(5)
    canon, sub = obstruction.integer_search(2, labels=[2, 3])
    ok = (
        full == []
        and canon == ("b5", "b6", "c3", "c4")
        and (0, 1, 1, 1) in sub
    )
    _criterion(8, "no integer solutions with |v| <= 5; subsystem sanity case found",
               ok, time.perf_counter() - t0, 300.0)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    abc = words.Alphabet(["g1", "g2", "g3"])
    vars3 = magnus.VariableSet.from_generators(abc.generators)
    gens = list(abc.generators)

    def rand_word(max_len=7):
        return words.GroupWord(tuple(
            (rng.choice(gens), rng.choice((1, -1)))
            for _ in range(rng.randrange(max_len))
        ))

    ok = True

    # Magnus multiplicativity + inverse law + squarefree closure
    for _ in range(200):
        u, v = rand_word(), rand_word()
        pu, pv = magnus.expand(u, vars3), magnus.expand(v, vars3)
        prod = pu * pv
        ok = ok and magnus.expand(u * v, vars3) == prod
        ok = ok and magnus.invert(pu) == magnus.expand(u.inverse(), vars3)
        ok = ok and all(len(set(k)) == len(k) for k in prod.terms)

    # top-degree conjugation invariance
    for _ in range(200):
        a, b, c = rng.sample(gens, 3)
        w = words.commutator(
            words.GroupWord.generator(a),
            words.commutator(words.GroupWord.generator(b), words.GroupWord.generator(c)),
        )
        g = words.GroupWord.generator(rng.choice(gens))
        ok = ok and magnus.expand(w.conjugate(g), vars3) == magnus.expand(w, vars3)

    # antisymmetry and Jacobi as tensor identities over random subtrees
    def rand_tree(pool):
        if len(pool) == 1:
            return pool[0]
        cut = rng.randrange(1, len(pool))
        return (rand_tree(pool[:cut]), rand_tree(pool[cut:]))

    for _ in range(200):
        pool = rng.sample(range(2, 11), rng.randrange(3, 7))
        i, j = sorted(rng.sample(range(1, len(pool)), 2))
        x, y, z = rand_tree(pool[:i]), rand_tree(pool[i:j]), rand_tree(pool[j:])
        ab = lie.expand_tree((x, y))
        ok = ok and ab == {k: -v for k, v in lie.expand_tree((y, x)).items()}
        total: dict = {}
        for t in (((x, y), z), ((z, x), y), ((y, z), x)):
            for k, v in lie.expand_tree(t).items():
                total[k] = total.get(k, 0) + v
        ok = ok and not any(total.values())

    # parser round-trip
    def rand_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return words.Leaf(rng.choice(gens))
        kind = rng.randrange(4)
        if kind == 0:
            return words.Inverse(rand_expr(depth - 1))
        if kind == 1:
            return words.Product(tuple(rand_expr(depth - 1) for _ in range(rng.randrange(2, 4))))
        if kind == 2:
            return words.Commutator(rand_expr(depth - 1), rand_expr(depth - 1))
        return words.Conjugate(rand_expr(depth - 1), rand_expr(depth - 1))

    for _ in range(200):
        e = rand_expr(3)
        ok = ok and words.parse_expr(words.print_expr(e), abc) == e

    # factored search against the plain backtracker; subsystems over
    # three disjoint variable blocks have product-sized solution sets,
    # so those get the smaller bound
    for _ in range(200):
        labels = rng.sample([2, 3, 4, 7, 12, 15], rng.randrange(1, 4))
        bound = rng.randrange(0, 2 if len(labels) == 3 else 3)
        ok = ok and obstruction.integer_search(bound, labels=labels) == reference_search(
            bound, labels
        )

    _criterion(9, "property suites, 200 randomized cases each",
               ok, time.perf_counter() - t0, 30.0)
