"""The obstruction system: transcription, evaluation, families, search."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from family_reference import PoleError, family_assignment
from search_reference import reference_search

from commcalc import obstruction
from commcalc.obstruction import (
    FAMILIES,
    VARIABLES,
    QSqrt3,
    SQRT3,
    evaluate,
    integer_search,
    obstruction_system,
    transcription_check,
    verify_family,
)

SAMPLE = {
    "a3": -1, "a4": -1, "a5": -2, "a6": -2,
    "b1": 1, "b2": 2, "b5": 1, "b6": -3,
    "c1": 0, "c2": Fraction(-1, 2), "c3": Fraction(-1, 4), "c4": Fraction(-1, 4),
}


def rows_of(labels):
    """The rows of the system with the given labels, in label order."""
    return [eq for eq in obstruction_system() if eq.label in labels]


# --- scalar field ----------------------------------------------------------


def test_qsqrt3_field_laws_random():
    rng = random.Random(314)

    def rand():
        return QSqrt3(
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
        )

    for _ in range(250):
        x, y, z = rand(), rand(), rand()
        assert (x + y) * z == x * z + y * z
        assert x * 3 == x * QSqrt3(3) and y.b * x == QSqrt3(y.b) * x  # rational scalars
        assert x - x == QSqrt3(0)
        if not y.is_zero():
            assert (x * y) / y == x
            assert (x / y) * y == x
    assert SQRT3 * SQRT3 == QSqrt3(3)


@pytest.mark.parametrize("n", [0, 1, -1, 7, -7, 10**400, -10**400])
def test_qsqrt3_int_operands_act_as_their_qsqrt3(n):
    rng = random.Random(271)
    q = QSqrt3(n)
    for _ in range(50):
        x = QSqrt3(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
                   Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
        assert x + n == x + q and n + x == q + x
        assert x - n == x - q and n - x == q - x
        assert x * n == x * q and n * x == q * x
        if n:
            assert x / n == x / q


def test_qsqrt3_zero_iff_both_components_zero():
    assert QSqrt3(0, 0).is_zero()
    assert not QSqrt3(0, Fraction(1, 7)).is_zero()
    assert not QSqrt3(Fraction(1, 7), 0).is_zero()
    with pytest.raises(ZeroDivisionError):
        QSqrt3(1) / QSqrt3(0)


def test_qsqrt3_str():
    assert str(QSqrt3(Fraction(-1, 4))) == "-1/4"
    assert str(QSqrt3(1, Fraction(2, 3))) == "1 + 2/3*sqrt3"
    assert str(QSqrt3(0, -1)) == "-sqrt3"
    assert repr(QSqrt3(Fraction(-1, 4), 2)) == "QSqrt3(-1/4, 2)"
    assert str(QSqrt3(-4, -12)) == "-4 - 12*sqrt3"


def test_qsqrt3_equal_values_hash_alike():
    assert hash(QSqrt3(2)) == hash(2) and len({QSqrt3(2), 2}) == 1
    assert hash(QSqrt3(Fraction(-3, 4))) == hash(Fraction(-3, 4))
    x, y = QSqrt3(1, 1) / 3, QSqrt3(Fraction(1, 3), Fraction(1, 3))
    assert x == y and hash(x) == hash(y)
    z = (SQRT3 + 1) * (SQRT3 - 1) / 2  # = 1, built the long way
    assert z == 1 and hash(z) == hash(1) and len({z, QSqrt3(1), 1, Fraction(1)}) == 1


@pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", None])
def test_qsqrt3_rejects_non_exact_parts(bad):
    with pytest.raises(TypeError):
        QSqrt3(bad)
    with pytest.raises(TypeError):
        QSqrt3(1, bad)
    with pytest.raises(TypeError):
        QSqrt3(1, 1) + bad
    with pytest.raises(TypeError):
        bad * SQRT3


# --- the system ------------------------------------------------------------


def test_system_shape():
    system = obstruction_system()
    assert type(system) is tuple and len(system) == 15
    assert [eq.label for eq in system] == list(range(1, 16))
    assert not system[0].terms and system[0].target == 0


def test_row_golden_values():
    row = {eq.label: eq for eq in obstruction_system()}
    assert row[2].terms == ((1, ("b6", "c4")), (-1, ("b5", "c3")))
    assert row[2].target == 1
    assert row[12].terms == ((1, ("a5", "c2")), (1, ("c1", "a6")))
    assert row[5].terms == ((-1, ("a3", "b6", "c2")), (-1, ("b1", "a5", "c4")))


def test_rows_have_degree_2_or_3_and_unit_coefficients():
    for eq in obstruction_system():
        if not eq.terms:
            continue
        for coeff, mono in eq.terms:
            assert coeff in (1, -1)
            assert len(mono) in (2, 3)
            # multilinear: the search solves each row for its last variable
            assert len(set(mono)) == len(mono)


def test_dual_source_transcription():
    check = transcription_check()
    assert check["all_agree"]
    assert check["flagged_rows"] == [9]
    flagged = [r for r in check["rows"] if r["solver_line_typo"]]
    assert len(flagged) == 1 and flagged[0]["label"] == 9 and flagged[0]["agrees"]


def test_sample_point_satisfies_system():
    res = evaluate(obstruction_system(), SAMPLE)
    assert all(v.is_zero() for v in res.values())


def test_all_zero_assignment_misses_every_row():
    res = evaluate(obstruction_system(), {v: 0 for v in VARIABLES})
    for label, value in res.items():
        if label == 1:
            assert value.is_zero()
        else:
            assert value == QSqrt3(-1)


def test_flipped_gamma3_breaks_rows_2_and_3():
    bad = dict(SAMPLE, c3=Fraction(1, 4))
    res = evaluate(obstruction_system(), bad)
    assert not res[2].is_zero()
    assert not res[3].is_zero()


def test_residuals_concatenate():
    res_a = evaluate(rows_of([2, 3]), SAMPLE)
    res_b = evaluate(iter(rows_of([4, 7])), SAMPLE)
    combined = evaluate(rows_of([2, 3, 4, 7]), SAMPLE)
    assert combined == {**res_a, **res_b}


def test_missing_variable_rejected():
    with pytest.raises(ValueError) as caught:
        evaluate(obstruction_system(), {"a3": 1})
    assert str(caught.value) == f"assignment missing variables: {list(VARIABLES[1:])}"


def test_rows_need_only_the_variables_they_read():
    # rows (2) and (3) read b5, b6, c3 and c4 alone
    point = {v: SAMPLE[v] for v in ("b5", "b6", "c3", "c4")}
    assert evaluate(rows_of([2, 3]), point) == {2: QSqrt3(0), 3: QSqrt3(0)}
    del point["c4"]
    with pytest.raises(ValueError) as caught:
        evaluate(rows_of([2, 3]), point)
    assert str(caught.value) == "assignment missing variables: ['c4']"


# --- families ---------------------------------------------------------------


def test_family1_at_unit_parameters_is_sample_point():
    env = family_assignment(1, 1, 1)
    assert env == {k: QSqrt3(v) for k, v in SAMPLE.items()}


def test_family2_value_at_unit_parameters():
    env = family_assignment(2, 1, 1)
    assert env["b2"] == QSqrt3(1, Fraction(2, 3))
    res = evaluate(obstruction_system(), env)
    assert all(v.is_zero() for v in res.values())


def test_families_verify_on_full_grid():
    assert set(FAMILIES) == {1, 2, 3}
    for fid in (1, 2, 3):
        report = verify_family(fid)
        assert report["all_residuals_zero"], report
        assert report["grid_points"] == 169


def test_family1_closed_form_facts():
    report = verify_family(1)
    facts = report["closed_form_facts"]
    assert facts == {
        "c3_equals_c4": True,
        "c3_equals_minus_quarter_over_b5": True,
        "c1_is_zero": True,
    }


def reference_verify_family(family_id: int) -> dict:
    """The per-point oracle for verify_family: every point of GRID^2
    built by family_assignment and its rows evaluated by evaluate."""
    system = obstruction_system()
    points = [(b1, b5, family_assignment(family_id, b1, b5))
              for b1 in obstruction.GRID for b5 in obstruction.GRID]
    failures = []
    for b1, b5, env in points:
        bad = {k: str(v) for k, v in evaluate(system, env).items() if not v.is_zero()}
        if bad:
            failures.append({"point": (str(b1), str(b5)), "residuals": bad})
    report = {
        "family": family_id,
        "grid_points": len(points),
        "all_residuals_zero": not failures,
        "failures": failures,
    }
    if family_id == 1:
        report["closed_form_facts"] = {
            "c3_equals_c4": all(env["c3"] == env["c4"] for _, _, env in points),
            "c3_equals_minus_quarter_over_b5": all(
                4 * b5 * env["c3"] == -1 for _, b5, env in points
            ),
            "c1_is_zero": all(env["c1"].is_zero() for _, _, env in points),
        }
    return report


def assert_same_report(family_id):
    report, reference = verify_family(family_id), reference_verify_family(family_id)
    assert report == reference
    assert repr(report) == repr(reference)  # key order too
    return report


def _flip_c3(family):
    return lambda b1, b5: {**family(b1, b5), "c3": -family(b1, b5)["c3"]}


def _c2_off_the_diagonal(family):
    # adds 1/b5 - 1/b1: nonzero, but zero wherever b1 = b5
    return lambda b1, b5: {**family(b1, b5), "c2": family(b1, b5)["c2"] + (b1 - b5) / (b1 * b5)}


@pytest.mark.parametrize("family_id", [1, 2, 3])
def test_verify_family_matches_the_per_point_oracle(family_id):
    assert assert_same_report(family_id)["all_residuals_zero"]


@pytest.mark.parametrize("family_id, mutate, failures", [
    (1, _flip_c3, 169),
    (2, _c2_off_the_diagonal, 156),
])
def test_verify_family_matches_the_oracle_on_mutants(monkeypatch, family_id, mutate, failures):
    monkeypatch.setitem(FAMILIES, family_id, mutate(FAMILIES[family_id]))
    report = assert_same_report(family_id)
    assert len(report["failures"]) == failures


def test_verify_family_matches_the_oracle_on_another_grid(monkeypatch):
    monkeypatch.setattr(obstruction, "GRID", range(1, 3))
    for fid in (1, 2, 3):
        assert assert_same_report(fid)["grid_points"] == 4


def test_a_nonzero_residual_fails_the_family_where_the_grid_misses_it(monkeypatch):
    # on the diagonal grid {(1, 1)} the c2 mutant's residuals all vanish;
    # the certificate is the residual polynomials, not the grid
    monkeypatch.setitem(FAMILIES, 2, _c2_off_the_diagonal(FAMILIES[2]))
    monkeypatch.setattr(obstruction, "GRID", range(1, 2))
    report = verify_family(2)
    assert report["failures"] == [] and not report["all_residuals_zero"]
    assert reference_verify_family(2)["all_residuals_zero"]


def test_family_pole_error():
    # the pole set is exactly b1 = 0 or b5 = 0, for every family
    for fid in (1, 2, 3):
        for b1, b5 in ((1, 0), (0, 1), (0, 0), (QSqrt3(0), Fraction(2, 3))):
            with pytest.raises(PoleError):
                family_assignment(fid, b1, b5)
        assert family_assignment(fid, QSqrt3(1, 1), -1)["b1"] == QSqrt3(1, 1)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="family id must be 1..3"):
        verify_family(4)


def test_family1_gamma_coordinates_rule_out_integer_points():
    # c3 = c4 = -1/(4 b5): nonzero with absolute value < 1 at every
    # nonzero integer parameter, so never an integer
    for b1 in (1, -1, 2, 5):
        for b5 in (1, -1, 3, 4):
            env = family_assignment(1, b1, b5)
            for key in ("c3", "c4"):
                val = env[key]
                assert val.b == 0 and not val.is_zero()
                assert abs(val.a) < 1


def test_families_2_and_3_are_irrational():
    rng = random.Random(2718)
    for _ in range(200):
        b1 = Fraction(rng.randrange(1, 30), rng.randrange(1, 9))
        b5 = Fraction(rng.randrange(1, 30), rng.randrange(1, 9))
        sign = rng.choice((1, -1))
        env2 = family_assignment(2, sign * b1, b5)
        env3 = family_assignment(3, sign * b1, b5)
        assert env2["a3"].b != 0 and env3["a3"].b != 0
        assert env2["a3"] == QSqrt3(0, Fraction(-1, 1)) / QSqrt3(2 * sign * b1)
        assert env3["a3"] == QSqrt3(0, 1) / QSqrt3(2 * sign * b1)


# --- integer search ----------------------------------------------------------


def test_subsystem_search_matches_brute_force():
    canon, sols = integer_search(2, labels=[2, 3])
    assert canon == ("b5", "b6", "c3", "c4")
    brute = sorted(
        (b5, b6, c3, c4)
        for b5, b6, c3, c4 in itertools.product(range(-2, 3), repeat=4)
        if b6 * c4 - b5 * c3 == 1 and b6 * c3 - b5 * c4 == 1
    )
    assert sols == brute
    assert (0, 1, 1, 1) in sols
    assert len(sols) == 16


def test_full_search_bound_1_matches_brute_force():
    canon, sols = integer_search(1)
    assert canon == VARIABLES
    # dumb integer-arithmetic oracle over all 3^12 assignments
    rows = []
    for eq in obstruction_system():
        if eq.terms:
            rows.append((
                [(c, [VARIABLES.index(v) for v in mono]) for c, mono in eq.terms],
                eq.target,
            ))
    brute = []
    for values in itertools.product((-1, 0, 1), repeat=12):
        for terms, target in rows:
            total = 0
            for c, idxs in terms:
                t = c
                for i in idxs:
                    t *= values[i]
                total += t
            if total != target:
                break
        else:
            brute.append(values)
    assert sols == sorted(brute) == []


def test_search_bound_0_is_empty():
    _, sols = integer_search(0)
    assert sols == []


def test_search_matches_reference_on_coupled_rows():
    rng = random.Random(161)
    assert integer_search(3, labels=[2, 3]) == reference_search(3, [2, 3])
    for _ in range(20):
        labels = rng.sample([2, 3, 4, 7, 12, 15], rng.randrange(1, 4))
        bound = rng.randrange(0, 3)
        assert integer_search(bound, labels=labels) == reference_search(bound, labels)


def test_search_matches_reference_on_small_subsets():
    # every subset of one to three rows, label 1 (0 = 0) included; at
    # bound 2 the unrelated degree-3 rows have up to 10^5-10^6
    # solutions, so the exhaustive sweep stops at bound 1
    for size in (1, 2, 3):
        for labels in itertools.combinations(range(1, 16), size):
            for bound in (0, 1):
                assert integer_search(bound, labels) == reference_search(bound, labels), labels


def test_search_matches_reference_on_full_system_and_random_subsets():
    for bound in range(4):
        assert integer_search(bound) == reference_search(bound) == (VARIABLES, [])
    rng = random.Random(2013)
    for _ in range(30):
        labels = rng.sample(range(1, 16), rng.randrange(4, 9))
        assert integer_search(1, labels) == reference_search(1, labels), labels


@pytest.mark.parametrize("labels", [[2, 3], [4, 7], [12, 15]])
def test_coupled_block_has_8b_solutions(labels):
    # each block factors into a handful of one-parameter branches with
    # exactly 8B integer points at bound B
    for bound in range(1, 21):
        assert len(integer_search(bound, labels)[1]) == 8 * bound


def _branch_points(bound, branches):
    """The points with |v| <= bound of one-parameter branches
    eps, t -> point, for eps = +-1 and every integer t."""
    ts = range(-2 * bound - 1, 2 * bound + 2)
    return sorted({p for eps in (1, -1) for branch in branches for t in ts
                   if max(map(abs, p := branch(eps, t))) <= bound})


# the block lemma: each coupled pair of rows factors, so its integer
# solutions are four one-parameter branches (variables in canonical order)
_COUPLED_BRANCHES = {
    (2, 3): (lambda e, t: (t, t + e, e, e), lambda e, t: (e, -e, t, -e - t)),  # b5 b6 c3 c4
    (4, 7): (lambda e, t: (e, e, t, t - e), lambda e, t: (t, e - t, e, -e)),  # a3 a4 b1 b2
    (12, 15): (lambda e, t: (e, e, t, e - t), lambda e, t: (t, e - t, e, e)),  # a5 a6 c1 c2
}


@pytest.mark.parametrize("labels", list(_COUPLED_BRANCHES))
def test_coupled_block_solutions_are_its_closed_form_branches(labels):
    for bound in range(1, 41):
        _, sols = integer_search(bound, labels)
        assert sols == _branch_points(bound, _COUPLED_BRANCHES[labels]), (labels, bound)


@pytest.mark.parametrize("labels", [
    (5, 6, 8, 9), (5, 6, 10, 13), (5, 8, 10, 11), (2, 3, 4, 5, 8), (2, 4, 6, 8, 12),
    (3, 4, 5, 9, 12), (4, 5, 10, 12, 15),
])
def test_search_matches_reference_where_two_uncoupled_rows_are_solved_together(labels):
    # each plan solves a block's last two variables from two rows that
    # are not a coupled pair, with a 2 x 2 determinant that is zero
    # under some heads and nonzero under others
    assert integer_search(2, labels) == reference_search(2, labels)


def test_independent_blocks_multiply():
    for bound in range(1, 6):
        canon, sols = integer_search(bound, [2, 3, 4, 7])
        assert len(sols) == (8 * bound) ** 2
        assert canon == ("a3", "a4", "b1", "b2", "b5", "b6", "c3", "c4")


def test_full_search_bound_10_is_empty_and_fast():
    t0 = time.perf_counter()
    assert integer_search(10) == (VARIABLES, [])
    assert time.perf_counter() - t0 < 2.0


def test_unknown_row_labels_rejected():
    for labels in ([99], [0], [2, 16]):
        with pytest.raises(ValueError, match="unknown row labels"):
            integer_search(2, labels)
    assert integer_search(2, [1]) == ((), [()])


def test_solution_count_limited_before_join():
    # rows 8 and 13 share no variable, so their solutions multiply
    assert len(integer_search(3, [8])[1]) == len(integer_search(3, [13])[1]) == 1784
    with pytest.raises(ValueError, match="3182656 solutions .* limit of 1000000"):
        integer_search(3, [8, 13])


def test_system_is_built_once_and_cross_checked(monkeypatch):
    assert obstruction_system() is obstruction_system()
    drifted = list(obstruction._SOLVER_LINES)
    drifted[0] = "b[6] c[4] + b[5] c[3] == 1"
    monkeypatch.setattr(obstruction, "_SOLVER_LINES", tuple(drifted))
    obstruction_system.cache_clear()
    try:
        with pytest.raises(AssertionError, match="transcription drift"):
            obstruction_system()
    finally:
        monkeypatch.undo()
        obstruction_system.cache_clear()
    assert obstruction_system() == obstruction._TABLE


def test_search_plan_orders_every_small_subset():
    # the subsets of the reference sweep: the plan lists each variable
    # once and takes rows with equal variable sets together
    for size in (1, 2, 3):
        for labels in itertools.combinations(range(1, 16), size):
            rows = [eq for eq in rows_of(labels) if eq.terms]
            order, plan = obstruction._search_order(rows)
            sets = [frozenset(obstruction._variables_of(eq)) for eq in plan]
            assert sorted(order) == sorted(set().union(*sets))
            assert sorted(eq.label for eq in plan) == [eq.label for eq in rows]
            for names in set(sets):
                at = [i for i, other in enumerate(sets) if other == names]
                assert at == list(range(at[0], at[-1] + 1)), labels


def test_full_system_plan():
    order, plan = obstruction._search_order([eq for eq in obstruction_system() if eq.terms])
    assert " ".join(order) == "a3 a4 b1 b2 a5 a6 c1 c2 b6 c4 b5 c3"
    assert [eq.label for eq in plan][:4] == [4, 7, 12, 15]


def test_subsystem_without_a_coupled_pair_is_fast():
    # an order that closes neither row (6) nor row (14) before the last
    # of their ten variables enumerates nine of them (5^9 nodes); the
    # plan closes row (6) after five
    t0 = time.perf_counter()
    found = integer_search(2, [6, 14])
    assert time.perf_counter() - t0 < 1.0
    assert found == reference_search(2, [6, 14])


# --- parity: the full system has no solution mod 2 -------------------------

#: the coupled pairs, and the cubic rows in the order the witness table
#: checks them
COUPLED = ((2, 3), (4, 7), (12, 15))
CUBIC = (5, 6, 8, 10, 9, 11, 13, 14)

#: rows (2)-(15) from the second transcription, the solver lines;
#: row (9)'s line ends in an extra "== 1" and is parsed all the same
SOLVER_ROWS = {label: obstruction._parse_solver_line(line)[:2]
               for label, line in enumerate(obstruction._SOLVER_LINES, start=2)}


def parity_set(terms, target) -> int:
    """The parity vectors at which a row holds mod 2, as a 4096-bit
    int: bit p is set when the row holds with VARIABLES[i] = bit i of p."""
    masks = [sum(1 << VARIABLES.index(v) for v in mono) for _, mono in terms]
    holds = ((sum(p & m == m for m in masks) - target) % 2 == 0 for p in range(4096))
    return int("".join("1" if ok else "0" for ok in holds)[::-1], 2)


PARITY = {label: parity_set(*row) for label, row in SOLVER_ROWS.items()}


def common_parity(labels) -> int:
    """The parity vectors at which every solver row with these labels
    holds, as a 4096-bit int."""
    common = (1 << 4096) - 1
    for label in labels:
        common &= PARITY[label]
    return common


def brute_solvable(labels) -> bool:
    return common_parity(labels) != 0


def parity_solvable(rows) -> bool:
    """_solvable_mod's verdict mod 2 on rows, each component planned as
    _search_component plans it."""
    for component in obstruction._components(list(rows)):
        order, plan = obstruction._search_order(component)
        ending: dict = {}
        for eq in plan:
            terms = [(c, tuple(order.index(v) for v in mono)) for c, mono in eq.terms]
            last = max(i for _, idxs in terms for i in idxs)
            ending.setdefault(last, []).append((terms, eq.target))
        if not obstruction._solvable_mod(order, ending, 2):
            return False
    return True


def test_solver_rows_have_no_common_parity_vector():
    assert [label for label, line in enumerate(obstruction._SOLVER_LINES, start=2)
            if obstruction._parse_solver_line(line)[2]] == [9]
    assert sorted(SOLVER_ROWS) == list(range(2, 16))
    assert not brute_solvable(SOLVER_ROWS)


def test_parity_witness_table():
    # each coupled pair reads four variables and holds at 4 of their 16
    # parity vectors (times the 2^8 free values of the other eight)
    for pair in COUPLED:
        names = {v for label in pair for _, mono in SOLVER_ROWS[label][0] for v in mono}
        assert len(names) == 4
        assert (PARITY[pair[0]] & PARITY[pair[1]]).bit_count() == 4 * 2**8
    # the pairs cover all twelve variables, so they leave 4^3 vectors,
    # and each fails a cubic row; the first failing row, in this order:
    combos = common_parity(label for pair in COUPLED for label in pair)
    vectors = [p for p in range(4096) if combos >> p & 1]
    assert len(vectors) == 64
    first = [next(label for label in CUBIC if not PARITY[label] >> p & 1) for p in vectors]
    assert [first.count(label) for label in CUBIC] == [26, 10, 8, 6, 4, 4, 4, 2]


#: the minimal row sets with no parity solution: the cubic rows and one
#: row of each coupled pair
CORES = [CUBIC + picks for picks in itertools.product(*COUPLED)]


def test_parity_precheck_agrees_with_brute_force():
    labels = range(2, 16)
    subsets = [*(s for size in (1, 2, 3) for s in itertools.combinations(labels, size)),
               *itertools.combinations(labels, 13), *CORES]
    assert len(subsets) == 14 + 91 + 364 + 14 + 8
    for subset in subsets:
        assert parity_solvable(rows_of(subset)) == brute_solvable(subset), subset


def test_minimal_parity_cores():
    # every row set with no parity solution holds one of the 8 cores
    refuted = [s for size in range(15) for s in itertools.combinations(range(2, 16), size)
               if not brute_solvable(s)]
    minimal = [s for s in refuted
               if all(brute_solvable(set(s) - {label}) for label in s)]
    assert sorted(map(sorted, minimal)) == sorted(map(sorted, CORES))
    # so dropping a pair row keeps the system refuted, and dropping any
    # cubic row lets parity solutions in
    for label in range(2, 16):
        rest = [other for other in range(2, 16) if other != label]
        assert parity_solvable(rows_of(rest)) == (label in CUBIC), label


#: a minimal row set that has parity solutions but none mod 4
MOD4_CORE = (2, 4, 5, 6, 8, 9, 10, 11, 13, 14)


def solvable_mod_4(labels) -> bool:
    """Whether the solver rows with these labels have a common solution
    mod 4: a depth-first walk over residues with the variables taken
    coupled pair by coupled pair, an order of its own rather than the
    search plan's, checking each row once its variables are all set."""
    rows = [SOLVER_ROWS[label] for label in labels]
    used = {v for terms, _ in rows for _, mono in terms for v in mono}
    names = [v for pair in COUPLED
             for v in sorted({v for _, mono in SOLVER_ROWS[pair[0]][0] for v in mono})
             if v in used]
    closing: dict = {}
    for terms, target in rows:
        last = max(names.index(v) for _, mono in terms for v in mono)
        closing.setdefault(last, []).append((terms, target))
    point: dict = {}

    def holds(terms, target) -> bool:
        total = 0
        for c, mono in terms:
            for v in mono:
                c *= point[v]
            total += c
        return (total - target) % 4 == 0

    def walk(d: int) -> bool:
        if d == len(names):
            return True
        for residue in range(4):
            point[names[d]] = residue
            if all(holds(*row) for row in closing.get(d, ())) and walk(d + 1):
                return True
        return False

    return walk(0)


def test_a_core_with_parity_solutions_is_refuted_mod_4():
    assert brute_solvable(MOD4_CORE) and parity_solvable(rows_of(MOD4_CORE))
    assert not solvable_mod_4(MOD4_CORE)
    # the search refutes it as one component, and no row can be spared:
    # without any one of them every component has an enumerator
    rows = rows_of(MOD4_CORE)
    assert obstruction._components(rows) == [rows]
    assert obstruction._search_component(rows)[2] is None
    for label in MOD4_CORE:
        rest = rows_of(set(MOD4_CORE) - {label})
        assert all(obstruction._search_component(component)[2] is not None
                   for component in obstruction._components(rest)), label
    assert integer_search(10**6, MOD4_CORE) == (VARIABLES, [])


def test_without_row_6_an_integer_point_solves_the_rest():
    point = dict(zip(VARIABLES, (-1, 2, -1, -1, 1, -1, -1, 0, 0, -1, 1, 1)))
    residuals = evaluate(obstruction_system(), point)
    assert {k: v for k, v in residuals.items() if not v.is_zero()} == {6: QSqrt3(-3)}
    rest = [label for label in range(1, 16) if label != 6]
    canon, sols = integer_search(2, rest)
    assert canon == VARIABLES and tuple(point.values()) in sols


def test_factored_search_still_finds_nothing_on_the_full_system(monkeypatch):
    # with the pre-check passing every component, the full system goes
    # through the block enumeration the parity refutation now skips
    monkeypatch.setattr(obstruction, "_solvable_mod", lambda order, ending, m: True)
    for bound in range(4):
        assert integer_search(bound) == reference_search(bound) == (VARIABLES, [])
    assert integer_search(6)[1] == []


def _mutated(label, change) -> list:
    """Rows (2)-(15) of the equation table with row `label` replaced by
    change(row); obstruction_system() would refuse them as drift."""
    return [change(eq) if eq.label == label else eq for eq in obstruction._TABLE[1:]]


def _flip_sign(k):
    return lambda eq: eq._replace(
        terms=tuple((-c if i == k else c, mono) for i, (c, mono) in enumerate(eq.terms)))


def _drop_term(k):
    return lambda eq: eq._replace(terms=eq.terms[:k] + eq.terms[k + 1:])


def _target_0(eq):
    return eq._replace(target=0)


@pytest.mark.parametrize("label", range(2, 16))
def test_parity_refutation_is_blind_to_signs(label):
    for k in range(2):
        assert not parity_solvable(_mutated(label, _flip_sign(k)))


@pytest.mark.parametrize("label", range(2, 16))
def test_parity_refutation_needs_every_cubic_row(label):
    # a cubic row with target 0, or with one monomial dropped, lets
    # parity solutions in; the same change to a pair row does not
    others = common_parity(other for other in range(2, 16) if other != label)
    for change in (_target_0, _drop_term(0), _drop_term(1)):
        row = change(obstruction._TABLE[label - 1])
        assert (others & parity_set(row.terms, row.target) != 0) == (label in CUBIC)
        assert parity_solvable(_mutated(label, change)) == (label in CUBIC)


def test_the_families_catch_every_sign_flip_but_row_15s_c1_a5():
    # each of the 28 terms of rows (2)-(15) with its sign flipped, on the
    # three families' 13 x 13 grids: the one flip no family sees is row
    # (15)'s c1*a5, because family 1 has c1 = 0 and families 2 and 3 a5 = 0
    points = [(fid, family_assignment(fid, b1, b5))
              for fid in FAMILIES for b1 in range(1, 14) for b5 in range(1, 14)]
    mutants = [(eq.label, k) for eq in obstruction._TABLE[1:] for k in range(len(eq.terms))]
    survivors = [
        (label, obstruction._TABLE[label - 1].terms[k]) for label, k in mutants
        if all(v.is_zero() for _, env in points
               for v in evaluate(_mutated(label, _flip_sign(k)), env).values())
    ]
    assert len(mutants) == 28
    assert survivors == [(15, (1, ("c1", "a5")))]
    assert all((env["c1"] if fid == 1 else env["a5"]).is_zero() for fid, env in points)
