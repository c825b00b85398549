import random
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indsat.dnf as dnf
from indsat.constructions import construct_tn, isat_formula, parse_family
from indsat.errors import ResourceLimitError
from indsat.patterns import C4, K3, P4
from indsat.saturation import is_indsat
from indsat.search import _augment, _black_array, _no_realization_survivors, isat_min
from indsat.trigraph import complete_gray, pair_count

from conftest import all_trigraphs, trigraph_from_code


def test_encode_p4_on_4_vertices():
    f = dnf.encode_pattern(4, P4)
    assert f.m == 6
    assert len(f.clauses) == 12
    for pos, neg in f.clauses:
        assert pos.bit_count() == 3 and neg.bit_count() == 3


def test_encode_k3_single_positive_clause():
    f = dnf.encode_pattern(3, K3)
    assert f.m == 3
    assert f.clauses == ((0b111, 0),)


def test_encode_scales():
    assert len(dnf.encode_pattern(5, P4).clauses) == 60
    with pytest.raises(ValueError):
        dnf.encode_pattern(3, P4)  # pattern larger than the vertex set
    with pytest.raises(ResourceLimitError):
        dnf.encode_pattern(9, P4)  # above the placement cap


def test_formula_validation():
    with pytest.raises(ValueError):
        dnf.DnfFormula(3, ((0b001, 0b001),))  # variable twice
    with pytest.raises(ValueError):
        dnf.DnfFormula(3, ((0, 0),))  # empty clause
    with pytest.raises(ValueError):
        dnf.DnfFormula(2, ((0b100, 0),))  # out of range


# -- assignments ------------------------------------------------------------


def test_assignment_round_trip_with_trigraphs():
    for t in list(all_trigraphs(3)):
        a = dnf.assignment_of(t)
        assert dnf.trigraph_of(3, a) == t
    assert dnf.assignment_of(complete_gray(4)).unassigned_count == 6
    assert dnf.assignment_of(construct_tn(4)[0]).unassigned_count == 2


def test_trigraph_of_dimension_check():
    a = dnf.PartialAssignment(6)
    with pytest.raises(ValueError):
        dnf.trigraph_of(5, a)


def test_assignment_strings():
    a = dnf.assignment_from_string("10-\n")
    assert (a.true_mask, a.false_mask, a.m) == (0b001, 0b010, 3)
    assert a.to_string() == "10-"
    assert a.value(0) is True and a.value(1) is False and a.value(2) is None
    with pytest.raises(ValueError):
        dnf.assignment_from_string("10x")
    with pytest.raises(ValueError):
        dnf.PartialAssignment(2, 0b01, 0b01)


# -- saturation of assignments ------------------------------------------------


def test_all_unassigned_is_not_saturated_when_satisfiable():
    f = dnf.encode_pattern(4, P4)
    assert not dnf.is_saturated(f, dnf.PartialAssignment(f.m))


def test_construction_assignments_are_saturated():
    for n in range(4, 9):
        f = dnf.encode_pattern(n, P4)
        a = dnf.assignment_of(construct_tn(n)[0])
        assert dnf.is_saturated(f, a)


def test_correspondence_on_a_sample_at_n5():
    f = dnf.encode_pattern(5, P4)
    rng = random.Random(11)
    for _ in range(400):
        t = trigraph_from_code(5, rng.randrange(3 ** pair_count(5)))
        assert dnf.is_saturated(f, dnf.assignment_of(t)) == is_indsat(t, P4).is_indsat


def test_single_clause_formula_by_hand():
    f = dnf.DnfFormula(1, ((0b1, 0),))  # the clause "x1"
    saturated = [
        a.to_string()
        for a in (
            dnf.PartialAssignment(1, 0b1, 0),
            dnf.PartialAssignment(1, 0, 0b1),
            dnf.PartialAssignment(1),
        )
        if dnf.is_saturated(f, a)
    ]
    assert saturated == ["0"]
    assert dnf.min_unassigned(f, 1) == 0


def test_local_check_matches_brute_completions():
    f = dnf.encode_pattern(4, P4)
    rng = random.Random(5)
    for _ in range(300):
        t = trigraph_from_code(4, rng.randrange(3**6))
        a = dnf.assignment_of(t)
        assert dnf.satisfiable_completion_exists(f, a) == dnf.satisfiable_completion_exists_brute(f, a)
        assert dnf.is_saturated(f, a) == dnf.is_saturated_brute(f, a)


def test_min_unassigned_values():
    assert dnf.min_unassigned(dnf.encode_pattern(4, P4), 6) == 2
    assert dnf.min_unassigned(dnf.encode_pattern(3, K3), 3) == 2
    assert dnf.min_unassigned(dnf.encode_pattern(4, P4), 1) is None  # cap below answer


@st.composite
def formulas(draw, max_m):
    """Random formulas: each clause a nonempty support split into signs."""
    m = draw(st.integers(0, max_m))
    clauses = set()
    if m:
        for support, signs in draw(st.lists(
            st.tuples(st.integers(1, (1 << m) - 1), st.integers(0, (1 << m) - 1)), max_size=8
        )):
            clauses.add((support & signs, support & ~signs))
    return dnf.DnfFormula(m, tuple(sorted(clauses)))


def _assignments(m, free):
    """Every full assignment of the variables outside free."""
    assigned = ((1 << m) - 1) & ~free
    for true in range(1 << m):
        if true & ~assigned == 0:
            yield dnf.PartialAssignment(m, true, assigned & ~true)


def _assert_kernel_matches_scalar_and_brute_checks(f):
    for free in range(1 << f.m):
        got = sorted(dnf._saturated_true_masks(f, free).tolist())
        scalar = [a.true_mask for a in _assignments(f.m, free) if dnf.is_saturated(f, a)]
        assert got == scalar
        brute = [a.true_mask for a in _assignments(f.m, free) if dnf.is_saturated_brute(f, a)]
        assert got == brute


@settings(max_examples=100, deadline=None)
@given(formulas(7))
def test_kernel_matches_scalar_and_brute_checks(f):
    _assert_kernel_matches_scalar_and_brute_checks(f)


@settings(max_examples=100, deadline=None)
@given(formulas(7))
def test_kernel_in_one_row_blocks_matches_scalar_and_brute_checks(f):
    """The same oracle with a block budget of one entry: the coverage pass runs
    in blocks of one row each and the screen on its 1-D path, one filter per
    clause.  With the real budget (the test above) at most 128 rows leave room
    for many clauses per block, so there the screen runs its 2-D blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dnf, "_COVERAGE_BLOCK", 1)
        _assert_kernel_matches_scalar_and_brute_checks(f)


@pytest.mark.parametrize("h, min_gray", [(P4, 3), (C4, 3), (K3, 5)], ids=["p4", "c4", "k3"])
def test_kernel_matches_scalar_check_on_split_blocks_at_n6(h, min_gray):
    """At n=6 the free set {} and every gray class with up to min_gray edges:
    the screen's rows against a filter over every coloring, and the kernel's
    against the scalar check on each of those rows, under three block
    budgets.  The real budget splits the coverage pass at {}, since its
    largest clause group times its rows exceeds it; 64 entries also splits
    the classes that have saturated rows; and twice the rows the screen at
    {} holds when it reaches its largest top group gives that group two
    clauses per screen block, so the screen cuts it into several 2-D blocks
    and a block that ran past its group's end would filter by clauses whose
    top is not placed yet."""
    f = dnf.encode_pattern(6, h)
    full = (1 << f.m) - 1
    clauses = dnf._clause_arrays(f)
    rows, (_, _, tops), _ = dnf._screen(clauses, full)
    v, lo, hi = max(tops, key=lambda top: top[2] - top[1])
    assert (hi - lo) * rows.size > dnf._COVERAGE_BLOCK
    assert hi - lo > 2
    # the colorings of the variables below v that leave completable no clause
    # with a lower top, each doubled by placing v
    lower = tuple(c for c in f.clauses if (c[0] | c[1]).bit_length() <= v)
    held = 2 * _no_realization_survivors(_black_array(v, 0), 0, lower).size
    budgets = [dnf._COVERAGE_BLOCK, 64, 2 * held]
    reps, frees = [0], [0]
    for _ in range(min_gray):
        reps = _augment(6, reps)
        frees += reps
    saturated = 0
    for free in frees:
        assigned = full & ~free
        screened = _no_realization_survivors(_black_array(f.m, free), free, f.clauses).tolist()
        expected = [
            true
            for true in screened
            if dnf.is_saturated(f, dnf.PartialAssignment(f.m, true, assigned & ~true))
        ]
        saturated += len(expected)
        for budget in budgets:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dnf, "_COVERAGE_BLOCK", budget)
                rows, grouped, _ = dnf._screen(clauses, assigned)
                assert rows.tolist() == screened, (free, budget)
                assert dnf._covered(rows, grouped, assigned).tolist() == expected, (free, budget)
    assert saturated  # the minimum-gray level has saturated rows


def _brute_minimum(f):
    """The least unassigned count of a saturated assignment, by brute force over all 3^m."""
    return min(
        (
            a.unassigned_count
            for digits in product("10-", repeat=f.m)
            if dnf.is_saturated_brute(f, a := dnf.assignment_from_string("".join(digits)))
        ),
        default=None,
    )


@settings(max_examples=80, deadline=None)
@given(formulas(6), st.none() | st.integers(-1, 7))
def test_min_unassigned_matches_brute_minimum(f, cap):
    """With no cap the brute minimum; with one, None unless it is at most cap."""
    brute = _brute_minimum(f)
    if cap is not None and brute is not None and brute > cap:
        brute = None
    assert dnf.min_unassigned(f, cap) == brute


def _walk(f, cap=None):
    """The (free, C(F), nb) triples ``_cubes`` yields for f, from the screen at {}."""
    s = dnf._screen(dnf._clause_arrays(f), (1 << f.m) - 1)[0]
    return list(dnf._cubes(s, f.m, f.m if cap is None else cap))


def _sweep_rows(f):
    """Saturated rows of every free set the walk yields, keyed by free mask."""
    return {free: cube[nb == 0].tolist() for free, cube, nb in _walk(f)}


def _saturated_in_cube(cube, assigned):
    """Reference rule: the rows x of C(F) with x ^ 2^v outside C(F) for every assigned v.

    x's own completions over F all falsify the formula, so unassigning v
    admits a satisfying completion exactly when x ^ 2^v is not in C(F).
    """
    rows = set(cube)
    flips = [1 << v for v in range(assigned.bit_length()) if assigned >> v & 1]
    return [x for x in cube if all(x ^ flip not in rows for flip in flips)]


def _bounded_dfs(cubes, m, cap, saturated):
    """Reference order of the walk over the nonempty C(F) in ``cubes``.

    Depth first from {}: each free set, then its extensions by each higher
    variable in ascending order.  Only sets of at most cap variables are
    visited, and after a set with a saturated row only sets smaller than it.
    """
    order, bound = [], cap + 1

    def visit(free, start):
        nonlocal bound
        order.append(free)
        if saturated(free):
            bound = free.bit_count()
            return
        for v in range(start, m):
            child = free | 1 << v
            if child in cubes and child.bit_count() < bound:
                visit(child, v + 1)

    if 0 in cubes and cap >= 0:
        visit(0, 0)
    return order


@settings(max_examples=100, deadline=None)
@given(formulas(7), st.integers(-1, 8))
def test_walk_carries_the_neighbour_masks_of_each_cube(f, cap):
    """The walk yields the free sets of the reference bounded depth-first
    order; each yielded C(F) equals its definition over S, each carried mask
    equals direct membership in C(F), and the rows with an empty mask are
    those of the reference rule."""
    full = (1 << f.m) - 1
    s = dnf._screen(dnf._clause_arrays(f), full)[0]
    rows_s = s.tolist()
    in_s = set(rows_s)
    cubes = {}  # C(F) by definition: the x with F's bits clear and every completion in S
    for free in range(1 << f.m):
        subsets = [sub for sub in range(free + 1) if sub & ~free == 0]
        cube = [x for x in rows_s if x & free == 0 and all(x | sub in in_s for sub in subsets)]
        if cube:
            cubes[free] = cube
    walked = _walk(f, cap)
    order = _bounded_dfs(
        cubes, f.m, cap, lambda free: bool(_saturated_in_cube(cubes[free], full & ~free))
    )
    assert [free for free, _, _ in walked] == order
    for free, cube, nb in walked:
        assert cube.tolist() == cubes[free], free
        rows = set(cubes[free])
        direct = [sum(1 << v for v in range(f.m) if x ^ (1 << v) in rows) for x in cubes[free]]
        assert nb.tolist() == direct, free
        assert cube[nb == 0].tolist() == _saturated_in_cube(cubes[free], full & ~free), free


@settings(max_examples=100, deadline=None)
@given(formulas(7))
def test_sweep_matches_kernel_and_brute_checks(f):
    """Every free set the walk yields agrees row by row with the kernel and
    with brute force.  Every free set it skips has an empty C(F), so each
    assignment of its assigned variables has a satisfying completion, or
    is no smaller than the brute minimum."""
    swept = _sweep_rows(f)
    brute = {
        free: [a.true_mask for a in _assignments(f.m, free) if dnf.is_saturated_brute(f, a)]
        for free in range(1 << f.m)
    }
    answer = min((free.bit_count() for free, rows in brute.items() if rows), default=f.m + 1)
    for free, rows in brute.items():
        if free in swept:
            assert swept[free] == dnf._saturated_true_masks(f, free).tolist() == rows
        else:
            assert free.bit_count() >= answer or all(
                dnf.satisfiable_completion_exists_brute(f, a) for a in _assignments(f.m, free)
            ), free


@settings(max_examples=100, deadline=None)
@given(formulas(7))
def test_partner_masks_match_the_searchsorted_derivation(f):
    """Each yielded child has the rows and masks of the derivation that
    located each partner x | 2^f in its parent's C(F) by ``np.searchsorted``:
    the rows x with bit f in nb & ~x, with masks nb(x) & nb(x | 2^f) & ~2^f,
    where f is the child's highest free variable."""
    walked = {free: (cube, nb) for free, cube, nb in _walk(f)}
    for free, (cube, nb) in walked.items():
        if not free:
            continue
        bit = np.int64(1 << (free.bit_length() - 1))
        parent_cube, parent_nb = walked[free & ~int(bit)]
        rows = np.flatnonzero(parent_nb & ~parent_cube & bit)
        child = parent_cube[rows]
        above = np.searchsorted(parent_cube, child | bit)
        assert (parent_cube[above] == child | bit).all(), free
        assert cube.tolist() == child.tolist(), free
        assert nb.tolist() == (parent_nb[rows] & parent_nb[above] & ~bit).tolist(), free


def test_sweep_first_saturated_set_follows_a_pruned_subtree():
    f = dnf.DnfFormula(4, ((0b0010, 0),))  # the clause "x2" over four variables
    s = dnf._screen(dnf._clause_arrays(f), 0b1111)[0]
    assert s.tolist() == [0b0000, 0b0001, 0b0100, 0b0101, 0b1000, 0b1001, 0b1100, 0b1101]
    # C({0, 1}) is empty: no row can add variable 1, so no superset of {0, 1}
    # is reached.  {0, 2, 3} is, and once it is saturated only sets of at
    # most two variables follow.
    assert dnf._screen(dnf._clause_arrays(f), 0b1100)[0].size == 0
    walked = list(dnf._cubes(s, 4, 4))
    assert [free for free, _, _ in walked] == [
        0b0000, 0b0001, 0b0101, 0b1101, 0b1001, 0b0100, 0b1100, 0b1000
    ]
    assert [(free, cube.tolist(), nb.tolist()) for free, cube, nb in walked[3:4]] == [
        (0b1101, [0], [0])
    ]
    assert [free for free, _, _ in dnf._cubes(s, 4, 2)] == [
        0b0000, 0b0001, 0b0101, 0b1001, 0b0100, 0b1100, 0b1000
    ]
    assert dnf.min_unassigned(f) == 3
    assert dnf.min_unassigned(f, 2) is None


def test_kernel_fixed_cases():
    either = dnf.DnfFormula(2, ((0b01, 0), (0b10, 0)))  # x1 or x2
    assert dnf._saturated_true_masks(either, 0b01).size == 0  # the clause x1 is all free
    assert dnf._saturated_true_masks(either, 0).tolist() == [0]
    assert dnf.min_unassigned(either) == 0
    empty = dnf.DnfFormula(3, ())
    assert dnf.min_unassigned(empty) == 3
    assert dnf.min_unassigned(empty, 2) is None
    assert dnf.min_unassigned(dnf.DnfFormula(0, ())) == 0


def test_min_unassigned_reaches_n6_and_n7():
    p4 = dnf.encode_pattern(6, P4)
    assert dnf.min_unassigned(p4) == 3 == isat_formula(parse_family("p4"), 6)
    assert dnf.min_unassigned(dnf.encode_pattern(6, K3)) == 5  # (h-2)n - C(h-1,2)
    p4_n7 = dnf.encode_pattern(7, P4)
    start = time.perf_counter()
    assert dnf.min_unassigned(p4_n7) == 3
    assert time.perf_counter() - start < 5.0  # about 0.1 s on a 2-core x86 host
    # about 0.6 s each on a 2-core x86 host
    k3_n7 = dnf.min_unassigned(dnf.encode_pattern(7, K3))
    assert k3_n7 == 6 == isat_formula(parse_family("k3"), 7) == isat_min(7, K3).min_gray
    assert dnf.min_unassigned(dnf.encode_pattern(7, C4)) == 3 == isat_min(7, C4).min_gray


def test_resource_caps():
    big = dnf.DnfFormula(22, ((1, 0),))
    with pytest.raises(ResourceLimitError):
        dnf.min_unassigned(big)
    f21 = dnf.DnfFormula(21, ((1, 0),))
    with pytest.raises(ResourceLimitError):
        dnf.satisfiable_completion_exists_brute(f21, dnf.PartialAssignment(21))


# -- text formats -------------------------------------------------------------


def test_dnf_round_trip():
    f = dnf.encode_pattern(4, P4)
    assert dnf.loads(dnf.dumps(f)) == f
    text = dnf.dumps(f)
    assert text.splitlines()[0] == "dnf 6 12"


def test_dnf_accepts_the_largest_variable_count():
    f = dnf.loads("dnf 2016 1\n-2016 1")
    assert (f.m, f.clauses) == (2016, ((1, 1 << 2015),))


def test_dnf_clause_literals_are_signed_one_based():
    f = dnf.DnfFormula(3, ((0b101, 0b010),))
    assert f.clause_literals() == [[1, -2, 3]]
    assert dnf.dumps(f) == "dnf 3 1\n1 -2 3\n"


@pytest.mark.parametrize(
    "doc",
    [
        "",
        "cnf 3 1\n1 2 3",
        "dnf 3 2\n1 2 3",  # clause count mismatch
        "dnf 3 1\n0",
        "dnf 3 1\n4",
        "dnf 3 1\n1 -1",  # variable twice
    ],
)
def test_dnf_rejects_malformed(doc):
    with pytest.raises(ValueError):
        dnf.loads(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ("dnf x 1\n1", "line 1: bad header line 'dnf x 1'"),
        ("# c\ndnf 3 -1\n", "line 2: bad header line 'dnf 3 -1'"),
        ("dnf 3 1\n1 a", "line 2: bad literal 'a'"),
        ("dnf 3 2\n1\n\n2 --3", "line 4: bad literal '--3'"),
        ("dnf 3 1\n1 -1", "line 2: variable 1 appears twice in a clause"),
        ("dnf 3 2\n1\n# c\n2 -4", "line 4: literal -4 outside variable range 1..3"),
        ("dnf 3 1\n-0", "line 2: literal 0 outside variable range 1..3"),
        ("\n# c\ndnf 3 2\n1\n\n", "line 3: expected 2 clause lines, found 1"),
        ("", "line 1: empty dnf document (no header line)"),
        ("# c\n\n", "line 1: empty dnf document (no header line)"),
        ("dnf 2017 1\n1", "line 1: variable count 2017 outside supported range 0..2016"),
        # Arabic-Indic digits pass str.isdecimal() but are not numbers of the format
        ("dnf \u0663 1\n1", "line 1: bad header line 'dnf \u0663 1'"),
        ("dnf 3 1\n1 -\u0662", "line 2: bad literal '-\u0662'"),
    ],
    ids=["header-count", "header-negative", "token", "double-sign", "twice", "out-of-range",
         "zero", "clause-count", "empty", "comments-only", "too-many-variables",
         "header-non-ascii-digit", "literal-non-ascii-digit"],
)
def test_dnf_errors_name_their_line(doc, message):
    with pytest.raises(ValueError) as exc:
        dnf.loads(doc)
    assert str(exc.value) == message
