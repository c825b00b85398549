import random
import time
from collections import defaultdict
from functools import lru_cache
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indsat.constructions import construct_tn
import indsat.dnf as dnf
import indsat.search as search
from indsat.dnf import _clause_arrays, _screen, encode_pattern, min_unassigned
from indsat.errors import ResourceLimitError
from indsat.patterns import C4, K3, P3, P4, PatternGraph, from_edges
from indsat.saturation import is_indsat
from indsat.search import (
    CanonicalForm,
    _augment,
    _canonical_keys,
    _perm_pair_table,
    _prefix_groups,
    all_indsat_witnesses,
    canonical_form,
    canonical_key,
    enumerate_indsat,
    isat_min,
    isat_min_naive,
)
from indsat.trigraph import (
    Trigraph,
    all_pairs,
    complete_gray,
    index_pair,
    pair_count,
    pair_index,
)

from conftest import all_trigraphs, trigraph_from_code


def test_canonical_invariant_under_relabeling():
    rng = random.Random(7)
    for _ in range(40):
        t = trigraph_from_code(4, rng.randrange(3**6))
        perm = list(range(4))
        rng.shuffle(perm)
        assert canonical_key(t) == canonical_key(t.permute(perm))


def test_canonical_separates_nonisomorphic():
    a = Trigraph(3, black=0b001)  # one black pair
    b = Trigraph(3, black=0b011)  # two black pairs
    assert canonical_key(a) != canonical_key(b)


def test_canonical_form_of_all_gray_is_itself():
    t = complete_gray(4)
    form = canonical_form(t)
    assert form.to_trigraph() == t
    for perm in permutations(range(4)):
        assert canonical_form(t.permute(perm)) == form


@pytest.mark.parametrize("n", range(9))
def test_perm_pair_table_matches_double_loop(n):
    """Column g holds 2^pair_index(g(u), g(v)) for each colex pair (u, v); the
    columns are the lexicographic permutations conjugated by v -> n-1-v, so
    for each j the first j! columns are exactly those fixing j..n-1."""
    perms = [p[::-1] for p in permutations(range(n - 1, -1, -1))]
    assert sorted(perms) == sorted(permutations(range(n)))
    for j in range(n + 1):
        fixers = [g for g in permutations(range(n)) if g[j:] == tuple(range(j, n))]
        assert sorted(perms[: factorial(j)]) == sorted(fixers)
    pairs = list(map(index_pair, range(pair_count(n))))
    expected = [[1 << pair_index(g[u], g[v]) for g in perms] for u, v in pairs]
    table = _perm_pair_table(n)
    assert table.shape == (pair_count(n), factorial(n))
    assert table.dtype == np.int64
    assert table.tolist() == expected


@st.composite
def gray_sets_with_black_rows(draw):
    """n <= 7, a gray set and up to six black masks on the other pairs."""
    n = draw(st.integers(2, 7))
    m = pair_count(n)
    gray = draw(st.integers(0, (1 << m) - 1))
    blacks = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=6))
    return n, gray, [black & ~gray for black in blacks]


# a path 0-1-2-3-4-5 with the chord 2-4, vertex 6 isolated: no automorphism
# but the identity, so one permutation gives the least gray image
ASYMMETRIC_GRAY_N7 = sum(
    1 << pair_index(u, v) for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5)]
)


@settings(max_examples=60, deadline=None)
@given(gray_sets_with_black_rows())
@example((7, ASYMMETRIC_GRAY_N7, [b & ~ASYMMETRIC_GRAY_N7 for b in (0, 6, 12345, (1 << 21) - 1)]))
def test_canonical_keys_of_a_gray_set_match_canonical_key(case):
    """One pass per gray set gives each row the key canonical_key gives it, also
    with the permutations and the rows cut into blocks of a few entries."""
    n, gray, blacks = case
    expected = [canonical_key(Trigraph(n, black, gray)) for black in blacks]
    assert _canonical_keys(n, gray, np.array(blacks, dtype=np.int64)) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_ORBIT_BLOCK", 64)
        mp.setattr(dnf, "_ORBIT_BLOCK", 64)
        assert _canonical_keys(n, gray, np.array(blacks, dtype=np.int64)) == expected


@pytest.mark.parametrize("n", [4, 5])
def test_canonical_keys_match_canonical_key_exhaustively(n):
    """Every gray set at n=4, and at n=5 every set of up to two gray pairs
    (the empty one keeps all 120 permutations), with all their black masks."""
    m = pair_count(n)
    for gray in range(1 << m):
        if n == 5 and gray.bit_count() > 2:
            continue
        blacks = [black for black in range(1 << m) if not black & gray]
        expected = [canonical_key(Trigraph(n, black, gray)) for black in blacks]
        assert _canonical_keys(n, gray, np.array(blacks, dtype=np.int64)) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_ORBIT_BLOCK", 64)
            mp.setattr(dnf, "_ORBIT_BLOCK", 64)
            assert _canonical_keys(n, gray, np.array(blacks, dtype=np.int64)) == expected


def _augment_by_canonical_key(n, reps):
    """The oracle: one canonical_key call per one-edge extension."""
    m = pair_count(n)
    return sorted(
        {
            canonical_key(Trigraph(n, 0, gray | 1 << i)) >> m
            for gray in reps
            for i in range(m)
            if not gray >> i & 1
        }
    )


# graphs on n vertices with k edges, k = 0..C(n,2) (OEIS A008406)
@pytest.mark.parametrize(
    "n, classes",
    [
        (4, [1, 1, 2, 3, 2, 1, 1]),
        (5, [1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1]),
        (6, [1, 1, 2, 5, 9, 15, 21, 24, 24, 21, 15, 9, 5, 2, 1, 1]),
        (7, [1, 1, 2, 5, 10, 21, 41, 65]),
    ],
    ids=["n4", "n5", "n6", "n7"],
)
def test_augment_matches_one_canonical_key_per_extension(n, classes):
    """The batched augmentation against the per-extension loop, level by level;
    at n=7 up to 7 edges, the last level also with blocks of 64 entries."""
    reps = [0]
    counts = [1]
    for k in range(1, len(classes)):
        expected = _augment_by_canonical_key(n, reps)
        got = _augment(n, reps)
        assert got == expected, (n, k)
        if k == len(classes) - 1:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(search, "_ORBIT_BLOCK", 64)
                assert _augment(n, reps) == expected
        reps = got
        counts.append(len(reps))
    assert counts == classes


def test_canonical_size_cap():
    with pytest.raises(ResourceLimitError):
        canonical_key(complete_gray(9))


def _burnside_count(n, colors=3):
    """Independent oracle: classes of pair colorings under vertex relabeling."""
    total = 0
    m = pair_count(n)
    for perm in permutations(range(n)):
        image = {}
        for u, v in all_pairs(n):
            image[pair_index(u, v)] = pair_index(perm[u], perm[v])
        seen, cycles = set(), 0
        for start in range(m):
            if start in seen:
                continue
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = image[x]
        total += colors**cycles
    count, rem = divmod(total, len(list(permutations(range(n)))))
    assert rem == 0
    return count


@lru_cache(maxsize=None)
def _trigraph_classes(n):
    """One canonical form per isomorphism class of all 3^C(n,2) trigraphs."""
    return sorted({canonical_form(t) for t in all_trigraphs(n)})


def test_canonical_class_count_matches_burnside():
    assert _burnside_count(4) == 66
    keys = {canonical_key(t) for t in all_trigraphs(4)}
    assert len(keys) == 66
    # the classes the all-k oracle below runs through is_indsat
    assert len(_trigraph_classes(5)) == 792 == _burnside_count(5)


# -- minimum-gray search ----------------------------------------------------


def test_isat_min_p4_small_values():
    assert isat_min(4, P4).min_gray == 2
    assert isat_min(5, P4).min_gray == 2


def test_isat_min_witness_counts_are_stable():
    assert len(isat_min(4, P4).witnesses) == 3
    assert len(isat_min(5, P4).witnesses) == 2


def test_witnesses_are_saturated_with_min_gray():
    res = isat_min(5, P4)
    for w in res.witnesses:
        t = w.to_trigraph()
        assert t.gray_count == res.min_gray
        assert is_indsat(t, P4).is_indsat


def test_isat_min_k3():
    assert isat_min(4, K3, k_max=5).min_gray == 3


def test_isat_min_respects_kmax():
    res = isat_min(4, P4, k_max=1)
    assert res.min_gray is None
    assert res.witnesses == []
    assert res.k_max == 1


def test_isat_min_argument_errors():
    with pytest.raises(ResourceLimitError):
        isat_min(9, P4)
    with pytest.raises(ValueError):
        isat_min(1, P4)
    with pytest.raises(ValueError):
        isat_min(4, P4, k_max=7)


def _graphs_up_to_isomorphism(k):
    reps = {}
    for edges in range(1 << pair_count(k)):
        reps.setdefault(canonical_key(Trigraph(k, edges)), PatternGraph(k, edges))
    return list(reps.values())


SMALL_PATTERNS = _graphs_up_to_isomorphism(3) + _graphs_up_to_isomorphism(4)


def _saturated_classes_by_gray_count(n, h):
    """The all-k oracle: the trigraph classes that pass is_indsat, by gray count."""
    out = defaultdict(list)
    for form in _trigraph_classes(n):
        if is_indsat(form.to_trigraph(), h).is_indsat:
            out[form.gray.bit_count()].append(form)
    return out


@pytest.mark.parametrize("h", SMALL_PATTERNS, ids=lambda h: f"k{h.k}-edges{h.edges}")
def test_search_agrees_with_dnf_sweep_and_cross_check_route(h):
    """The class-reduced kernel search against the unreduced DNF sweep, and
    isat_min's witnesses and enumerate_indsat at every gray count against the
    all-k oracle: every trigraph class that passes is_indsat."""
    for n in range(h.k, 6):
        expected = _saturated_classes_by_gray_count(n, h)
        res = isat_min(n, h)
        assert res.min_gray == min_unassigned(encode_pattern(n, h))
        assert res.min_gray == min(expected, default=None)
        assert res.witnesses == expected.get(res.min_gray, [])
        for k in range(pair_count(n) + 1):
            assert enumerate_indsat(n, h, k) == expected.get(k, []), (n, k)
        for w in res.witnesses:
            assert is_indsat(w.to_trigraph(), h).is_indsat


# One graph per isomorphism class on 4 vertices, by name.
GRAPHS_ON_4 = {
    "4k1": [],
    "k2+2k1": [(0, 1)],
    "2k2": [(0, 1), (2, 3)],
    "p3+k1": [(0, 1), (1, 2)],
    "k3+k1": [(0, 1), (1, 2), (0, 2)],
    "p4": [(0, 1), (1, 2), (2, 3)],
    "claw": [(0, 1), (0, 2), (0, 3)],
    "paw": [(0, 1), (1, 2), (0, 2), (2, 3)],
    "c4": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "diamond": [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
    "k4": [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)],
}


def test_named_graphs_on_4_are_one_per_class():
    keys = [canonical_key(Trigraph(4, from_edges(4, e).edges)) for e in GRAPHS_ON_4.values()]
    assert sorted(keys) == sorted(
        canonical_key(Trigraph(4, g.edges)) for g in _graphs_up_to_isomorphism(4)
    )


@pytest.mark.parametrize(
    "h", [from_edges(4, edges) for edges in GRAPHS_ON_4.values()] + [K3],
    ids=list(GRAPHS_ON_4) + ["k3"],
)
def test_search_agrees_with_dnf_sweep_at_n6(h):
    assert isat_min(6, h).min_gray == min_unassigned(encode_pattern(6, h))


# (min_gray, witness classes) at n = 6, 7 as the search gave them before the
# screen's orbit steps; the n=8 bound is about six times P4's 0.5 s on a
# 2-core x86 host with the n=8 permutation table still to build.  Each
# level's (k, gray_classes, saturated_rows, peak_rows, witness_classes) is
# pinned as well: a wrong prefix group changes these counts before it
# changes any answer.
PIN_LEVELS = {
    "p4-n7": [(0, 1, 0, 1964, 0), (1, 1, 0, 2272, 0), (2, 2, 0, 1092, 0), (3, 5, 12, 624, 8)],
    "k3-n6": [
        (0, 1, 0, 254, 0),
        (1, 1, 0, 334, 0),
        (2, 2, 0, 290, 0),
        (3, 5, 0, 136, 0),
        (4, 9, 0, 90, 0),
        (5, 15, 1, 28, 1),
    ],
    "p4-n6": [(0, 1, 0, 520, 0), (1, 1, 0, 496, 0), (2, 2, 0, 188, 0), (3, 5, 29, 112, 11)],
    "c4-n6": [(0, 1, 0, 784, 0), (1, 1, 0, 1352, 0), (2, 2, 0, 1308, 0), (3, 5, 1, 600, 1)],
    "c4-n7": [(0, 1, 0, 4786, 0), (1, 1, 0, 12306, 0), (2, 2, 0, 13950, 0), (3, 5, 1, 13388, 1)],
    "k3-n7": [
        (0, 1, 0, 1092, 0),
        (1, 1, 0, 2104, 0),
        (2, 2, 0, 2068, 0),
        (3, 5, 0, 1766, 0),
        (4, 10, 0, 852, 0),
        (5, 21, 0, 438, 0),
        (6, 41, 1, 186, 1),
    ],
    "p4-n8": [(0, 1, 0, 6916, 0), (1, 1, 0, 9800, 0), (2, 2, 0, 5632, 0), (3, 5, 8, 3420, 2)],
}


@pytest.mark.parametrize(
    "n, h, min_gray, classes, bound_s, levels",
    [
        (7, P4, 3, 8, 10.0, PIN_LEVELS["p4-n7"]),
        (6, K3, 5, 1, 2.0, PIN_LEVELS["k3-n6"]),
        (6, P4, 3, 11, 2.0, PIN_LEVELS["p4-n6"]),
        (6, C4, 3, 1, 2.0, PIN_LEVELS["c4-n6"]),
        (7, C4, 3, 1, 10.0, PIN_LEVELS["c4-n7"]),
        (7, K3, 6, 1, 10.0, PIN_LEVELS["k3-n7"]),
        (8, P4, 3, 2, 3.0, PIN_LEVELS["p4-n8"]),
    ],
    ids=["p4-n7", "k3-n6", "p4-n6", "c4-n6", "c4-n7", "k3-n7", "p4-n8"],
)
def test_search_pins(n, h, min_gray, classes, bound_s, levels):
    start = time.perf_counter()
    res = isat_min(n, h)
    elapsed = time.perf_counter() - start
    assert (res.min_gray, len(res.witnesses)) == (min_gray, classes)
    assert elapsed < bound_s
    fields = ("k", "gray_classes", "saturated_rows", "peak_rows", "witness_classes")
    assert [tuple(level[f] for f in fields) for level in res.stats["levels"]] == levels
    for w in res.witnesses:
        assert is_indsat(w.to_trigraph(), h).is_indsat


PAW = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([P3, P4, C4, K3, PAW]),
    st.integers(4, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, pair_count(n) - 1), max_size=5))
    ),
)
def test_orbit_steps_keep_a_subset_with_every_class(h, case):
    """The screen with the prefix groups against the screen without them."""
    n, pairs = case
    gray = sum(1 << i for i in pairs)
    clauses = _clause_arrays(encode_pattern(n, h))
    assigned = ((1 << pair_count(n)) - 1) & ~gray
    reduced = _screen(clauses, assigned, _prefix_groups(n, gray))[0].tolist()
    full = _screen(clauses, assigned)[0].tolist()
    assert set(reduced) <= set(full)
    keys = {canonical_key(Trigraph(n, black, gray)) for black in reduced}
    assert keys == {canonical_key(Trigraph(n, black, gray)) for black in full}


def _prefix_group_images(n, gray):
    """The oracle: for each j, the images 2^g(i) of the prefix pairs i under
    the gray graph's automorphisms g that fix j..n-1, by a plain loop."""
    edges = {(u, v) for u, v in all_pairs(n) if gray >> pair_index(u, v) & 1}
    autos = [
        g
        for g in permutations(range(n))
        if all((min(g[u], g[v]), max(g[u], g[v])) in edges for u, v in edges)
    ]
    return {
        j: {
            tuple(1 << pair_index(g[u], g[v]) for u, v in all_pairs(j))
            for g in autos
            if g[j:] == tuple(range(j, n))
        }
        for j in range(3, n)
    }


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, pair_count(n) - 1), max_size=8))
    )
)
@example((7, set()))  # every G_j is the whole of S_j
@example((6, {0, 2, 5}))  # the path 0-1-2-3: G_5 and G_4 reverse it, G_3 is trivial
@example((7, {i for i in range(21) if ASYMMETRIC_GRAY_N7 >> i & 1}))  # no step
def test_prefix_groups_are_the_fixing_automorphisms(case):
    """Each step of ``_prefix_groups`` holds, as columns, exactly the images of
    the automorphisms fixing j..n-1, for j = n-1 down to the first trivial group."""
    n, pairs = case
    gray = sum(1 << i for i in pairs)
    expected = _prefix_group_images(n, gray)
    js = []
    for j in range(n - 1, 2, -1):
        if len(expected[j]) == 1:
            break
        js.append(j)
    steps = _prefix_groups(n, gray)
    assert [b for b, _ in steps] == [pair_count(j) for j in reversed(js)]
    for (b, images), j in zip(steps, reversed(js)):
        columns = [tuple(column) for column in images.T.tolist()]
        assert len(columns) == len(expected[j])
        assert set(columns) == expected[j]


def test_naive_agrees_at_n4():
    pruned = isat_min(4, P4)
    naive = isat_min_naive(4, P4)
    assert pruned.min_gray == naive.min_gray
    assert pruned.witnesses == naive.witnesses


def test_naive_size_cap():
    with pytest.raises(ResourceLimitError):
        isat_min_naive(6, P4)
    with pytest.raises(ValueError):
        isat_min_naive(1, P4)


def test_level_stats_schema_and_totals():
    res = isat_min(6, P4)
    levels = res.stats["levels"]
    assert [level["k"] for level in levels] == list(range(res.min_gray + 1))
    for level in levels:
        assert set(level) == {
            "k",
            "gray_classes",
            "saturated_rows",
            "peak_rows",
            "witness_classes",
            "seconds",
        }
        assert level["seconds"] >= 0
        assert level["saturated_rows"] >= level["witness_classes"]
    assert sum(level["gray_classes"] for level in levels) == res.stats["gray_classes"]
    # graphs on 6 vertices with 0..3 edges (OEIS A008406).  The screen keeps
    # one row per orbit of each prefix's group, so the 29 saturated rows are
    # fewer than the 70 labelled colorings the scalar dnf.is_saturated finds
    # over every coloring of the five k=3 classes.
    assert [level["gray_classes"] for level in levels] == [1, 1, 2, 5]
    assert [level["saturated_rows"] for level in levels] == [0, 0, 0, 29]
    assert [level["peak_rows"] for level in levels] == [520, 496, 188, 112]
    assert [level["witness_classes"] for level in levels] == [0, 0, 0, 11]
    assert len(res.witnesses) == 11


def test_result_dict_schema():
    d = isat_min(4, P4).to_dict()
    assert set(d) == {
        "n",
        "pattern",
        "min_gray",
        "searched_up_to_k",
        "witness_count",
        "witnesses",
        "stats",
    }
    assert d["witnesses"][0].keys() == {"n", "gray_mask", "black_mask"}


# -- enumeration ------------------------------------------------------------


def test_enumerate_no_grayless_witness_on_4():
    assert enumerate_indsat(4, P4, 0) == []


def test_enumerate_contains_the_construction():
    forms = enumerate_indsat(4, P4, 2)
    assert canonical_form(construct_tn(4)[0]) in forms
    assert len(forms) == 3


def test_enumerate_three_vertices_is_all_gray_only():
    for k in range(3):
        assert enumerate_indsat(3, P4, k) == []
    assert enumerate_indsat(3, P4, 3) == [canonical_form(complete_gray(3))]


def test_enumerate_bounds():
    with pytest.raises(ResourceLimitError):
        enumerate_indsat(9, P4, 2)
    with pytest.raises(ResourceLimitError):
        all_indsat_witnesses(9, P4)
    with pytest.raises(ValueError):
        enumerate_indsat(4, P4, 7)
    with pytest.raises(ValueError):
        enumerate_indsat(-1, P4, 0)
    with pytest.raises(ValueError):
        all_indsat_witnesses(-1, P4)


@pytest.mark.parametrize("n", [0, 1])
def test_enumeration_without_pairs_gives_the_one_trigraph(n):
    """With no pair there is one trigraph, and it is vacuously saturated."""
    for h in (P3, P4, K3):
        assert enumerate_indsat(n, h, 0) == [CanonicalForm(n, 0, 0)]
        assert all_indsat_witnesses(n, h) == [CanonicalForm(n, 0, 0)]
        assert is_indsat(Trigraph(n), h).is_indsat


def test_all_witnesses_counts():
    assert len(all_indsat_witnesses(2, P4)) == 1
    assert len(all_indsat_witnesses(3, P4)) == 1
    assert len(all_indsat_witnesses(4, P4)) == 7
    assert len(all_indsat_witnesses(5, P4)) == 11


def test_naive_and_enumeration_find_same_minimum_witnesses():
    naive = isat_min_naive(4, P4)
    assert enumerate_indsat(4, P4, naive.min_gray) == naive.witnesses


def test_canonical_forms_order():
    forms = enumerate_indsat(4, P4, 2)
    assert forms == sorted(forms)
    assert all(isinstance(f, CanonicalForm) for f in forms)
