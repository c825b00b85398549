import hashlib
from functools import lru_cache
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indsat.detect
import indsat.saturation
from indsat.constructions import construct_alternative, construct_tn
from indsat.detect import embedding_is_valid, has_realization_brute, has_realization_of
from indsat.patterns import (
    C4,
    K3,
    P3,
    P4,
    PatternGraph,
    anchor_pair_orbits,
    complete_graph,
    complete_minus_edge,
    cycle_graph,
    from_edges,
    isomorphic,
    path_graph,
)
from indsat.saturation import (
    GrayShape,
    classify_gray_components,
    flip_orbits,
    flips_all_create,
    is_indsat,
    partition_star,
    partition_triangle,
    twin_classes,
)
from indsat.search import isat_min
from indsat.trigraph import (
    BLACK,
    GRAY,
    WHITE,
    Trigraph,
    all_pairs,
    complete_gray,
    from_pairs,
    index_pair,
    pair_count,
    pair_index,
)

from conftest import all_trigraphs, trigraphs


ORACLE_PATTERNS = (P3, K3, P4, C4, complete_graph(4))


def all_black(n):
    return Trigraph(n, (1 << pair_count(n)) - 1, 0)


def gray_star(n):
    """Gray star centred at 0 on all n vertices, leaves pairwise white: K3-saturated."""
    return from_pairs(n, gray=[(0, v) for v in range(1, n)])


def brute_report(t, h):
    """(holds_free, failing_flip) from Trigraph.flip and the brute realization oracle."""
    if has_realization_brute(t, h):
        return False, None
    for u, v in all_pairs(t.n):
        if t.color(u, v) is not GRAY and not has_realization_brute(t.flip(u, v), h):
            return True, (u, v)
    return True, None


# -- unpruned references for the twin-pruned searches ----------------------


def unpruned_generic(bg, wg, n, plan, anchors=(), twins=None):
    """The generic search as it was before twin pruning: every candidate in turn.

    Like `detect._find_generic` it places the anchors unchecked, so the
    two differ in twin pruning alone.  twins is accepted and ignored, so
    that this can stand in for `detect._find_generic`.
    """
    order, checks = plan
    k = len(order)
    if k > n:
        return None
    images = list(anchors) + [0] * (k - len(anchors))
    full = (1 << n) - 1
    cands = [0] * k
    depth = base = len(anchors)
    while depth < k:
        cand = full
        for j, is_edge in checks[depth]:
            cand &= bg[images[j]] if is_edge else wg[images[j]]
        while not cand:
            depth -= 1
            if depth < base:
                return None
            cand = cands[depth]
        low = cand & -cand
        cands[depth] = cand ^ low
        images[depth] = low.bit_length() - 1
        depth += 1
    found = [0] * k
    for depth, v in enumerate(order):
        found[v] = images[depth]
    return tuple(found)


def colex_p4(bg, wg, twins=None):
    """The P4 kernel's condition-(a) scan over every black/gray middle pair, in colex order."""
    for v3 in range(len(bg)):
        below = bg[v3] & ((1 << v3) - 1)
        while below:
            low = below & -below
            v2 = low.bit_length() - 1
            ends = indsat.detect._linked(wg, bg[v2] & wg[v3], bg[v3] & wg[v2])
            if ends is not None:
                return ends[0], v2, v3, ends[1]
            below ^= low
    return None


def reference_injection(t, h):
    """`detect._find_injection` by the unpruned searches."""
    if h.k > t.n:
        return None
    bg, wg = indsat.detect._compat_masks(t)
    plan = indsat.detect._plan(h)
    if plan.p4 is not None:
        found = colex_p4(bg, wg)
        return None if found is None else plan.p4(found)
    return unpruned_generic(bg, wg, t.n, plan.whole)


def reference_through(bg, wg, n, plan, x, y, edge):
    """`detect._find_injection_through` by the unpruned generic search."""
    if plan.p4 is not None:
        found = indsat.detect._find_p4_through(bg, wg, x, y, edge)
        return None if found is None else plan.p4(found)
    for anchored in plan.through[edge]:
        found = unpruned_generic(bg, wg, n, anchored, (x, y))
        if found is not None:
            return found
    return None


def reference_is_indsat(t, h, want_witnesses=False):
    """`is_indsat` with the library's searches swapped for the unpruned ones."""
    with mock.patch.object(indsat.detect, "_find_generic", unpruned_generic), mock.patch.object(
        indsat.detect, "_find_p4", colex_p4
    ):
        return is_indsat(t, h, want_witnesses)


def test_flip_loop_matches_brute_oracle_exhaustive_n4():
    # a bit left set after one flip would leak into the later flips
    for h in ORACLE_PATTERNS:
        for n in range(2, 5):
            for t in all_trigraphs(n):
                assert_matches_oracle_with_witnesses(t, h)


@st.composite
def sparse_or_dense_trigraphs(draw, min_n=5, max_n=6):
    """About 1/4 black and 1/8 gray, or the complement: most are free of small patterns."""
    n = draw(st.integers(min_n, max_n))
    pairs = st.integers(0, (1 << pair_count(n)) - 1)
    black = draw(pairs) & draw(pairs)
    gray = draw(pairs) & draw(pairs) & draw(pairs) & ~black
    t = Trigraph(n, black, gray)
    return t.complement() if draw(st.booleans()) else t


@settings(max_examples=80, deadline=None)
@given(
    sparse_or_dense_trigraphs().filter(lambda t: t.gray_count <= 12),
    st.sampled_from(ORACLE_PATTERNS),
)
def test_flip_loop_matches_brute_oracle_sampled(t, h):
    rep = is_indsat(t, h)
    assert (rep.holds_free, rep.failing_flip) == brute_report(t, h)


def test_flip_loop_builds_compat_masks_once(monkeypatch):
    calls = []
    real = indsat.detect._compat_masks

    def counting(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(indsat.detect, "_compat_masks", counting)
    # once for both conditions, however many flips
    for t, h in ((construct_tn(40)[0], P4), (gray_star(40), K3)):
        calls.clear()
        assert is_indsat(t, h).is_indsat
        assert len(calls) == 1, (h, len(calls))


def graphs_on_4():
    """One graph per isomorphism class on 4 vertices, the lowest edge mask of each."""
    reps = []
    for mask in range(1 << pair_count(4)):
        g = PatternGraph(4, mask)
        if not any(isomorphic(g, r) for r in reps):
            reps.append(g)
    return tuple(reps)


GRAPHS_ON_4 = graphs_on_4()
BULL = from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
FIVE_VERTEX_PATTERNS = (path_graph(5), cycle_graph(5), BULL)


def per_pair_report(t, h):
    """(holds_free, failing_flip, witness keys) from one search per non-gray pair.

    The reference for the orbit flip loop: it flips every non-gray pair in
    colex order, so its witness keys are the non-gray pairs before the
    failing one, and it searches each by the unpruned references.
    """
    if reference_injection(t, h) is not None:
        return False, None, None
    keys = []
    for u, v in all_pairs(t.n):
        if t.color(u, v) is GRAY:
            continue
        if reference_injection(t.flip(u, v), h) is None:
            return True, (u, v), keys
        keys.append((u, v))
    return True, None, keys


def assert_matches_per_pair_loop(t, h):
    rep = is_indsat(t, h, want_witnesses=True)
    expected = per_pair_report(t, h)
    keys = None if rep.witness_flips is None else list(rep.witness_flips)
    assert (rep.holds_free, rep.failing_flip, keys) == expected, (h, t)
    for (u, v), emb in (rep.witness_flips or {}).items():
        assert embedding_is_valid(t.flip(u, v), h, emb), (h, t, (u, v), emb)
        assert {u, v} <= set(emb.vertices), (h, t, (u, v), emb)
    return rep


def assert_matches_oracle_with_witnesses(t, h):
    rep = assert_matches_per_pair_loop(t, h)
    assert (rep.holds_free, rep.failing_flip) == brute_report(t, h), (h, t)


def test_graphs_on_4_are_the_eleven_classes():
    assert len(GRAPHS_ON_4) == 11
    # the lowest P4 mask is the path 2-0-1-3, not 0-1-2-3
    assert P4 not in GRAPHS_ON_4 and any(isomorphic(g, P4) for g in GRAPHS_ON_4)


def test_every_4_vertex_pattern_matches_oracle_exhaustive_n4():
    # anchors in several Aut(h)-orbits, and P4 under other labels
    for h in GRAPHS_ON_4:
        for n in range(2, 5):
            for t in all_trigraphs(n):
                assert_matches_oracle_with_witnesses(t, h)


@lru_cache(maxsize=None)
def saturated_examples(n, h):
    """The minimum induced-h-saturated trigraphs on n vertices, one per class."""
    return tuple(Trigraph(n, w.black, w.gray) for w in isat_min(n, h).witnesses)


@st.composite
def pattern_and_trigraph(draw, patterns):
    """(h, t) on 5-6 vertices with at most 12 gray pairs.

    Half the time t is a relabelled minimum h-saturated trigraph, with one
    pair recolored at random, so that many flips succeed before the check
    ends; otherwise it is drawn sparse or dense.
    """
    h = draw(st.sampled_from(patterns))
    n = draw(st.integers(5, 6))
    examples = saturated_examples(n, h)
    if not examples or draw(st.booleans()):
        t = draw(sparse_or_dense_trigraphs(n, n).filter(lambda t: t.gray_count <= 12))
        return h, t
    t = draw(st.sampled_from(examples)).permute(draw(st.permutations(range(n))))
    color = draw(st.sampled_from((BLACK, WHITE, GRAY, None)))
    if color is None:
        return h, t
    bit = 1 << draw(st.integers(0, pair_count(n) - 1))
    black, gray = t.black & ~bit, t.gray & ~bit
    if color is BLACK:
        black |= bit
    elif color is GRAY:
        gray |= bit
    return h, Trigraph(n, black, gray)


@settings(max_examples=60, deadline=None)
@given(pattern_and_trigraph(GRAPHS_ON_4))
def test_every_4_vertex_pattern_matches_oracle_sampled(case):
    h, t = case
    assert_matches_oracle_with_witnesses(t, h)


@settings(max_examples=40, deadline=None)
@given(pattern_and_trigraph(FIVE_VERTEX_PATTERNS))
def test_five_vertex_patterns_match_oracle_sampled(case):
    h, t = case
    assert_matches_oracle_with_witnesses(t, h)


def recolored(t, x, y, color):
    """t with the pair {x, y} recolored."""
    bit = 1 << pair_index(x, y)
    black = t.black & ~bit | (bit if color is BLACK else 0)
    return Trigraph(t.n, black, t.gray & ~bit | (bit if color is GRAY else 0))


@settings(max_examples=150, deadline=None)
@given(trigraphs(min_n=4, max_n=7), st.data())
def test_p4_kernel_agrees_with_anchored_generic_search(t, data):
    x = data.draw(st.integers(0, t.n - 2))
    y = data.draw(st.integers(x + 1, t.n - 1))
    if data.draw(st.booleans()):
        x, y = y, x
    plans = indsat.detect._plan(P4).through
    for edge in (False, True):
        # the pair usable in the searched role only: black for an edge, white for a nonedge
        colored = recolored(t, x, y, BLACK if edge else WHITE)
        bg, wg = indsat.detect._compat_masks(colored)
        path = indsat.detect._find_p4_through(bg, wg, x, y, edge)
        anchored = [indsat.detect._find_generic(bg, wg, t.n, plan, (x, y)) for plan in plans[edge]]
        assert (path is not None) == any(found is not None for found in anchored)
        for images in [path] + anchored:
            if images is not None:
                emb = indsat.detect._embedding_from(colored, P4, images)
                assert embedding_is_valid(colored, P4, emb) and {x, y} <= set(images)
                assert P4.has_edge(images.index(x), images.index(y)) == edge


PAW = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
CLAW = from_edges(4, [(0, 1), (0, 2), (0, 3)])


@st.composite
def free_pattern_and_trigraph(draw):
    """(h, t), t on 4..7 vertices with no realization containing h: condition (a).

    From all white, which holds no h (each pattern here has an edge), the
    pairs are colored in a drawn order; each takes the first of its drawn
    colors that keeps (a), or stays white.
    """
    h = draw(st.sampled_from((P4, K3, C4, PAW, CLAW)))
    n = draw(st.integers(4, 7))
    pairs = draw(st.permutations(list(all_pairs(n))))
    t = Trigraph(n, 0, 0)
    for x, y in pairs:
        for color in draw(st.sampled_from(((), (GRAY,), (BLACK,), (GRAY, BLACK), (BLACK, GRAY)))):
            colored = recolored(t, x, y, color)
            if not has_realization_of(colored, h):
                t = colored
                break
    return h, t


@settings(max_examples=120, deadline=None)
@given(free_pattern_and_trigraph())
def test_flip_is_searched_only_in_its_new_role(case):
    # under (a), a flip's witness never uses the flipped pair in its old color
    h, t = case
    assert not has_realization_of(t, h)
    plan = indsat.detect._plan(h)
    for x, y in all_pairs(t.n):
        color = t.color(x, y)
        if color is GRAY:
            continue
        bg, wg = indsat.detect._compat_masks(t.flip(x, y))
        both = [
            indsat.detect._find_generic(bg, wg, t.n, anchored, (x, y))
            for anchored in plan.through[False] + plan.through[True]
        ]
        new = indsat.detect._find_injection_through(bg, wg, t.n, plan, x, y, color is WHITE)
        assert (new is not None) == any(found is not None for found in both), (x, y)


def gray_book(n):
    """Vertices 0 and 1 gray to each other and to every other vertex; K4-saturated."""
    return from_pairs(n, gray=[(0, 1)] + [(s, v) for s in (0, 1) for v in range(2, n)])


def test_flip_loop_plans_each_anchoring_once(monkeypatch):
    calls = []
    real = indsat.detect._search_order

    def counting(h, first=()):
        calls.append(first)
        return real(h, first)

    indsat.detect._plan.cache_clear()
    monkeypatch.setattr(indsat.detect, "_search_order", counting)
    k4 = complete_graph(4)
    assert is_indsat(gray_book(20), k4).is_indsat
    # once for condition (a) and once per anchor orbit, not once per flip
    assert len(calls) <= len(anchor_pair_orbits(k4)) + 1, calls


@pytest.mark.parametrize(
    "t, h",
    [(gray_book(20), complete_graph(4)), (construct_tn(40)[0], P4)],
    ids=["k4-book", "p4-tn40"],
)
def test_plan_is_fetched_once_per_condition_not_per_flip(monkeypatch, t, h):
    calls = []
    real = indsat.detect._plan

    def counting(pattern):
        calls.append(pattern)
        return real(pattern)

    monkeypatch.setattr(indsat.detect, "_plan", counting)
    assert is_indsat(t, h).is_indsat
    assert len(calls) <= 2, len(calls)


# -- flip orbits -----------------------------------------------------------


FLIP_PATTERNS = GRAPHS_ON_4 + (P3, K3)


@st.composite
def twin_blow_ups(draw, max_n=9):
    """A twin-rich trigraph on at most max_n vertices.

    It is a member of a saturated twin-rich family, or each vertex of a
    base trigraph (a minimum saturated one, or a sparse or dense one)
    grows into a class of 1-3 vertices joined in one random color; two
    classes are joined in the color of their base pair.  The vertices are
    then relabelled at random and up to two pairs recolored, which splits
    or merges some classes.
    """
    source = draw(st.sampled_from(("family", "saturated", "random")))
    if source == "family":
        n = draw(st.integers(4, max_n))
        grown = draw(st.sampled_from(TWIN_FAMILIES))(n)
        color = {(x, y): grown.color(x, y) for x, y in all_pairs(n)}
    else:
        examples = ()
        if source == "saturated":
            h = draw(st.sampled_from(FLIP_PATTERNS))
            examples = saturated_examples(draw(st.integers(4, 5)), h)
        base = draw(st.sampled_from(examples) if examples else sparse_or_dense_trigraphs(1, 5))
        spare = max_n - base.n
        owner = []
        for b in range(base.n):
            extra = draw(st.integers(0, min(2, spare)))
            spare -= extra
            owner += [b] * (1 + extra)
        inside = [draw(st.sampled_from((BLACK, WHITE, GRAY))) for _ in range(base.n)]
        n = len(owner)
        color = {
            (x, y): inside[owner[x]] if owner[x] == owner[y] else base.color(owner[x], owner[y])
            for x, y in all_pairs(n)
        }
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        pair = index_pair(draw(st.integers(0, pair_count(n) - 1)))
        color[pair] = draw(st.sampled_from((BLACK, WHITE, GRAY)))
    t = from_pairs(
        n,
        black=[p for p, c in color.items() if c is BLACK],
        gray=[p for p, c in color.items() if c is GRAY],
    )
    return t.permute(draw(st.permutations(range(n))))


@settings(max_examples=200, deadline=None)
@given(twin_blow_ups(), st.data())
def test_orbit_flip_loop_matches_per_pair_loop_on_blow_ups(t, data):
    # a pattern that t is free of, when there is one, so that the flips are searched
    free = [h for h in FLIP_PATTERNS if not has_realization_of(t, h)]
    h = data.draw(st.sampled_from(free or FLIP_PATTERNS))
    rep = assert_matches_per_pair_loop(t, h)
    if t.n <= 6 and t.gray_count <= 8:
        assert (rep.holds_free, rep.failing_flip) == brute_report(t, h), (h, t)


def are_twins(t, u, v):
    return all(t.color(u, w) is t.color(v, w) for w in range(t.n) if w not in (u, v))


def classes_of(t):
    return twin_classes(*indsat.detect._compat_masks(t))


def members(mask):
    """The vertices of a class mask, ascending."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


@settings(max_examples=150, deadline=None)
@given(twin_blow_ups(), st.data())
def test_twin_classes_are_exactly_the_twins(t, data):
    classes = classes_of(t)
    assert sorted(v for c in classes for v in c) == list(range(t.n))
    assert all(list(c) == sorted(c) for c in classes)
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    same = {v: c for c in classes for v in c}
    for u, v in all_pairs(t.n):
        assert are_twins(t, u, v) == (same[u] is same[v]), (t, u, v)
    for c in classes:
        assert len({t.color(a, b) for a, b in combinations(c, 2)}) <= 1, (t, c)
        for w in range(t.n):
            if w not in c:
                assert len({t.color(a, w) for a in c}) == 1, (t, c, w)
    perm = data.draw(st.permutations(range(t.n)))
    moved = classes_of(t.permute(perm))
    assert {frozenset(c) for c in moved} == {frozenset(perm[v] for v in c) for c in classes}


@settings(max_examples=150, deadline=None)
@given(twin_blow_ups())
def test_flip_orbits_partition_the_nongray_pairs(t):
    reps, covered = [], []
    masks = indsat.detect._compat_masks(t)
    for u, v, a, b in flip_orbits(*masks, indsat.detect._twin_masks(*masks)):
        inside = a == b
        a, b = members(a), members(b)
        orbit = sorted(
            (pair_index(x, y), (min(x, y), max(x, y)))
            for x, y in (combinations(a, 2) if inside else product(a, b))
        )
        # the representative is the colex-least pair of its orbit
        assert orbit[0][1] == (u, v), (t, u, v, orbit)
        assert len({t.color(x, y) for _, (x, y) in orbit}) == 1
        reps.append(pair_index(u, v))
        covered += orbit
    assert reps == sorted(reps)
    nongray = [(u, v) for u, v in all_pairs(t.n) if t.color(u, v) is not GRAY]
    assert [p for _, p in sorted(covered)] == nongray


def gray_star_plus_isolated(n):
    """Gray star centred at 0 on vertices 0..n-2; vertex n-1 is all white."""
    return from_pairs(n, gray=[(0, v) for v in range(1, n - 1)])


@pytest.mark.parametrize(
    "t, orbits",
    [
        (construct_tn(64)[0], 861),
        (construct_alternative(63), 861),
        (gray_book(64), 1),
        (gray_star_plus_isolated(64), 3),
    ],
    ids=["tn64", "alternative63", "k4-book64", "k3-star64"],
)
def test_flip_orbit_counts_at_n64(t, orbits):
    masks = indsat.detect._compat_masks(t)
    assert len(list(flip_orbits(*masks, indsat.detect._twin_masks(*masks)))) == orbits


def test_flip_loop_searches_one_pair_per_orbit(monkeypatch):
    calls = []
    real = indsat.saturation._find_injection_through

    roles = []

    def counting(bg, wg, n, plan, x, y, edge, twins):
        calls.append((x, y))
        roles.append(edge)
        return real(bg, wg, n, plan, x, y, edge, twins)

    monkeypatch.setattr(indsat.saturation, "_find_injection_through", counting)
    rep = is_indsat(construct_tn(64)[0], P4)
    assert rep.is_indsat
    assert (rep.flips_searched, rep.flip_pairs) == (len(calls), 1994) == (861, 1994)
    calls.clear()
    rep = is_indsat(gray_star_plus_isolated(64), K3)
    assert rep.failing_flip == (0, 63)
    # the 1,891 leaf pairs in one search, then the failing pair
    assert calls == [(1, 2), (0, 63)]
    assert roles[-2:] == [True, True]  # both pairs white, so searched as pattern edges
    assert (rep.flips_searched, rep.flip_pairs) == (2, 1892)


def gray_triangle_rest_black(n):
    """A gray triangle on 0, 1, 2, every other pair black."""
    triangle = [(0, 1), (0, 2), (1, 2)]
    return from_pairs(n, gray=triangle, black=[p for p in all_pairs(n) if p not in triangle])


# P4, K4, K3 and C4 respectively
TWIN_FAMILIES = (
    lambda n: construct_tn(n)[0],
    gray_book,
    gray_star,
    gray_triangle_rest_black,
)


# -- twin pruning -------------------------------------------------------------


# every graph on 3 vertices: no edge, one edge, P3 and K3
THREE_VERTEX_PATTERNS = tuple(PatternGraph(3, mask) for mask in (0, 1, 3, 7))
TWIN_PATTERNS = THREE_VERTEX_PATTERNS + GRAPHS_ON_4 + FIVE_VERTEX_PATTERNS


@settings(max_examples=150, deadline=None)
@given(twin_blow_ups(max_n=12))
def test_twin_masks_are_the_class_masks(t):
    twins = indsat.detect._twin_masks(*indsat.detect._compat_masks(t))
    for c in classes_of(t):
        assert all(twins[v] == sum(1 << x for x in c) for v in c), (t, c)
    assert indsat.saturation.twin_classes is indsat.detect.twin_classes


@settings(max_examples=200, deadline=None)
@given(twin_blow_ups(max_n=12), st.data())
def test_twin_pruned_searches_return_the_unpruned_results(t, data):
    # half the time a pattern that t is free of, when there is one, so
    # that the flips are searched
    free = [h for h in TWIN_PATTERNS if not has_realization_of(t, h)]
    h = data.draw(st.sampled_from(free if free and data.draw(st.booleans()) else TWIN_PATTERNS))
    # condition (a), as find_embedding sees it
    assert indsat.detect._find_injection(t, h) == reference_injection(t, h), (h, t)
    # every non-gray pair flipped and searched in both roles and orders,
    # pruned by the classes of t (as the flip loop does) or of the flip
    twins = indsat.detect._twin_masks(*indsat.detect._compat_masks(t))
    plan = indsat.detect._plan(h)
    through = indsat.detect._find_injection_through
    for pair in all_pairs(t.n):
        if t.color(*pair) is GRAY:
            continue
        bg, wg = indsat.detect._compat_masks(t.flip(*pair))
        for (x, y), edge in product((pair, pair[::-1]), (False, True)):
            expected = reference_through(bg, wg, t.n, plan, x, y, edge)
            assert through(bg, wg, t.n, plan, x, y, edge, twins) == expected, (h, t, x, y, edge)
            assert through(bg, wg, t.n, plan, x, y, edge) == expected, (h, t, x, y, edge)
    rep, ref = is_indsat(t, h, want_witnesses=True), reference_is_indsat(t, h, want_witnesses=True)
    assert rep.to_dict() == ref.to_dict(), (h, t)
    assert rep.witness_flips == ref.witness_flips, (h, t)


def test_pruned_condition_a_matches_unpruned_exhaustive_n4():
    for h in THREE_VERTEX_PATTERNS + GRAPHS_ON_4:
        for n in range(2, 5):
            for t in all_trigraphs(n):
                assert indsat.detect._find_injection(t, h) == reference_injection(t, h), (h, t)


def test_p4_kernel_answers_from_the_colex_least_middle_pair():
    # 1 and 3 are twins, so the black middle pairs (0, 1) and (0, 3) share an orbit
    t = from_pairs(4, black=[(0, 1), (0, 3)], gray=[(1, 2), (2, 3)])
    assert classes_of(t) == [(0,), (1, 3), (2,)]
    # the path 3-0-1-2 through the colex-least pair, not 1-0-3-2
    assert indsat.detect._find_injection(t, P4) == reference_injection(t, P4) == (3, 0, 1, 2)


@pytest.mark.parametrize(
    "t, orbits, pairs",
    [(construct_tn(64)[0], 442, 672), (construct_alternative(63), 422, 1243)],
    ids=["tn64", "alternative63"],
)
def test_p4_kernel_tries_one_middle_pair_per_orbit(monkeypatch, t, orbits, pairs):
    calls = []
    real = indsat.detect._linked

    def counting(rel, a_set, b_set):
        calls.append((a_set, b_set))
        return real(rel, a_set, b_set)

    monkeypatch.setattr(indsat.detect, "_linked", counting)
    # P4-free, so condition (a) tries every middle pair it is given
    assert indsat.detect._find_injection(t, P4) is None
    assert len(calls) == orbits
    calls.clear()
    assert reference_injection(t, P4) is None
    assert len(calls) == pairs


class CountingRows(list):
    """A list of mask rows that counts its reads in counter[0]."""

    def __init__(self, rows, counter):
        super().__init__(rows)
        self.counter = counter

    def __getitem__(self, v):
        self.counter[0] += 1
        return super().__getitem__(v)


def row_reads(search, t, h, anchors=()):
    """(images, mask rows read) of one generic search of t, anchored at an edge of h if asked."""
    plan = indsat.detect._plan(h)
    masks = indsat.detect._compat_masks(t)
    twins = indsat.detect._twin_masks(*masks)
    count = [0]
    bg, wg = (CountingRows(rows, count) for rows in masks)
    anchored = plan.through[True][0] if anchors else plan.whole
    return search(bg, wg, t.n, anchored, anchors, twins), count[0]


@pytest.mark.parametrize(
    "t, h, anchors",
    [
        (gray_book(64), complete_graph(4), ()),
        (gray_triangle_rest_black(64), C4, ()),
        (gray_star_plus_isolated(64), K3, ()),
        # the two gray vertices of the book, joined by every other vertex
        (gray_book(64), complete_graph(4), (0, 1)),
    ],
    ids=["k4-book64", "c4-triangle64", "k3-star64", "k4-book64-anchored"],
)
def test_generic_search_tries_one_vertex_per_twin_class(t, h, anchors):
    found, pruned = row_reads(indsat.detect._find_generic, t, h, anchors)
    expected, unpruned = row_reads(unpruned_generic, t, h, anchors)
    assert found == expected is None
    # 2 or 3 twin classes, against 64 vertices
    assert 10 * pruned < unpruned, (pruned, unpruned)


def test_twin_classes_are_found_once_per_check(monkeypatch):
    calls = []
    real = indsat.detect._twin_masks

    def counting(bg, wg):
        calls.append(len(bg))
        return real(bg, wg)

    monkeypatch.setattr(indsat.detect, "_twin_masks", counting)
    for t, h in (
        (construct_tn(40)[0], P4),
        (gray_book(20), complete_graph(4)),
        (gray_star_plus_isolated(20), K3),
    ):
        calls.clear()
        is_indsat(t, h, want_witnesses=True)
        assert calls == [t.n], (h, calls)


# -- flip searches on the unflipped masks ------------------------------------


def with_role_bit(masks, x, y, edge):
    """Copies of (bg, wg) with the pair {x, y} in the role's mask (bg for an edge)."""
    bg, wg = (list(rows) for rows in masks)
    side = bg if edge else wg
    side[x] |= 1 << y
    side[y] |= 1 << x
    return bg, wg


class ReadOnlyRows(list):
    """A list of mask rows that refuses every write."""

    def __setitem__(self, v, row):
        raise AssertionError(f"row {v} written")


@settings(max_examples=150, deadline=None)
@given(trigraphs(min_n=2, max_n=7), st.sampled_from((P4, K3, C4, PAW, CLAW)))
def test_flip_searches_answer_alike_on_the_unflipped_masks(t, h):
    # the flip loop passes t's masks as they are; each search must answer
    # as on the masks of the flip, and write no row of either
    masks = indsat.detect._compat_masks(t)
    twins = indsat.detect._twin_masks(*masks)
    plan = indsat.detect._plan(h)
    for pair in all_pairs(t.n):
        if t.color(*pair) is GRAY:
            continue
        for (x, y), edge in product((pair, pair[::-1]), (False, True)):
            flipped = with_role_bit(masks, x, y, edge)
            path = indsat.detect._find_p4_through(*masks, x, y, edge)
            assert path == indsat.detect._find_p4_through(*flipped, x, y, edge), (t, x, y, edge)
            anchored = (
                indsat.detect._find_generic(*flipped, t.n, order, (x, y), twins)
                for order in plan.through[edge]
            )
            expected = next((found for found in anchored if found is not None), None)
            if plan.p4 is not None:
                expected = None if path is None else plan.p4(path)
            for given in (masks, flipped):
                read_only = (ReadOnlyRows(rows) for rows in given)
                found = indsat.detect._find_injection_through(*read_only, t.n, plan, x, y, edge, twins)
                assert found == expected, (h, t, x, y, edge)


@pytest.mark.parametrize(
    "t, h, failing",
    [(construct_tn(9)[0], P4, None), (gray_star_plus_isolated(9), K3, (0, 8))],
    ids=["p4-tn9", "k3-star9"],
)
def test_flip_scan_leaves_the_masks_unchanged(monkeypatch, t, h, failing):
    masks = indsat.detect._compat_masks(t)
    before = [list(rows) for rows in masks]
    twins = indsat.detect._twin_masks(*masks)
    # the K3 star's scan finds the leaf pairs' flips, then exits at the failing flip
    found, scan = flips_all_create(t, h, masks, twins, collect=True)
    assert found == failing and scan.searched > 1
    assert [list(rows) for rows in masks] == before
    # no scan writes a row, whatever the pattern
    read_only = tuple(ReadOnlyRows(rows) for rows in masks)
    assert flips_all_create(t, h, read_only, twins, collect=True) == (found, scan)
    built = []
    real = indsat.detect._compat_masks

    def keeping(t):
        masks = real(t)
        built.append((masks, [list(rows) for rows in masks]))
        return masks

    monkeypatch.setattr(indsat.detect, "_compat_masks", keeping)
    assert is_indsat(t, h, want_witnesses=True).failing_flip == failing
    [(masks, before)] = built
    assert [list(rows) for rows in masks] == before


# (t, flipped pair, the kernel's path, the paths of the later roles that also
# find one): the kernel tries the roles in a fixed order and returns the first
P4_ROLE_ORDER_CASES = [
    # a white pair, searched as a path edge: middle pair first, then (0, 3)
    # as an end and its neighbor, then (3, 0)
    (
        from_pairs(6, black=[(2, 3), (2, 5)], gray=[(0, 4), (1, 4)]),
        (0, 3),
        (4, 0, 3, 2),
        [(0, 3, 2, 5), (3, 0, 4, 1)],
    ),
    # a black pair, searched as a nonedge: the two ends first, then 0 as an
    # end with 1 as the far middle, then the reverse
    (
        from_pairs(
            6,
            black=[(0, 1), (0, 2), (1, 2), (0, 3), (2, 3), (1, 4), (3, 4)]
            + [(0, 5), (1, 5), (2, 5), (4, 5)],
        ),
        (0, 1),
        (0, 3, 4, 1),
        [(0, 2, 1, 4), (1, 5, 0, 3)],
    ),
    # the middle pair finds none: an end and its neighbor as (3, 4), then (4, 3)
    (
        from_pairs(5, black=[(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)], gray=[(1, 3), (1, 4)]),
        (3, 4),
        (3, 4, 1, 2),
        [(4, 3, 1, 2)],
    ),
    # the two ends find none: 1 as an end with 2 as the far middle, then 2 with 1
    (
        from_pairs(5, black=[(1, 2), (1, 4), (2, 4)], gray=[(1, 3), (2, 3), (3, 4)]),
        (1, 2),
        (1, 4, 2, 3),
        [(2, 4, 1, 3)],
    ),
]


@pytest.mark.parametrize(
    "t, pair, path, later",
    P4_ROLE_ORDER_CASES,
    ids=["edge-three-roles", "nonedge-three-roles", "edge-both-ends", "nonedge-both-ends"],
)
def test_p4_flip_kernel_returns_the_first_role_in_order(t, pair, path, later):
    assert not has_realization_of(t, P4)
    flipped = t.flip(*pair)
    edge = t.color(*pair) is WHITE
    # every path is a witness of the flip, through the pair in its new role
    for images in [path] + later:
        assert embedding_is_valid(flipped, P4, indsat.detect._embedding_from(flipped, P4, images))
        assert P4.has_edge(images.index(pair[0]), images.index(pair[1])) == edge
    for masks in (indsat.detect._compat_masks(t), indsat.detect._compat_masks(flipped)):
        assert indsat.detect._find_p4_through(*masks, *pair, edge) == path


def witness_digest(witnesses):
    """sha256 of every witness: pair, images and the gray pairs resolved each way."""
    entries = (
        (p, e.vertices, sorted(e.gray_as_black), sorted(e.gray_as_white)) for p, e in witnesses.items()
    )
    text = repr(sorted(entries))
    return hashlib.sha256(text.encode()).hexdigest()


def test_witness_flips_of_tn10_are_pinned():
    # the digest of the witnesses as the flip scan gave them when it still
    # set and cleared each pair's bits around the search
    rep = is_indsat(construct_tn(10)[0], P4, want_witnesses=True)
    assert len(rep.witness_flips) == 41
    assert witness_digest(rep.witness_flips) == (
        "b940ca1be0031f268f27c2c1706687882fe4b988467da36f3315d3b905437539"
    )


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_gray_triangle_family_is_c4_saturated(n):
    t = gray_triangle_rest_black(n)
    rep = is_indsat(t, C4)
    assert rep.is_indsat
    assert rep.flip_pairs == pair_count(n) - 3
    # its complement, a gray triangle with every other pair white, for 2K2
    assert is_indsat(t.complement(), C4.complement()).is_indsat


def test_layered_construction_is_saturated_small():
    for n in range(4, 11):
        t, _ = construct_tn(n)
        rep = is_indsat(t, P4)
        assert rep.is_indsat, (n, rep)


def test_all_black_clique_saturates_clique_minus_edge():
    for n, h in ((4, 4), (5, 4), (5, 5)):
        assert is_indsat(all_black(n), complete_minus_edge(h)).is_indsat


def test_all_white_4_fails_with_first_flip():
    rep = is_indsat(Trigraph(4), P4)
    assert rep.holds_free
    assert rep.failing_flip == (0, 1)
    assert not rep.is_indsat


def test_all_gray_small_trigraphs_are_saturated():
    for n in range(0, 4):
        assert is_indsat(complete_gray(n), P4).is_indsat


def test_below_pattern_size_only_all_gray_survives():
    # consequence of the flip condition, not a special case in the code
    for n in (2, 3):
        for t in all_trigraphs(n):
            expected = t.gray_count == pair_count(n)
            assert is_indsat(t, P4).is_indsat == expected


def test_complement_closure_exhaustive_n4():
    for t in all_trigraphs(4):
        assert is_indsat(t, P4).is_indsat == is_indsat(t.complement(), P4).is_indsat


def test_complement_closure_sampled_n5():
    import random

    from conftest import trigraph_from_code

    rng = random.Random(3)
    for _ in range(500):
        t = trigraph_from_code(5, rng.randrange(3 ** pair_count(5)))
        assert is_indsat(t, P4).is_indsat == is_indsat(t.complement(), P4).is_indsat


def test_report_invariant_holds_free_false_skips_flips():
    rep = is_indsat(complete_gray(4), P4)
    assert not rep.holds_free
    assert rep.failing_flip is None
    assert not rep.is_indsat


@settings(max_examples=40)
@given(trigraphs(min_n=2, max_n=5))
def test_report_invariant(t):
    rep = is_indsat(t, P4)
    assert rep.is_indsat == (rep.holds_free and rep.failing_flip is None)


def test_witness_flips_on_demand():
    for t, h in ((construct_tn(5)[0], P4), (gray_star(5), K3)):
        rep = is_indsat(t, h, want_witnesses=True)
        assert rep.is_indsat
        nongray = [(u, v) for u, v in all_pairs(t.n) if t.color(u, v) is not GRAY]
        assert sorted(rep.witness_flips) == sorted(nongray)
        for (u, v), emb in rep.witness_flips.items():
            flipped = t.flip(u, v)
            assert embedding_is_valid(flipped, h, emb)
            assert {u, v} <= set(emb.vertices)


def test_to_dict_schema():
    d = is_indsat(Trigraph(4), P4).to_dict()
    assert set(d) == {"is_indsat", "holds_free", "failing_flip", "flips_searched", "flip_pairs"}
    assert d["failing_flip"] == [0, 1]
    # all four vertices are twins: one search decides all six pairs
    assert (d["flips_searched"], d["flip_pairs"]) == (1, 6)


def test_flip_counts_are_zero_when_condition_a_fails():
    d = is_indsat(complete_gray(4), P4).to_dict()
    assert not d["holds_free"]
    assert (d["flips_searched"], d["flip_pairs"]) == (0, 0)


# -- gray component shapes ----------------------------------------------


def test_classify_layered_construction(t5_layered):
    t, spec = t5_layered
    comps = classify_gray_components(t)
    shapes = [(c.shape, c.size) for c in comps]
    assert shapes == [(GrayShape.STAR, 2), (GrayShape.TRIVIAL, 1), (GrayShape.STAR, 2)]


def test_classify_triangle_star_other():
    assert [c.shape for c in classify_gray_components(complete_gray(3))] == [GrayShape.TRIANGLE]

    gray_path = from_pairs(4, gray=[(0, 1), (1, 2), (2, 3)])
    assert [c.shape for c in classify_gray_components(gray_path)] == [GrayShape.OTHER]

    star = from_pairs(5, gray=[(2, 0), (2, 1), (2, 4)])
    comps = classify_gray_components(star)
    big = [c for c in comps if c.size == 4][0]
    assert big.shape is GrayShape.STAR and big.center == 2

    assert all(
        c.shape is GrayShape.TRIVIAL for c in classify_gray_components(Trigraph(4))
    )


def test_classify_path3_is_star_centered_at_middle():
    t = from_pairs(3, gray=[(0, 1), (1, 2)])
    (comp,) = classify_gray_components(t)
    assert comp.shape is GrayShape.STAR and comp.center == 1


# -- star partitions ------------------------------------------------------


def test_partition_star_on_layered_construction(t5_layered):
    t, spec = t5_layered
    lab = spec.labeling
    out = partition_star(t, lab["a1"], [lab["b1"]])
    assert out.ok
    assert out.x == frozenset({lab["c1"]})
    assert out.y == frozenset({lab["a2"], lab["b2"]})
    assert out.z == frozenset()


def test_partition_star_isolated_white_vertex_goes_to_y():
    t = from_pairs(3, gray=[(0, 1)])  # gray edge + vertex 2 all white
    out = partition_star(t, 0, [1])
    assert out.ok and out.y == frozenset({2}) and not out.x and not out.z


def test_partition_star_mixed_leaf_colors_fail_with_vertex():
    # star center 0 with leaves 1, 2; vertex 3 sees one leaf black, one white
    t = from_pairs(
        4,
        gray=[(0, 1), (0, 2)],
        black=[(1, 3)],
    )
    out = partition_star(t, 0, [1, 2])
    assert not out.ok and out.counterexample == 3


def test_partition_star_z_orientation_must_be_uniform():
    # two outside vertices mixing in opposite ways
    t = from_pairs(
        4,
        gray=[(0, 1)],
        black=[(0, 2), (1, 3)],
    )
    out = partition_star(t, 0, [1])
    assert not out.ok and out.counterexample == 3


def test_partition_star_z_and_leaf_colors_must_match():
    # center 0, leaves 1,2 joined white; z=3 black to leaves, white to center
    t = from_pairs(
        4,
        gray=[(0, 1), (0, 2)],
        black=[(1, 3), (2, 3)],
    )
    out = partition_star(t, 0, [1, 2])
    assert not out.ok

    # matching variant: leaves joined black as well
    t2 = from_pairs(
        4,
        gray=[(0, 1), (0, 2)],
        black=[(1, 2), (1, 3), (2, 3)],
    )
    out2 = partition_star(t2, 0, [1, 2])
    assert out2.ok and out2.z == frozenset({3})


def test_partition_star_preconditions():
    t = from_pairs(3, gray=[(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        partition_star(t, 0, [2])  # pair (0,2) is white, not a star edge
    with pytest.raises(ValueError):
        partition_star(t, 0, [])
    with pytest.raises(ValueError):
        partition_star(complete_gray(3), 0, [1, 2])  # leaves joined gray: triangle
    t2 = from_pairs(4, gray=[(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        partition_star(t2, 1, [0, 2])  # not a full gray component


# -- triangle partitions ---------------------------------------------------


def tri_plus(colors_to_outside):
    black = [(u, 3) for u, c in enumerate(colors_to_outside) if c == "B"]
    return from_pairs(4, gray=[(0, 1), (0, 2), (1, 2)], black=black)


def test_partition_triangle_examples():
    out = partition_triangle(tri_plus("BBB"), [0, 1, 2])
    assert out.ok and out.x == frozenset({3}) and not out.y

    out = partition_triangle(tri_plus("WWW"), [0, 1, 2])
    assert out.ok and out.y == frozenset({3}) and not out.x

    mixed = tri_plus("BWW")
    out = partition_triangle(mixed, [0, 1, 2])
    assert not out.ok and out.counterexample == 3
    # such a vertex forces a realization of an induced path
    assert has_realization_of(mixed, P4)


def test_partition_triangle_preconditions():
    with pytest.raises(ValueError):
        partition_triangle(complete_gray(4), [0, 1, 2])  # not a component
    with pytest.raises(ValueError):
        partition_triangle(complete_gray(3), [0, 1])
    t = from_pairs(3, gray=[(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        partition_triangle(t, [0, 1, 2])
