import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indsat.detect import (
    Realization,
    contains_induced,
    embedding_is_valid,
    find_embedding,
    has_realization_brute,
    has_realization_of,
    realizations,
    realize,
)
from indsat.errors import ResourceLimitError
from indsat.patterns import (
    C4,
    K3,
    P3,
    P4,
    PatternGraph,
    anchor_pair_orbits,
    complete_graph,
    complete_minus_edge,
    from_edges,
    isomorphic,
    path_graph,
)
from indsat.trigraph import (
    BLACK,
    GRAY,
    WHITE,
    Trigraph,
    all_pairs,
    complete_gray,
    from_pairs,
    pair_count,
)

from conftest import all_trigraphs, trigraphs


def assert_path_witness(t, seq):
    """seq must be usable as an induced-path realization in t."""
    k = len(seq)
    assert len(set(seq)) == k
    for i in range(k):
        for j in range(i + 1, k):
            c = t.color(seq[i], seq[j])
            if j == i + 1:
                assert c in (BLACK, GRAY), (seq, i, j, c)
            else:
                assert c in (WHITE, GRAY), (seq, i, j, c)


# -- plain graph side ----------------------------------------------------


def test_contains_induced_examples():
    path = Realization(4, path_graph(4).edges)
    assert contains_induced(path, P4)
    cycle = Realization(4, C4.edges)
    assert not contains_induced(cycle, P4)
    k4_minus = Realization(4, complete_minus_edge(4).edges)
    assert contains_induced(k4_minus, K3)
    assert not contains_induced(Realization(3, 0), P4)  # too small


def test_realizations_enumeration():
    t = from_pairs(3, black=[(0, 1)], gray=[(0, 2), (1, 2)])
    rs = list(realizations(t))
    assert len(rs) == 4
    assert all(r.has_edge(0, 1) for r in rs)
    assert len({r.edges for r in rs}) == 4
    with pytest.raises(ValueError):
        realize(t, 1)  # pair (0,1) is black, not gray


def test_brute_examples():
    assert not has_realization_brute(Trigraph(4), P4)  # all white
    all_black5 = Trigraph(5, (1 << pair_count(5)) - 1, 0)
    assert has_realization_brute(all_black5, K3)
    with pytest.raises(ResourceLimitError):
        has_realization_brute(complete_gray(7), P4)  # 21 gray pairs


# -- injection side ------------------------------------------------------


def test_has_realization_examples():
    assert has_realization_of(complete_gray(4), P4)
    assert has_realization_of(complete_gray(5), P4)
    assert not has_realization_of(complete_gray(3), P4)  # too few vertices
    from indsat.constructions import construct_tn

    for n in range(4, 13):
        t, _ = construct_tn(n)
        assert not has_realization_of(t, P4)


def test_flip_creates_witness_on_layered_construction():
    from indsat.constructions import construct_tn

    t, spec = construct_tn(5)
    lab = spec.labeling
    flipped = t.flip(lab["c1"], lab["a1"])
    assert has_realization_of(flipped, P4)
    # the quoted witness a1 b1 c1 a2 is one valid realization
    assert_path_witness(flipped, [lab["a1"], lab["b1"], lab["c1"], lab["a2"]])
    emb = find_embedding(flipped, P4)
    assert emb is not None and embedding_is_valid(flipped, P4, emb)


def test_find_embedding_none_when_absent():
    assert find_embedding(Trigraph(4), P4) is None
    assert find_embedding(Trigraph(3), P4) is None


def test_embedding_resolutions_are_recorded():
    emb = find_embedding(complete_gray(4), P4)
    assert emb is not None
    assert len(emb.gray_as_black) == 3
    assert len(emb.gray_as_white) == 3
    assert embedding_is_valid(complete_gray(4), P4, emb)


def test_embedding_validity_rejects_bad_maps():
    from indsat.detect import Embedding

    bad = Embedding((0, 0, 1, 2), frozenset(), frozenset())
    assert not embedding_is_valid(complete_gray(4), P4, bad)
    t = Trigraph(4)  # all white: no path can embed
    bad2 = Embedding((0, 1, 2, 3), frozenset(), frozenset())
    assert not embedding_is_valid(t, P4, bad2)


def test_locality_full_sweep_n4():
    for t in all_trigraphs(4):
        assert has_realization_of(t, P4) == has_realization_brute(t, P4)


@settings(max_examples=60)
@given(trigraphs(min_n=2, max_n=5), st.sampled_from([P3, K3, P4]))
def test_locality_matches_brute(t, h):
    assert has_realization_of(t, h) == has_realization_brute(t, h)


@settings(max_examples=60)
@given(trigraphs(min_n=2, max_n=5), st.data())
def test_monotonicity_under_flips(t, data):
    if not has_realization_of(t, P4):
        return
    u = data.draw(st.integers(0, t.n - 2))
    v = data.draw(st.integers(u + 1, t.n - 1))
    assert has_realization_of(t.flip(u, v), P4)


@settings(max_examples=60)
@given(trigraphs(max_n=5), st.sampled_from([P3, K3, P4, C4]))
def test_complement_duality(t, h):
    assert has_realization_of(t, h) == has_realization_of(t.complement(), h.complement())


def test_generic_patterns_against_brute():
    # patterns without the specialized path kernel
    patterns = [K3, C4, complete_minus_edge(4), complete_graph(4), path_graph(5)]
    for t in list(all_trigraphs(3))[::5]:
        for h in patterns:
            assert has_realization_of(t, h) == has_realization_brute(t, h)
    t = complete_gray(5)
    for h in patterns:
        assert has_realization_of(t, h) == has_realization_brute(t, h)


def test_generic_search_places_its_anchors_unchecked():
    from indsat.detect import _compat_masks, _find_generic, _plan, _twin_masks

    t = from_pairs(4, black=[(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])  # (0, 1) white
    bg, wg = _compat_masks(t)
    # Aut(K3) has one orbit of ordered pairs, and it is an orbit of edges
    nonedges, (anchored,) = _plan(K3).through
    assert nonedges == ()
    assert anchored[0][:2] == (0, 1)
    # the anchored white pair is taken as usable: the triangle through it
    # is found as if the pair were black
    as_black = _compat_masks(from_pairs(4, black=[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]))
    twins = _twin_masks(bg, wg)
    assert _find_generic(bg, wg, twins, anchored, (0, 1)) == (0, 1, 2)
    assert _find_generic(*as_black, _twin_masks(*as_black), anchored, (0, 1)) == (0, 1, 2)
    assert _find_generic(bg, wg, twins, anchored, (0, 2)) == (0, 2, 3)


def test_search_plan_checks_every_earlier_depth():
    from indsat.detect import _plan

    plan = _plan(P4)
    orbits = anchor_pair_orbits(P4)
    # through[edge]: the orbits whose pair is an edge (True) or a nonedge, in orbit order
    by_role = [[pair for pair in orbits if P4.has_edge(*pair) == edge] for edge in (False, True)]
    assert [len(plans) for plans in plan.through] == [len(pairs) for pairs in by_role] == [3, 3]
    anchored = [(pair, p) for edge in (False, True) for pair, p in zip(by_role[edge], plan.through[edge])]
    assert len(anchored) == len(orbits)
    for first, (order, checks) in [((), plan.whole), *anchored]:
        assert order[: len(first)] == first and sorted(order) == [0, 1, 2, 3]
        for d, v in enumerate(order):
            assert checks[d] == tuple((j, P4.has_edge(order[j], v)) for j in range(d))
    assert _plan(P4) is _plan(P4)


def test_plan_recognizes_exactly_the_labelled_p4s():
    from indsat.detect import _plan

    p4s = 0
    for mask in range(1 << pair_count(4)):
        h = PatternGraph(4, mask)
        pick = _plan(h).p4
        assert (pick is not None) == isomorphic(h, P4), h
        if pick is not None:
            p4s += 1
            position = pick((0, 1, 2, 3))  # h's vertex -> its place along the path
            for u, v in all_pairs(4):
                assert h.has_edge(u, v) == (abs(position[u] - position[v]) == 1), h
    assert p4s == 12


def test_relabelled_path_witness_uses_the_pattern_labels():
    relabelled = from_edges(4, [(1, 0), (0, 2), (2, 3)])  # the path 1-0-2-3
    t = from_pairs(4, black=[(0, 1), (1, 2), (2, 3)])
    emb = find_embedding(t, relabelled)
    assert emb is not None and embedding_is_valid(t, relabelled, emb)
    assert emb.vertices in ((1, 0, 2, 3), (2, 3, 1, 0))


def compat_masks_by_color(t):
    """Reference for `_compat_masks`: one `t.color` call per ordered pair."""
    bg = [0] * t.n
    wg = [0] * t.n
    for u in range(t.n):
        for v in range(t.n):
            if u != v:
                color = t.color(u, v)
                if color is not WHITE:
                    bg[u] |= 1 << v
                if color is not BLACK:
                    wg[u] |= 1 << v
    return bg, wg


@st.composite
def colored_masks(draw):
    """(n, black, gray) for n in 0..64, black and gray disjoint pair masks."""
    n = draw(st.integers(0, 64))
    full = (1 << pair_count(n)) - 1
    black = draw(st.integers(0, full))
    gray = draw(st.integers(0, full)) & ~black
    return n, black, gray


@settings(max_examples=100, deadline=None)
@given(colored_masks())
@example((0, 0, 0))
@example((1, 0, 0))
@example((64, 0, (1 << pair_count(64)) - 1))
@example((64, (1 << pair_count(64)) - 1, 0))
@example((64, 0x5555 << 2000, 1 << 2015))
def test_compat_masks_match_the_colors(case):
    from indsat.detect import _compat_masks

    t = Trigraph(*case)
    bg, wg = compat_masks_by_color(t)
    assert _compat_masks(t) == (bg, wg)
    # the masks are `Trigraph.adjacency` rows, which every palette shares
    assert t.adjacency((WHITE,)) == [w & ~b for b, w in zip(bg, wg)]
