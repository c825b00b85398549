from itertools import combinations

import pytest

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
    cycle_graph,
    from_edges,
    induced_placements,
    isomorphic,
    parse_pattern_id,
)
from indsat.trigraph import all_pairs, pair_count


def test_constructors():
    assert P4.edge_count() == 3 and sorted(P4.degrees()) == [1, 1, 2, 2]
    assert C4.edge_count() == 4 and set(C4.degrees()) == {2}
    assert complete_graph(5).edge_count() == 10
    km = complete_minus_edge(4)
    assert km.edge_count() == 5 and sorted(km.degrees()) == [2, 2, 3, 3]
    assert not km.has_edge(0, 1)


def test_validation():
    with pytest.raises(ValueError):
        PatternGraph(1, 0)
    with pytest.raises(ValueError):
        PatternGraph(9, 0)
    with pytest.raises(ValueError):
        PatternGraph(3, 1 << 3)
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_parse_pattern_id():
    assert parse_pattern_id("p4") == P4
    assert parse_pattern_id("P3") == P3
    assert parse_pattern_id("k3") == K3
    assert parse_pattern_id("c4") == C4
    assert parse_pattern_id("k4") == complete_graph(4)
    assert parse_pattern_id("khminus:5") == complete_minus_edge(5)
    with pytest.raises(ValueError):
        parse_pattern_id("q7")


def test_isomorphism():
    relabeled_path = from_edges(4, [(2, 0), (0, 3), (3, 1)])
    assert isomorphic(relabeled_path, P4)
    assert not isomorphic(C4, P4)
    assert not isomorphic(P3, K3)


def test_self_complementarity():
    assert isomorphic(P4.complement(), P4)
    assert not isomorphic(P3.complement(), P3)
    assert not isomorphic(K3.complement(), K3)


def _brute_path_edge_sets(n):
    """Independent count: 3-edge subsets of the n-vertex pair set forming a path."""
    found = 0
    pairs = list(all_pairs(n))
    for triple in combinations(pairs, 3):
        degree = {}
        for u, v in triple:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        if len(degree) != 4 or sorted(degree.values()) != [1, 1, 2, 2]:
            continue
        # degree profile of a 3-edge graph on 4 vertices: path or triangle+isolate;
        # the triangle has only 3 distinct vertices, so this is a path
        found += 1
    return found


def test_placements_p4_counts():
    placements = induced_placements(4, P4)
    assert len(placements) == 12
    assert len(placements) == _brute_path_edge_sets(4)
    for pos, neg in placements:
        assert pos.bit_count() == 3 and neg.bit_count() == 3
        assert pos & neg == 0
        assert (pos | neg) == (1 << pair_count(4)) - 1
    assert len(set(placements)) == 12


def test_placements_scale_with_subsets():
    assert len(induced_placements(5, P4)) == 5 * 12
    assert len(induced_placements(6, P4)) == 15 * 12
    assert induced_placements(3, K3) == ((0b111, 0),)
    assert induced_placements(3, P4) == ()
    with pytest.raises(ResourceLimitError):
        induced_placements(9, P4)


def test_placements_literal_balance_generic():
    for h in (P3, K3, C4, complete_minus_edge(4)):
        for pos, neg in induced_placements(5, h):
            assert pos.bit_count() == h.edge_count()
            assert neg.bit_count() == pair_count(h.k) - h.edge_count()


def test_anchor_pair_orbits():
    # one representative per Aut(h)-orbit of ordered vertex pairs, worked by hand
    assert anchor_pair_orbits(K3) == ((0, 1),)
    assert anchor_pair_orbits(complete_graph(4)) == ((0, 1),)
    assert anchor_pair_orbits(C4) == ((0, 1), (0, 2))  # adjacent, opposite
    assert anchor_pair_orbits(P3) == ((0, 1), (0, 2), (1, 0))  # reversal only
    assert anchor_pair_orbits(P4) == ((0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3))
    # K5 minus {0, 1}: Aut swaps 0 and 1 and permutes 2, 3, 4
    assert anchor_pair_orbits(complete_minus_edge(5)) == ((0, 1), (0, 2), (2, 0), (2, 3))
