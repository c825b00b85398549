from collections import Counter

import pytest

from indsat.facts import (
    check_complement_closure,
    check_gray_edge_exists,
    check_gray_shapes,
    check_monochromatic_cuts,
    check_partitions,
    check_same_neighborhood,
    check_z_cut_colors,
    run_fact_checks,
)
from indsat.patterns import C4, K3, P3, P4
from indsat.search import all_indsat_witnesses
from indsat.trigraph import Trigraph, from_pairs, pair_count


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_corpus_has_no_violations(n):
    report = run_fact_checks(n)
    assert report.ok, report.violations
    assert report.witnesses >= 1


def test_corpus_n5_has_no_violations():
    report = run_fact_checks(5)
    assert report.ok
    assert report.witnesses == 11


# the number of saturated P4 classes at each gray count
@pytest.mark.parametrize(
    "n, per_k",
    [(6, {3: 11, 4: 14, 5: 4, 6: 2}), (7, {3: 8, 4: 22, 5: 31, 6: 14})],
    ids=["n6", "n7"],
)
def test_corpus_n6_n7_has_no_violations(n, per_k):
    report = run_fact_checks(n)
    assert report.ok, report.violations
    assert report.witnesses == sum(per_k.values())
    assert Counter(w.gray.bit_count() for w in all_indsat_witnesses(n, P4)) == per_k


def test_gray_shape_check_flags_gray_path():
    t = from_pairs(4, gray=[(0, 1), (1, 2), (2, 3)])
    assert check_gray_shapes(t)


def test_partition_check_flags_mixed_triangle_vertex():
    t = from_pairs(4, gray=[(0, 1), (0, 2), (1, 2)], black=[(0, 3)])
    assert check_partitions(t)


def test_gray_edge_check_flags_grayless():
    t = Trigraph(3, black=(1 << pair_count(3)) - 1)
    assert check_gray_edge_exists(t) == ["no gray edge"]
    assert check_gray_edge_exists(Trigraph(1)) == []


def test_complement_check_flags_unsaturated_complement():
    # all-white on 2 vertices: its complement (all black) is not saturated
    assert check_complement_closure(Trigraph(2), P4)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_complement_closure_holds_for_k3_witnesses(n):
    # T is K3-saturated iff its complement is saturated for K3's complement
    for w in all_indsat_witnesses(n, K3):
        assert check_complement_closure(w.to_trigraph(), K3) == [], w


@pytest.mark.parametrize("h", [K3, C4, P3])
def test_fact_checks_reject_a_pattern_other_than_p4(h):
    with pytest.raises(ValueError, match="P4"):
        run_fact_checks(4, h)


def test_z_cut_check_flags_bad_colors():
    # star {0,1}, z=2 (black to 0, white to 1), x=3 (black to both);
    # the z-x pair must be black but is white here
    t = from_pairs(4, gray=[(0, 1)], black=[(0, 2), (0, 3), (1, 3)])
    assert check_z_cut_colors(t)


def test_same_neighborhood_check_runs_on_witness():
    from indsat.constructions import construct_tn

    t, _ = construct_tn(4)
    assert check_same_neighborhood(t, P4) == []
    assert check_monochromatic_cuts(t, P4) == []


def test_report_shape():
    report = run_fact_checks(3)
    d = report.to_dict()
    assert d["ok"] is True
    assert set(d) == {"n", "witnesses", "ok", "checks"}
    assert set(d["checks"]) == {
        "complement_closure",
        "monochromatic_cut",
        "same_neighborhood",
        "gray_shapes",
        "partitions",
        "z_cut_colors",
        "gray_edge_exists",
    }
