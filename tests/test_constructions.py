import pytest

from indsat.constructions import (
    Family,
    construct_alternative,
    construct_tn,
    isat_formula,
    parse_family,
    sat_formula,
)
from indsat.detect import has_realization_of
from indsat.patterns import P4, parse_pattern_id
from indsat.saturation import is_indsat
from indsat.search import _augment
from indsat.trigraph import BLACK, GRAY, WHITE, Trigraph, all_pairs, pair_count

from test_detect import assert_path_witness


def test_n4_is_two_gray_edges_and_white_cycle():
    t, spec = construct_tn(4)
    assert t.gray_count == 2 and t.black_count == 0
    gray_pairs = set(t.pairs_of(GRAY))
    assert gray_pairs == {
        tuple(sorted((spec.labeling["a1"], spec.labeling["b1"]))),
        tuple(sorted((spec.labeling["a0"], spec.labeling["b0"]))),
    }


def test_n5_colors_are_pinned():
    t, spec = construct_tn(5)
    lab = spec.labeling
    assert lab == {"a1": 0, "b1": 1, "c1": 2, "a2": 3, "b2": 4}
    expected = {
        (0, 1): GRAY,
        (3, 4): GRAY,
        (0, 2): BLACK,
        (1, 2): BLACK,
        (2, 3): BLACK,
        (2, 4): BLACK,
        (0, 3): WHITE,
        (0, 4): WHITE,
        (1, 3): WHITE,
        (1, 4): WHITE,
    }
    assert {pair: t.color(*pair) for pair in all_pairs(5)} == expected


def test_roles_follow_residue():
    for n, extras in ((7, {"a0", "b0"}), (9, {"c0"}), (11, set())):
        _, spec = construct_tn(n)
        roles = set(spec.labeling)
        assert extras <= roles
        assert sorted(spec.labeling.values()) == list(range(n))
    _, spec9 = construct_tn(9)
    t9, _ = construct_tn(9)
    assert t9.color(spec9.labeling["c0"], spec9.labeling["c1"]) is GRAY


def test_gray_count_formula():
    for n in range(4, 41):
        t, _ = construct_tn(n)
        assert t.gray_count == (n + 3) // 3 == isat_formula(parse_family("p4"), n)


def test_construct_tn_rejects_small_n():
    for n in (-1, 0, 3):
        with pytest.raises(ValueError):
            construct_tn(n)


def test_half_graph_inside_construction():
    t, spec = construct_tn(14)  # 14 = 3*4+2, no extras
    lab = spec.labeling
    k = 4
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            expected = BLACK if i <= j else WHITE
            assert t.color(lab[f"c{i}"], lab[f"a{j}"]) is expected
            if i != j:
                assert t.color(lab[f"a{i}"], lab[f"a{j}"]) is WHITE
                if i < j:
                    assert t.color(lab[f"c{i}"], lab[f"c{j}"]) is BLACK


FLIP_WITNESSES = [
    # (flip pair roles, quoted witness path roles)
    (("a1", "a2"), ("b1", "a1", "a2", "b2")),
    (("c1", "c2"), ("a1", "c1", "a2", "c2")),
    (("c1", "a1"), ("a1", "b1", "c1", "a2")),
    (("c1", "a2"), ("a1", "c1", "b2", "a2")),
    (("c2", "a1"), ("b1", "a1", "c2", "a2")),
]


@pytest.mark.parametrize("flip_roles, path_roles", FLIP_WITNESSES)
def test_flip_cases_reproduce_quoted_witness_paths(flip_roles, path_roles):
    t, spec = construct_tn(8)  # two full layers, so every case exists
    lab = spec.labeling
    u, v = lab[flip_roles[0]], lab[flip_roles[1]]
    flipped = t.flip(u, v)
    assert has_realization_of(flipped, P4)
    assert_path_witness(flipped, [lab[r] for r in path_roles])


def test_flip_symmetry_counterparts():
    t, spec = construct_tn(8)
    lab = spec.labeling
    for u, v in ((lab["a1"], lab["b2"]), (lab["b1"], lab["b2"]), (lab["c1"], lab["b1"])):
        assert has_realization_of(t.flip(u, v), P4)


# -- alternative construction ---------------------------------------------


def test_alternative_structure_at_6():
    t = construct_alternative(6)
    # vertices: z0 z1 | u v1 v2 | y
    assert t.gray_count == 3
    assert t.color(0, 1) is GRAY
    assert t.color(2, 3) is GRAY and t.color(2, 4) is GRAY
    assert t.color(3, 4) is BLACK
    for z in (0, 1):
        assert t.color(z, 3) is BLACK and t.color(z, 4) is BLACK
        assert t.color(z, 2) is WHITE
    assert all(t.color(w, 5) is WHITE for w in range(5))
    # above n=6, Z on the first n-4 vertices is the complemented layered trigraph
    for n in range(9, 31, 3):
        z = construct_alternative(n).induced(range(n - 4))[0]
        assert z == construct_tn(n - 4)[0].complement(), n


def test_alternative_gray_counts_and_saturation():
    for n in (6, 9, 12):
        t = construct_alternative(n)
        assert t.gray_count == (n + 3) // 3
        assert is_indsat(t, P4).is_indsat


def test_alternative_rejects_bad_n():
    for n in (3, 7, 8):
        with pytest.raises(ValueError):
            construct_alternative(n)


# -- closed forms -----------------------------------------------------------


def test_parse_family():
    assert parse_family("p4") == Family("path", 4)
    assert parse_family("ph:6") == Family("path", 6)
    assert parse_family("k3") == Family("clique", 3)
    assert parse_family("kh:5") == Family("clique", 5)
    assert parse_family("c4") == Family("cycle4", 4)
    assert parse_family("khminus:4") == Family("clique_minus_edge", 4)
    with pytest.raises(ValueError):
        parse_family("zz:9")


@pytest.mark.parametrize("name", ["p2", "k0", "ph:1", "kh:0", "kh:2", "khminus:2"])
def test_parse_family_rejects_fewer_than_3_vertices(name):
    with pytest.raises(ValueError, match=f"family id '{name}' needs at least 3 vertices"):
        parse_family(name)


def test_sat_formula_values():
    assert sat_formula(parse_family("p3"), 7) == 3
    assert sat_formula(parse_family("p4"), 8) == 4
    assert sat_formula(parse_family("p4"), 9) == 6  # odd n = 2k-1 gives k+1
    assert sat_formula(parse_family("p5"), 7) == 6
    assert sat_formula(parse_family("ph:6"), 11) == 10
    assert sat_formula(parse_family("ph:7"), 14) == 13
    # below Kaszonyi-Tuza's threshold a_h (11 for P6, 14 for P7) no value is
    # known; at n=8 the exhaustive sat(8, P6) is 7 where n - floor(n/11) is 8
    assert sat_formula(parse_family("ph:6"), 8) is None
    assert sat_formula(parse_family("ph:6"), 10) is None
    assert sat_formula(parse_family("ph:7"), 13) is None
    assert sat_formula(parse_family("k3"), 5) == 4
    assert sat_formula(parse_family("kh:4"), 6) == 9
    assert sat_formula(parse_family("c4"), 5) == 5  # Ollmann: floor((3n - 5)/2)
    assert sat_formula(parse_family("c4"), 10) == 12
    assert sat_formula(parse_family("khminus:4"), 6) is None


def _sat_by_gray_classes(n, h):
    """Least edge count of an h-saturated graph on n vertices, by exhaustive search.

    G is h-saturated exactly when the trigraph with G's edges gray and every
    other pair white is induced-h-saturated: its realizations are G's
    subgraphs, and flipping a white pair to gray adds that edge as an option.
    One gray set per isomorphism class of graphs with k edges is tried, for
    k = 0, 1, ...
    """
    reps = [0]
    for k in range(pair_count(n) + 1):
        if k:
            reps = _augment(n, reps)
        if any(is_indsat(Trigraph(n, 0, gray), h).is_indsat for gray in reps):
            return k
    return None


# every sat_formula branch that returns a value, from its least n up to 7,
# and to 8 for all but k4, whose n=8 search alone takes about 30 s
SAT_FORMULA_CASES = [
    (family, n)
    for family, least in [("p3", 3), ("p4", 4), ("p5", 5), ("k3", 3), ("k4", 4), ("c4", 5)]
    for n in range(least, 8 if family == "k4" else 9)
]


@pytest.mark.parametrize(
    "family, n", SAT_FORMULA_CASES, ids=[f"{family}-{n}" for family, n in SAT_FORMULA_CASES]
)
def test_sat_formula_matches_exhaustive_search(family, n):
    expected = _sat_by_gray_classes(n, parse_pattern_id(family))
    assert sat_formula(parse_family(family), n) == expected


def test_sat_formula_domain_errors():
    with pytest.raises(ValueError):
        sat_formula(parse_family("p5"), 4)
    with pytest.raises(ValueError):
        sat_formula(parse_family("k4"), 3)
    with pytest.raises(ValueError):
        sat_formula(parse_family("c4"), 4)


def test_isat_formula_values():
    assert isat_formula(parse_family("p4"), 4) == 2
    assert isat_formula(parse_family("p4"), 10) == 4
    assert isat_formula(parse_family("p3"), 10) == 0
    assert isat_formula(parse_family("khminus:4"), 6) == 0
    for n in (3, 4, 5):
        assert isat_formula(parse_family("k3"), n) == n - 1


def test_isat_formula_domain_errors():
    with pytest.raises(ValueError):
        isat_formula(parse_family("p5"), 10)  # no exact value known
    with pytest.raises(ValueError):
        isat_formula(parse_family("p4"), 3)
    with pytest.raises(ValueError):
        isat_formula(parse_family("kh:4"), 3)


def test_isat_never_exceeds_sat():
    families = ["p3", "p4", "k3", "k4", "k5"]
    for fam_id in families:
        fam = parse_family(fam_id)
        for n in range(fam.vertices, 30):
            sat = sat_formula(fam, n)
            if sat is not None:
                assert isat_formula(fam, n) <= sat, (fam_id, n)
