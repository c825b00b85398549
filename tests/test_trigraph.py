import pytest
from hypothesis import given
from hypothesis import strategies as st

from indsat.trigraph import (
    BLACK,
    GRAY,
    WHITE,
    Trigraph,
    all_pairs,
    complete_gray,
    dumps,
    from_pairs,
    index_pair,
    loads,
    pair_count,
    pair_index,
)

from conftest import trigraphs


def test_colex_pair_order_is_pinned():
    order = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert [pair_index(u, v) for u, v in order] == list(range(6))
    assert list(all_pairs(4)) == order


def test_pair_index_roundtrip():
    for i in range(pair_count(16)):
        u, v = index_pair(i)
        assert u < v
        assert pair_index(u, v) == i
    assert pair_index(3, 1) == pair_index(1, 3)


def test_pair_index_rejects_loops_and_negatives():
    with pytest.raises(ValueError):
        pair_index(2, 2)
    with pytest.raises(ValueError):
        pair_index(-1, 2)


def test_complete_gray_counts():
    assert complete_gray(0).gray_count == 0
    assert complete_gray(3).gray_count == 3
    assert complete_gray(5).gray_count == 10
    with pytest.raises(ValueError):
        complete_gray(65)


def test_mask_validation():
    with pytest.raises(ValueError):
        Trigraph(3, black=0b001, gray=0b001)
    with pytest.raises(ValueError):
        Trigraph(2, black=0b10)  # only one pair exists
    with pytest.raises(ValueError):
        Trigraph(-1)


def test_color_lookup():
    t = from_pairs(3, black=[(0, 1)], gray=[(1, 2)])
    assert t.color(0, 1) is BLACK
    assert t.color(1, 0) is BLACK
    assert t.color(1, 2) is GRAY
    assert t.color(0, 2) is WHITE
    with pytest.raises(ValueError):
        t.color(0, 3)


def test_complement_examples():
    assert complete_gray(4).complement() == complete_gray(4)
    k3 = from_pairs(3, black=[(0, 1), (0, 2), (1, 2)])
    comp = k3.complement()
    assert comp.black == 0 and comp.white_count == 3


def test_complement_preserves_gray_on_layered_construction():
    from indsat.constructions import construct_tn

    t, _ = construct_tn(5)
    assert t.complement().gray == t.gray


@given(trigraphs())
def test_complement_is_involution(t):
    assert t.complement().complement() == t


@given(trigraphs())
def test_color_classes_partition_pairs(t):
    assert t.black_count + t.white_count + t.gray_count == pair_count(t.n)
    assert t.black & t.gray == 0
    assert t.black & t.white == 0


def test_flip_examples():
    t = Trigraph(2)  # single white pair
    flipped = t.flip(0, 1)
    assert flipped.color(0, 1) is GRAY
    assert flipped.flip(0, 1) == flipped  # gray-absorbing
    with pytest.raises(ValueError):
        t.flip(0, 2)
    with pytest.raises(ValueError):
        t.flip(1, 1)


@given(trigraphs(min_n=2), st.data())
def test_flip_is_idempotent(t, data):
    u = data.draw(st.integers(0, t.n - 2))
    v = data.draw(st.integers(u + 1, t.n - 1))
    once = t.flip(u, v)
    assert once.flip(u, v) == once


def test_induced_identity_and_examples(t5_layered):
    t, spec = t5_layered
    sub, kept = t.induced(range(t.n))
    assert sub == t and kept == tuple(range(t.n))

    lab = spec.labeling
    sub, kept = t.induced([lab["a1"], lab["b1"], lab["c1"]])
    # relabeled order-preservingly: a1->0, b1->1, c1->2
    assert kept == (lab["a1"], lab["b1"], lab["c1"])
    assert sub.color(0, 1) is GRAY
    assert sub.color(0, 2) is BLACK
    assert sub.color(1, 2) is BLACK

    sub3, _ = complete_gray(5).induced([0, 2, 4])
    assert sub3 == complete_gray(3)

    with pytest.raises(ValueError):
        t.induced([0, 9])


@given(trigraphs(min_n=1), st.data())
def test_induced_commutes_with_complement(t, data):
    subset = data.draw(st.sets(st.integers(0, t.n - 1), min_size=1))
    a, _ = t.complement().induced(subset)
    b, _ = t.induced(subset)
    assert a == b.complement()


def test_components_examples(t5_layered):
    t, spec = t5_layered
    lab = spec.labeling
    comps = t.components({GRAY})
    assert comps == [
        frozenset({lab["a1"], lab["b1"]}),
        frozenset({lab["c1"]}),
        frozenset({lab["a2"], lab["b2"]}),
    ]
    assert Trigraph(4).components({BLACK, GRAY}) == [frozenset({v}) for v in range(4)]
    assert complete_gray(3).components({GRAY}) == [frozenset({0, 1, 2})]
    with pytest.raises(ValueError):
        t.components(set())


@given(trigraphs(), st.sets(st.sampled_from([BLACK, WHITE, GRAY]), min_size=1))
def test_components_partition_vertices(t, palette):
    comps = t.components(palette)
    seen = sorted(v for c in comps for v in c)
    assert seen == list(range(t.n))


def test_cut_colors(t5_layered):
    t, spec = t5_layered
    lab = spec.labeling
    cut = t.cut_colors([lab["c1"]], [lab["a1"], lab["b1"]])
    assert cut == {BLACK: 2}
    cut2 = t.cut_colors([lab["c1"]], [lab["a2"], lab["b2"]])
    assert cut2 == {BLACK: 2}
    assert t.cut_colors([0, 1], []) == {}
    with pytest.raises(ValueError):
        t.cut_colors([0, 1], [1, 2])


def test_permute_transports_colors():
    t = from_pairs(3, black=[(0, 1)], gray=[(1, 2)])
    p = t.permute([2, 0, 1])  # 0->2, 1->0, 2->1
    assert p.color(2, 0) is BLACK
    assert p.color(0, 1) is GRAY
    assert p.color(1, 2) is WHITE
    with pytest.raises(ValueError):
        t.permute([0, 0, 1])


# -- text format --------------------------------------------------------


def test_text_round_trip(t5_layered):
    t, _ = t5_layered
    assert loads(dumps(t)) == t


@given(trigraphs())
def test_text_round_trip_property(t):
    assert loads(dumps(t)) == t


def test_text_parsing_features():
    doc = """
    # layered example
    trigraph 3

    0 1 G  # a gray pair
    0 2 B
    """
    t = loads(doc)
    assert t.color(0, 1) is GRAY
    assert t.color(0, 2) is BLACK
    assert t.color(1, 2) is WHITE  # unlisted defaults to white


def test_text_accepts_explicit_white():
    t = loads("trigraph 2\n0 1 W\n")
    assert t == Trigraph(2)


@pytest.mark.parametrize(
    "doc",
    [
        "",
        "graph 3",
        "trigraph x",
        "trigraph 3\n0 1",
        "trigraph 3\n1 0 B",  # u < v required
        "trigraph 3\n0 3 B",
        "trigraph 3\n0 1 Q",
        "trigraph 3\n0 1 B\n0 1 W",  # duplicate
        "trigraph 99",
        "trigraph 1_0",  # int() would read 10
        "trigraph 3\n0 +1 B",  # int() would read 1
    ],
)
def test_text_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        loads(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ("", "line 1: empty trigraph document (no header line)"),
        ("# c\n\n", "line 1: empty trigraph document (no header line)"),
        ("# c\ngraph 3", "line 2: bad header line 'graph 3'"),
        ("trigraph x", "line 1: bad header line 'trigraph x'"),
        ("trigraph 3 4", "line 1: bad header line 'trigraph 3 4'"),
        ("\ntrigraph 65", "line 2: vertex count 65 outside supported range 0..64"),
        ("trigraph 3\n0 1 B\n\n0 1", "line 4: bad pair line '0 1'"),
        ("trigraph 3\n0 x B", "line 2: bad pair line '0 x B'"),
        ("trigraph 3\n1 0 B", "line 2: pair (1, 0) not 0-based u < v < 3"),
        ("trigraph 3\n# c\n0 3 B", "line 3: pair (0, 3) not 0-based u < v < 3"),
        ("trigraph 3\n0 1 Q", "line 2: bad color 'Q' for pair (0, 1)"),
        ("trigraph 3\n0 1 B\n0 2 G\n0 1 W", "line 4: duplicate pair (0, 1) (first on line 2)"),
        # Arabic-Indic digits pass str.isdecimal() but are not numbers of the format
        ("trigraph \u0663", "line 1: bad header line 'trigraph \u0663'"),
        ("trigraph 3\n\u0660 \u0661 B", "line 2: bad pair line '\u0660 \u0661 B'"),
    ],
    ids=["empty", "comments-only", "header-keyword", "header-count", "header-extra",
         "vertex-count", "pair-line", "pair-token", "pair-order", "pair-range", "color",
         "duplicate", "header-non-ascii-digit", "pair-non-ascii-digit"],
)
def test_trigraph_errors_name_their_line(doc, message):
    with pytest.raises(ValueError) as exc:
        loads(doc)
    assert str(exc.value) == message
