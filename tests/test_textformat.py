"""The shared line format: every reader parses or raises a line-numbered ValueError."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import indsat.dnf as dnf
import indsat.patterns as patterns
import indsat.trigraph as tri
from indsat.textformat import is_number, load_file, read_document

from conftest import trigraphs

LOADERS = {"trigraph": tri.loads, "dnf": dnf.loads, "pattern": patterns.loads}
LINE_ERROR = re.compile(r"line [1-9][0-9]*: ")

# Tokens near the edges of each format's rules, plus a few that no rule expects.
EDGE_TOKENS = ["", "#", "0", "1", "-1", "--1", "+1", "-0", "1_0", "٣", "7", "8", "63", "64",
               "65", "2016", "2017", "99999999999999999999", "B", "G", "W", "Q", "x",
               "trigraph", "dnf", "pattern", "1" * 5000]


@st.composite
def pattern_graphs(draw):
    k = draw(st.integers(2, patterns.MAX_PATTERN_VERTICES))
    return patterns.PatternGraph(k, draw(st.integers(0, (1 << tri.pair_count(k)) - 1)))


@st.composite
def dnf_formulas(draw):
    m = draw(st.integers(1, 8))
    clauses = []
    for _ in range(draw(st.integers(0, 5))):
        pos = draw(st.integers(0, (1 << m) - 1))
        neg = draw(st.integers(0, (1 << m) - 1)) & ~pos
        if pos | neg:
            clauses.append((pos, neg))
    return dnf.DnfFormula(m, tuple(clauses))


def pattern_text(g):
    return f"pattern {g.k}\n" + "".join(f"{u} {v}\n" for u, v in g.edge_pairs())


def parses_or_names_its_line(loads, text):
    try:
        loads(text)
    except ValueError as exc:
        assert LINE_ERROR.match(str(exc)), str(exc)


@given(
    st.sampled_from(sorted(LOADERS)),
    st.sampled_from(["", "trigraph 4\n", "dnf 3 2\n", "pattern 4\n"]),
    st.text(alphabet=st.sampled_from("trigaphdnfle 0123456789-+_#BGWQ\t\n\r\x0c٣") | st.characters()),
)
def test_arbitrary_text_parses_or_names_its_line(kind, header, text):
    parses_or_names_its_line(LOADERS[kind], header + text)


@given(
    st.one_of(
        trigraphs(max_n=7).map(lambda t: ("trigraph", tri.dumps(t))),
        dnf_formulas().map(lambda f: ("dnf", dnf.dumps(f))),
        pattern_graphs().map(lambda g: ("pattern", pattern_text(g))),
    ),
    st.data(),
)
def test_one_mutated_token_parses_or_names_its_line(kind_doc, data):
    kind, doc = kind_doc
    lines = [line.split() for line in doc.splitlines()]
    spots = [(i, j) for i, tokens in enumerate(lines) for j in range(len(tokens))]
    i, j = data.draw(st.sampled_from(spots))
    lines[i][j] = data.draw(st.sampled_from(EDGE_TOKENS) | st.text(max_size=4))
    parses_or_names_its_line(LOADERS[kind], "\n".join(" ".join(tokens) for tokens in lines))


@given(pattern_graphs(), st.randoms(use_true_random=False))
def test_pattern_text_round_trip(g, rnd):
    edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edge_pairs()]
    rnd.shuffle(edges)
    body = "".join(f"{u}  {v}  # edge\n\n" for u, v in edges)
    assert patterns.loads(pattern_text(g)) == g
    assert patterns.loads(f"# a pattern\npattern {g.k}\n{body}") == g


def test_read_document_numbers_every_line():
    text = "# c\n\nkw 3 04  # trailing\n a b\n\n# c\nc\n"
    assert read_document(text, "kw", 2) == (3, [3, 4], [(4, ["a", "b"]), (7, ["c"])])


def test_lines_end_at_newline_alone():
    # a form feed is whitespace inside line 1, as an editor shows it, not a break
    with pytest.raises(ValueError) as exc:
        tri.loads("trigraph 3\x0c0 1 B")
    assert str(exc.value) == "line 1: bad header line 'trigraph 3 0 1 B'"
    for brk in ["\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]:
        with pytest.raises(ValueError, match="^line 1: bad header line"):
            tri.loads(f"trigraph 3{brk}0 1 B{brk}")
    with pytest.raises(ValueError) as exc:
        tri.loads("trigraph 3\n# note\x0c\n0 3 B\n")
    assert str(exc.value).startswith("line 3: ")
    # CRLF documents still parse, numbered by their \n
    assert tri.loads("trigraph 3\r\n0 1 B\r\n1 2 G # c\r\n") == tri.loads("trigraph 3\n0 1 B\n1 2 G\n")
    with pytest.raises(ValueError) as exc:
        tri.loads("trigraph 3\r\n\r\n0 3 B\r\n")
    assert str(exc.value).startswith("line 3: ")


def test_overlong_token_names_its_line():
    with pytest.raises(ValueError) as exc:
        dnf.loads("dnf 3 1\n1" + "0" * 5000)
    assert str(exc.value) == "line 2: token longer than 4300 characters"


def test_numbers_are_ascii_digits():
    assert is_number("0") and is_number("0123456789")
    for token in ["", "-1", "+1", "1_0", " 1", "1.0", "\u0663", "1\u0660", "\uff11", "\u00b2"]:
        assert not is_number(token), token


def test_load_file_names_the_path(tmp_path):
    path = tmp_path / "t.tri"
    path.write_text("trigraph 3\n0 1 G\n", encoding="utf-8")
    assert load_file(path, tri.loads) == tri.loads("trigraph 3\n0 1 G\n")
    path.write_text("trigraph 3\n0 3 G\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_file(path, tri.loads)
    assert str(exc.value) == f"{path}: line 2: pair (0, 3) not 0-based u < v < 3"
