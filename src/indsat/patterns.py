"""Small plain graphs used as forbidden induced patterns.

A pattern is a simple undirected graph on 2..8 vertices, stored as a
pair bitmask in the same colex order as trigraphs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .errors import ResourceLimitError
from .textformat import is_number, load_file, read_document
from .trigraph import all_pairs, index_pair, pair_count, pair_index

MAX_PATTERN_VERTICES = 8
# The most vertices a placement table (and so a DNF encoding) is built for.
PLACEMENT_MAX_VERTICES = 8


@dataclass(frozen=True, slots=True)
class PatternGraph:
    """Simple graph on k vertices; edges as a colex pair bitmask."""

    k: int
    edges: int

    def __post_init__(self) -> None:
        if not 2 <= self.k <= MAX_PATTERN_VERTICES:
            raise ValueError(f"pattern must have 2..{MAX_PATTERN_VERTICES} vertices, got {self.k}")
        if self.edges & ~((1 << pair_count(self.k)) - 1):
            raise ValueError("edge mask has bits outside the pair range")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.edges >> pair_index(u, v) & 1)

    def degree(self, v: int) -> int:
        return sum(1 for u in range(self.k) if u != v and self.has_edge(u, v))

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.degree(v) for v in range(self.k))

    def edge_count(self) -> int:
        return self.edges.bit_count()

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [index_pair(i) for i in range(pair_count(self.k)) if self.edges >> i & 1]

    def complement(self) -> "PatternGraph":
        full = (1 << pair_count(self.k)) - 1
        return PatternGraph(self.k, full & ~self.edges)


def from_edges(k: int, edges) -> PatternGraph:
    mask = 0
    for u, v in edges:
        if not (0 <= u < k and 0 <= v < k):
            raise ValueError(f"edge ({u}, {v}) out of range for k={k}")
        mask |= 1 << pair_index(u, v)
    return PatternGraph(k, mask)


def path_graph(k: int) -> PatternGraph:
    """The path v0 v1 ... v(k-1)."""
    return from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> PatternGraph:
    if k < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> PatternGraph:
    return PatternGraph(k, (1 << pair_count(k)) - 1)


def complete_minus_edge(k: int) -> PatternGraph:
    """Complete graph on k vertices with exactly one nonedge."""
    if k < 3:
        raise ValueError("complete-minus-an-edge needs at least 3 vertices")
    return PatternGraph(k, ((1 << pair_count(k)) - 1) & ~1)


P3 = path_graph(3)
P4 = path_graph(4)
C4 = cycle_graph(4)
K3 = complete_graph(3)

_PATTERN_ID = re.compile(r"^(p|c|k)(\d+)$")
_KHMINUS_ID = re.compile(r"^khminus:(\d+)$")


def parse_pattern_id(name: str) -> PatternGraph:
    """Resolve pattern ids like p4, k3, c4, khminus:5."""
    s = name.strip().lower()
    m = _KHMINUS_ID.match(s)
    if m:
        return complete_minus_edge(int(m.group(1)))
    m = _PATTERN_ID.match(s)
    if m:
        kind, num = m.group(1), int(m.group(2))
        if kind == "p":
            return path_graph(num)
        if kind == "c":
            return cycle_graph(num)
        return complete_graph(num)
    raise ValueError(f"unknown pattern id {name!r}")


def isomorphic(g: PatternGraph, h: PatternGraph) -> bool:
    """Graph isomorphism by permutation search with degree pruning."""
    if g.k != h.k:
        return False
    if g.edges == h.edges:
        return True
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    gdeg, hdeg = g.degrees(), h.degrees()
    for perm in permutations(range(g.k)):
        if any(gdeg[v] != hdeg[perm[v]] for v in range(g.k)):
            continue
        if all(
            g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u, v in all_pairs(g.k)
        ):
            return True
    return False


def anchor_pair_orbits(h: PatternGraph) -> tuple[tuple[int, int], ...]:
    """One ordered pair of distinct vertices per orbit of Aut(h), in lexicographic order.

    Anchoring the pair (a, b) on trigraph vertices (x, y) is enough for
    every pair in its orbit: if f is an injection with f(a) = x and
    f(b) = y and s is an automorphism, then f composed with s^-1 is an
    injection with s(a) -> x and s(b) -> y, and vice versa.
    """
    autos = [
        perm
        for perm in permutations(range(h.k))
        if all(h.has_edge(u, v) == h.has_edge(perm[u], perm[v]) for u, v in all_pairs(h.k))
    ]
    reps: list[tuple[int, int]] = []
    covered: set[tuple[int, int]] = set()
    for a, b in permutations(range(h.k), 2):
        if (a, b) not in covered:
            reps.append((a, b))
            covered.update((perm[a], perm[b]) for perm in autos)
    return tuple(reps)


@lru_cache(maxsize=None)
def induced_placements(n: int, h: PatternGraph) -> tuple[tuple[int, int], ...]:
    """All distinct induced placements of h into n labeled vertices.

    Each placement is a pair of pair-index masks (edge_pairs, nonedge_pairs)
    over the n-vertex pair set: an induced copy of h sits exactly on the
    placements' edge pairs with the nonedge pairs absent.  Two labelings
    differing by an automorphism of h give the same mask pair and are
    deduplicated.  Order of first generation is kept, so the result is
    deterministic.
    """
    if n > PLACEMENT_MAX_VERTICES:
        raise ResourceLimitError(
            f"placement tables are only built for n <= {PLACEMENT_MAX_VERTICES}, got n={n}"
        )
    out: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for subset in combinations(range(n), h.k):
        for perm in permutations(range(h.k)):
            pos = neg = 0
            for a, b in all_pairs(h.k):
                bit = 1 << pair_index(subset[perm[a]], subset[perm[b]])
                if h.has_edge(a, b):
                    pos |= bit
                else:
                    neg |= bit
            key = (pos, neg)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return tuple(out)


# -- text format (the --pattern-file of the command line) -----------------
#
#   pattern <k>
#   <u> <v>         (one edge per line, 0-based, any order)
#
# Comments, blank lines and line numbers follow ``textformat``.


def loads(text: str) -> PatternGraph:
    """Parse the pattern text format; a malformed document is a ValueError naming its line."""
    head_no, (k,), body = read_document(text, "pattern", 1)
    if not 2 <= k <= MAX_PATTERN_VERTICES:
        raise ValueError(f"line {head_no}: pattern must have 2..{MAX_PATTERN_VERTICES} vertices, got {k}")
    edges: dict[tuple[int, int], int] = {}  # edge -> line it is on
    for no, tokens in body:
        line = " ".join(tokens)
        if len(tokens) != 2 or not all(map(is_number, tokens)):
            raise ValueError(f"line {no}: bad edge line {line!r} (want two vertex numbers)")
        u, v = sorted(int(t) for t in tokens)
        if u == v:
            raise ValueError(f"line {no}: self-loop {line!r}")
        if v >= k:
            raise ValueError(f"line {no}: vertex {v} out of range for a {k}-vertex pattern")
        if (u, v) in edges:
            raise ValueError(f"line {no}: duplicate edge {line!r} (first on line {edges[u, v]})")
        edges[u, v] = no
    return from_edges(k, edges)


def load(path) -> PatternGraph:
    return load_file(path, loads)
