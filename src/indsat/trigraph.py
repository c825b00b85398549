"""Edge-tricolored graphs ("trigraphs").

Every unordered vertex pair carries exactly one of three colors: black
(a forced edge), white (a forced nonedge), or gray (free to resolve to
either).  A trigraph is stored as two bitmasks over the pair set in
colex order, white being implicit, so complement, flip and gray counting
are plain integer operations.

Pair indexing is colex throughout the package: {0,1}=0, {0,2}=1,
{1,2}=2, {0,3}=3, ...  i.e. index({u,v}) = v*(v-1)/2 + u for u < v.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Iterable, Iterator

from .textformat import is_number, load_file, read_document

MAX_VERTICES = 64


class EdgeColor(Enum):
    BLACK = "B"
    WHITE = "W"
    GRAY = "G"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeColor.{self.name}"


BLACK = EdgeColor.BLACK
WHITE = EdgeColor.WHITE
GRAY = EdgeColor.GRAY


def pair_count(n: int) -> int:
    """Number of unordered pairs on n vertices."""
    return n * (n - 1) // 2


def pair_index(u: int, v: int) -> int:
    """Colex index of the unordered pair {u, v}."""
    if u == v:
        raise ValueError(f"self-loop pair ({u}, {v})")
    if u > v:
        u, v = v, u
    if u < 0:
        raise ValueError(f"negative vertex in pair ({u}, {v})")
    return v * (v - 1) // 2 + u


def index_pair(i: int) -> tuple[int, int]:
    """Inverse of pair_index: the pair (u, v) with u < v at colex index i."""
    v = (1 + isqrt(1 + 8 * i)) // 2
    u = i - v * (v - 1) // 2
    return u, v


def all_pairs(n: int) -> Iterator[tuple[int, int]]:
    """All unordered pairs (u, v), u < v, in colex order."""
    for v in range(n):
        for u in range(v):
            yield u, v


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _vertex_set_mask(n: int, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        mask |= 1 << v
    return mask


@dataclass(frozen=True, slots=True)
class Trigraph:
    """Immutable trigraph on n vertices; black/gray pair bitmasks, white implicit."""

    n: int
    black: int = 0
    gray: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside supported range 0..{MAX_VERTICES}")
        full = (1 << pair_count(self.n)) - 1
        if self.black & ~full or self.gray & ~full:
            raise ValueError("pair mask has bits outside the pair range")
        if self.black & self.gray:
            raise ValueError("a pair cannot be both black and gray")

    # -- basic queries ------------------------------------------------

    @property
    def white(self) -> int:
        full = (1 << pair_count(self.n)) - 1
        return full & ~self.black & ~self.gray

    def color(self, u: int, v: int) -> EdgeColor:
        """Color of the pair {u, v}."""
        i = pair_index(u, v)
        if i >= pair_count(self.n):
            raise ValueError(f"pair ({u}, {v}) out of range for n={self.n}")
        bit = 1 << i
        if self.black & bit:
            return BLACK
        if self.gray & bit:
            return GRAY
        return WHITE

    def mask_of(self, color: EdgeColor) -> int:
        if color is BLACK:
            return self.black
        if color is GRAY:
            return self.gray
        return self.white

    def pairs_of(self, color: EdgeColor) -> Iterator[tuple[int, int]]:
        """Pairs of the given color in colex order."""
        for i in _bits(self.mask_of(color)):
            yield index_pair(i)

    @property
    def black_count(self) -> int:
        return self.black.bit_count()

    @property
    def gray_count(self) -> int:
        return self.gray.bit_count()

    @property
    def white_count(self) -> int:
        return self.white.bit_count()

    # -- algebra ------------------------------------------------------

    def complement(self) -> "Trigraph":
        """Swap black and white on every pair; gray pairs are unchanged."""
        return Trigraph(self.n, self.white, self.gray)

    def flip(self, u: int, v: int) -> "Trigraph":
        """Recolor the pair {u, v} gray (a no-op if it already is)."""
        i = pair_index(u, v)
        if v >= self.n or u >= self.n or u < 0:
            raise ValueError(f"pair ({u}, {v}) out of range for n={self.n}")
        bit = 1 << i
        return Trigraph(self.n, self.black & ~bit, self.gray | bit)

    def induced(self, vertices: Iterable[int]) -> tuple["Trigraph", tuple[int, ...]]:
        """Subtrigraph on the given vertices, relabeled order-preservingly.

        Returns (subtrigraph, kept) where kept[i] is the original label of
        new vertex i.
        """
        kept = tuple(sorted(set(vertices)))
        for v in kept:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} not a vertex of this trigraph")
        black = gray = 0
        for b, vb in enumerate(kept):
            for a in range(b):
                c = self.color(kept[a], vb)
                bit = 1 << pair_index(a, b)
                if c is BLACK:
                    black |= bit
                elif c is GRAY:
                    gray |= bit
        return Trigraph(len(kept), black, gray), kept

    def permute(self, perm: Iterable[int]) -> "Trigraph":
        """Relabel: vertex v becomes perm[v]; colors follow the pairs."""
        p = tuple(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertex range")
        black = gray = 0
        for u, v in all_pairs(self.n):
            bit = 1 << pair_index(p[u], p[v])
            c = self.color(u, v)
            if c is BLACK:
                black |= bit
            elif c is GRAY:
                gray |= bit
        return Trigraph(self.n, black, gray)

    # -- components and cuts -------------------------------------------

    def adjacency(self, palette: Iterable[EdgeColor]) -> list[int]:
        """Per-vertex neighbor bitmasks of the graph formed by the palette colors.

        In colex order vertex v's lower neighbors are the v pair bits from
        C(v, 2) on, so each row is read off the pair mask with one mask and
        shift, and one lowest-bit loop over it mirrors it to the rows of
        those lower neighbors.
        """
        mask = 0
        for c in set(palette):
            mask |= self.mask_of(c)
        adj = [0] * self.n
        for v in range(self.n):
            row = mask & ((1 << v) - 1)
            mask >>= v
            adj[v] = row
            bit = 1 << v
            while row:
                low = row & -row
                adj[low.bit_length() - 1] |= bit
                row ^= low
        return adj

    def components(self, palette: Iterable[EdgeColor]) -> list[frozenset[int]]:
        """Connected components of the palette-colored graph, as a vertex partition.

        Singleton components are included.  Components are ordered by their
        smallest vertex.
        """
        palette = set(palette)
        if not palette:
            raise ValueError("palette must be nonempty")
        adj = self.adjacency(palette)
        seen = 0
        out: list[frozenset[int]] = []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            comp = 1 << start
            frontier = 1 << start
            while frontier:
                nxt = 0
                for v in _bits(frontier):
                    nxt |= adj[v]
                frontier = nxt & ~comp
                comp |= frontier
            seen |= comp
            out.append(frozenset(_bits(comp)))
        return out

    def cut_colors(self, side_a: Iterable[int], side_b: Iterable[int]) -> Counter:
        """Multiset of colors on pairs with one endpoint in each side."""
        ma = _vertex_set_mask(self.n, side_a)
        mb = _vertex_set_mask(self.n, side_b)
        if ma & mb:
            raise ValueError("cut sides must be disjoint")
        counts: Counter = Counter()
        for u in _bits(ma):
            for v in _bits(mb):
                counts[self.color(u, v)] += 1
        return counts


def complete_gray(n: int) -> Trigraph:
    """The trigraph on n vertices with every pair gray."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")
    return Trigraph(n, 0, (1 << pair_count(n)) - 1)


def from_pairs(
    n: int,
    black: Iterable[tuple[int, int]] = (),
    gray: Iterable[tuple[int, int]] = (),
) -> Trigraph:
    """Build a trigraph from explicit black and gray pair lists (rest white)."""
    bmask = gmask = 0
    for u, v in black:
        bmask |= 1 << pair_index(u, v)
    for u, v in gray:
        gmask |= 1 << pair_index(u, v)
    return Trigraph(n, bmask, gmask)


# -- text format -----------------------------------------------------
#
#   trigraph <n>
#   <u> <v> <c>     (0-based, u < v, c in {B, W, G}; unlisted pairs are W)
#
# Comments, blank lines and line numbers follow ``textformat``.


def dumps(t: Trigraph) -> str:
    """Serialize; white pairs are omitted since they are the default."""
    lines = [f"trigraph {t.n}"]
    for i in _bits(t.black | t.gray):
        u, v = index_pair(i)
        c = "B" if t.black >> i & 1 else "G"
        lines.append(f"{u} {v} {c}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> Trigraph:
    """Parse the trigraph text format; a malformed document is a ValueError naming its line."""
    head_no, (n,), body = read_document(text, "trigraph", 1)
    if n > MAX_VERTICES:
        raise ValueError(f"line {head_no}: vertex count {n} outside supported range 0..{MAX_VERTICES}")
    masks = dict.fromkeys("BGW", 0)
    first: dict[int, int] = {}  # pair bit -> line it is on
    for no, tokens in body:
        if len(tokens) != 3 or not (is_number(tokens[0]) and is_number(tokens[1])):
            raise ValueError(f"line {no}: bad pair line {' '.join(tokens)!r}")
        u, v, c = int(tokens[0]), int(tokens[1]), tokens[2]
        if not u < v < n:
            raise ValueError(f"line {no}: pair ({u}, {v}) not 0-based u < v < {n}")
        bit = 1 << pair_index(u, v)
        if bit in first:
            raise ValueError(f"line {no}: duplicate pair ({u}, {v}) (first on line {first[bit]})")
        first[bit] = no
        if c not in masks:
            raise ValueError(f"line {no}: bad color {c!r} for pair ({u}, {v})")
        masks[c] |= bit
    return Trigraph(n, masks["B"], masks["G"])


def dump(t: Trigraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(t))


def load(path) -> Trigraph:
    return load_file(path, loads)
