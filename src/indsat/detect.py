"""Deciding whether a trigraph has a realization containing an induced pattern.

Because every gray pair may be resolved to black or white independently,
a realization with an induced copy of a pattern H exists exactly when
there is an injection of V(H) into the trigraph mapping pattern edges to
black-or-gray pairs and pattern nonedges to white-or-gray pairs.  The
fast detectors search for such injections directly; the brute-force
oracle enumerates all 2^|gray| realizations and scans subsets, and is
kept deliberately independent of the injection search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional

from .errors import ResourceLimitError
from .patterns import PatternGraph, anchor_pair_orbits, is_path4, isomorphic
from .trigraph import (
    BLACK,
    GRAY,
    WHITE,
    Trigraph,
    _bits,
    all_pairs,
    index_pair,
    pair_index,
)

BRUTE_GRAY_CAP = 20


# -- realizations -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class Realization:
    """A plain graph obtained by resolving every gray pair of a trigraph."""

    n: int
    edges: int

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.edges >> pair_index(u, v) & 1)


def realize(t: Trigraph, chosen_gray: int) -> Realization:
    """The realization taking the given subset of gray pairs as edges."""
    if chosen_gray & ~t.gray:
        raise ValueError("chosen pairs are not all gray")
    return Realization(t.n, t.black | chosen_gray)


def realizations(t: Trigraph) -> Iterator[Realization]:
    """All 2^|gray| realizations, in increasing subset-mask order."""
    g = t.gray
    sub = 0
    while True:
        yield Realization(t.n, t.black | sub)
        if sub == g:
            break
        sub = (sub - g) & g


# -- plain-graph induced subgraph test (oracle side) ------------------


@lru_cache(maxsize=None)
def _induced_iso(k: int, submask: int, h: PatternGraph) -> bool:
    return isomorphic(PatternGraph(k, submask), h)


def contains_induced(g: Realization, h: PatternGraph) -> bool:
    """True iff some |V(h)|-subset of g induces a graph isomorphic to h."""
    k = h.k
    if k > g.n:
        return False
    for subset in combinations(range(g.n), k):
        sub = 0
        for a, b in all_pairs(k):
            if g.has_edge(subset[a], subset[b]):
                sub |= 1 << pair_index(a, b)
        if _induced_iso(k, sub, h):
            return True
    return False


def has_realization_brute(t: Trigraph, h: PatternGraph) -> bool:
    """Oracle: enumerate every realization and scan it for an induced h."""
    if t.gray_count > BRUTE_GRAY_CAP:
        raise ResourceLimitError(
            f"{t.gray_count} gray pairs exceed the brute enumeration cap {BRUTE_GRAY_CAP}"
        )
    return any(contains_induced(r, h) for r in realizations(t))


# -- injection search (fast side) --------------------------------------


def _compat_masks(t: Trigraph) -> tuple[list[int], list[int]]:
    """Per-vertex masks: bg = black-or-gray neighbors, wg = white-or-gray."""
    n = t.n
    bg = [0] * n
    wg = [0] * n
    for i in _bits(t.black | t.gray):
        u, v = index_pair(i)
        bg[u] |= 1 << v
        bg[v] |= 1 << u
    full = (1 << n) - 1
    for v in range(n):
        wg[v] = full & ~(1 << v) & ~bg[v]
    for i in _bits(t.gray):
        u, v = index_pair(i)
        wg[u] |= 1 << v
        wg[v] |= 1 << u
    return bg, wg


def _find_p4(bg: list[int], wg: list[int], n: int) -> Optional[tuple[int, int, int, int]]:
    """An injection realizing an induced 4-path, or None.

    Enumerates the middle pair (v2 < v3) over black/gray pairs; reversal
    symmetry makes one orientation per middle pair sufficient.
    """
    for v3 in range(n):
        below = bg[v3] & ((1 << v3) - 1)
        for v2 in _bits(below):
            c1 = bg[v2] & wg[v3]
            if not c1:
                continue
            c4 = bg[v3] & wg[v2]
            if not c4:
                continue
            for v1 in _bits(c1):
                rest = c4 & wg[v1]
                if rest:
                    v4 = (rest & -rest).bit_length() - 1
                    return v1, v2, v3, v4
    return None


def _find_p4_through(
    bg: list[int], wg: list[int], n: int, x: int, y: int
) -> Optional[tuple[int, int, int, int]]:
    """An induced-4-path injection whose image contains both x and y.

    Only sound as a full test when the caller knows the pair {x, y} is
    usable in both roles (e.g. it was just recolored gray).
    """
    # {x, y} as the middle pair
    c1 = bg[x] & wg[y]
    c4 = bg[y] & wg[x]
    if c1 and c4:
        for v1 in _bits(c1):
            rest = c4 & wg[v1]
            if rest:
                return v1, x, y, (rest & -rest).bit_length() - 1
    # {x, y} as an end plus its neighbor: p1=p, p2=q
    for p, q in ((x, y), (y, x)):
        for v3 in _bits(bg[q] & wg[p]):
            rest = bg[v3] & wg[p] & wg[q]
            if rest:
                return p, q, v3, (rest & -rest).bit_length() - 1
    # {x, y} as an end plus the far middle: p1=p, p3=q
    for p, q in ((x, y), (y, x)):
        for v2 in _bits(bg[p] & bg[q]):
            rest = bg[q] & wg[p] & wg[v2]
            if rest:
                return p, v2, q, (rest & -rest).bit_length() - 1
    # {x, y} as the two ends: p1=x, p4=y (reversal covers the swap)
    for v2 in _bits(bg[x] & wg[y]):
        rest = bg[v2] & bg[y] & wg[x]
        if rest:
            return x, v2, (rest & -rest).bit_length() - 1, y
    return None


def _search_order(h: PatternGraph, first: tuple[int, ...] = ()) -> list[int]:
    """Vertex order for backtracking: anchored vertices, then connectivity-first."""
    order = list(first)
    placed = set(order)
    while len(order) < h.k:
        best, best_key = -1, (-1, -1)
        for v in range(h.k):
            if v in placed:
                continue
            links = sum(1 for u in placed if h.has_edge(u, v))
            key = (links, h.degree(v))
            if key > best_key:
                best, best_key = v, key
        order.append(best)
        placed.add(best)
    return order


def _find_generic(
    bg: list[int],
    wg: list[int],
    n: int,
    h: PatternGraph,
    anchors: dict[int, int] | None = None,
) -> Optional[tuple[int, ...]]:
    """Backtracking injection search for arbitrary patterns (k <= 8)."""
    k = h.k
    if k > n:
        return None
    anchors = anchors or {}
    order = _search_order(h, tuple(anchors))
    images = [-1] * k
    used = 0
    for v, img in anchors.items():
        images[v] = img
        used |= 1 << img
    full = (1 << n) - 1

    def extend(depth: int, used: int) -> bool:
        if depth == k:
            return True
        hv = order[depth]
        cand = full & ~used
        for j in range(depth):
            hu = order[j]
            mask = bg[images[hu]] if h.has_edge(hu, hv) else wg[images[hu]]
            cand &= mask
            if not cand:
                return False
        for tv in _bits(cand):
            images[hv] = tv
            if extend(depth + 1, used | (1 << tv)):
                return True
        images[hv] = -1
        return False

    # anchored images must be mutually consistent before searching
    placed = list(anchors)
    for i in range(len(placed)):
        for j in range(i + 1, len(placed)):
            a, b = placed[i], placed[j]
            mask = bg[images[a]] if h.has_edge(a, b) else wg[images[a]]
            if not mask >> images[b] & 1:
                return False
    if extend(len(anchors), used):
        return tuple(images)
    return None


def _find_injection(t: Trigraph, h: PatternGraph) -> Optional[tuple[int, ...]]:
    if h.k > t.n:
        return None
    bg, wg = _compat_masks(t)
    if is_path4(h):
        return _find_p4(bg, wg, t.n)
    return _find_generic(bg, wg, t.n, h)


def _find_injection_through(
    bg: list[int], wg: list[int], n: int, h: PatternGraph, x: int, y: int
) -> Optional[tuple[int, ...]]:
    """Injection whose image contains x and y (both pair roles allowed).

    Works on the compatibility masks alone, so a caller checking many
    flips builds the masks once and, per flip, sets the pair's two
    symmetric bits before the call and clears them after it.  The
    generic search anchors one ordered pattern pair per Aut(h)-orbit.
    """
    if h.k > n:
        return None
    if is_path4(h):
        return _find_p4_through(bg, wg, n, x, y)
    for hi, hj in anchor_pair_orbits(h):
        found = _find_generic(bg, wg, n, h, anchors={hi: x, hj: y})
        if found is not None:
            return found
    return None


# -- public surface ----------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """An injective placement of a pattern plus the gray resolutions it uses.

    vertices[i] is the trigraph vertex playing pattern vertex i;
    gray_as_black / gray_as_white list the gray image pairs that the
    witnessing realization resolves each way.
    """

    vertices: tuple[int, ...]
    gray_as_black: frozenset[tuple[int, int]]
    gray_as_white: frozenset[tuple[int, int]]


def _embedding_from(t: Trigraph, h: PatternGraph, images: tuple[int, ...]) -> Embedding:
    as_black: set[tuple[int, int]] = set()
    as_white: set[tuple[int, int]] = set()
    for a, b in all_pairs(h.k):
        u, v = sorted((images[a], images[b]))
        if t.color(u, v) is GRAY:
            (as_black if h.has_edge(a, b) else as_white).add((u, v))
    return Embedding(images, frozenset(as_black), frozenset(as_white))


def embedding_is_valid(t: Trigraph, h: PatternGraph, emb: Embedding) -> bool:
    """Check the defining property of an embedding against a trigraph."""
    imgs = emb.vertices
    if len(set(imgs)) != h.k or any(not 0 <= v < t.n for v in imgs):
        return False
    for a, b in all_pairs(h.k):
        c = t.color(imgs[a], imgs[b])
        if h.has_edge(a, b):
            if c not in (BLACK, GRAY):
                return False
        elif c not in (WHITE, GRAY):
            return False
    return True


def find_embedding(t: Trigraph, h: PatternGraph) -> Optional[Embedding]:
    """A witness embedding of h into some realization of t, or None."""
    images = _find_injection(t, h)
    if images is None:
        return None
    return _embedding_from(t, h, images)


def has_realization_of(t: Trigraph, h: PatternGraph) -> bool:
    """True iff some realization of t contains h as an induced subgraph."""
    return _find_injection(t, h) is not None
