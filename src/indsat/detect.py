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
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .errors import ResourceLimitError
from .patterns import PatternGraph, anchor_pair_orbits, isomorphic
from .trigraph import (
    BLACK,
    GRAY,
    WHITE,
    Trigraph,
    all_pairs,
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
    """Per-vertex masks: bg = black-or-gray neighbors, wg = white-or-gray.

    bg and the gray rows are `Trigraph.adjacency` rows, read off the colex
    pair masks; wg[v] is every other vertex outside bg[v], plus v's gray row.
    """
    bg = t.adjacency((BLACK, GRAY))
    gray = t.adjacency((GRAY,))
    full = (1 << t.n) - 1
    return bg, [full ^ (1 << v) ^ row | gray[v] for v, row in enumerate(bg)]


def _linked(rel: list[int], a_set: int, b_set: int) -> Optional[tuple[int, int]]:
    """Some (a, b) with a in a_set, b in b_set and b in rel[a], or None.

    rel (bg or wg) is symmetric, so it scans whichever set has fewer bits
    and tests the other with one AND per scanned vertex.
    """
    if a_set.bit_count() <= b_set.bit_count():
        while a_set:
            low = a_set & -a_set
            a = low.bit_length() - 1
            hit = rel[a] & b_set
            if hit:
                return a, (hit & -hit).bit_length() - 1
            a_set ^= low
    else:
        while b_set:
            low = b_set & -b_set
            b = low.bit_length() - 1
            hit = rel[b] & a_set
            if hit:
                return (hit & -hit).bit_length() - 1, b
            b_set ^= low
    return None


def _find_p4(bg: list[int], wg: list[int], n: int) -> Optional[tuple[int, int, int, int]]:
    """An injection realizing an induced 4-path (v1, v2, v3, v4), or None.

    Enumerates the middle pair (v2 < v3) over black/gray pairs; reversal
    symmetry makes one orientation per middle pair sufficient.  The ends
    are a v1 in bg[v2] & wg[v3] and a v4 in bg[v3] & wg[v2] with v4 in
    wg[v1], found by `_linked` from the smaller side.
    """
    for v3 in range(n):
        below = bg[v3] & ((1 << v3) - 1)
        while below:
            low = below & -below
            v2 = low.bit_length() - 1
            ends = _linked(wg, bg[v2] & wg[v3], bg[v3] & wg[v2])
            if ends is not None:
                return ends[0], v2, v3, ends[1]
            below ^= low
    return None


def _find_p4_through(
    bg: list[int], wg: list[int], n: int, x: int, y: int, edge: bool
) -> Optional[tuple[int, int, int, int]]:
    """An induced-4-path injection (v1, v2, v3, v4) through {x, y} in one role, or None.

    With edge, {x, y} is the image of a path edge: the middle pair, then
    an end and its neighbor.  Without, it is the image of a nonedge: the
    two ends, then an end and the far middle vertex.  The kernel does not
    test the pair's own bit, so it is sound only when the pair is usable
    in that role (y in bg[x] for an edge, y in wg[x] for a nonedge).
    Each of these roles leaves two path vertices to find, a in a set A
    and b in a set B, joined by an edge (b in bg[a]) or a nonedge (b in
    wg[a]); `_linked` answers each from the smaller of A and B.
    """
    bx, by, wx, wy = bg[x], bg[y], wg[x], wg[y]
    if edge:
        # {x, y} as the middle pair, v2 = x, v3 = y: the ends are apart
        found = _linked(wg, bx & wy, by & wx)
        if found is not None:
            return found[0], x, y, found[1]
        # {x, y} as an end and its neighbor, v1 = p, v2 = q: v3 joined to v4
        for p, q in ((x, y), (y, x)):
            found = _linked(bg, bg[q] & wg[p], wg[p] & wg[q])
            if found is not None:
                return p, q, found[0], found[1]
        return None
    # {x, y} as the two ends, v1 = x, v4 = y (reversal covers the swap):
    # the middle vertices come from the same two sets and are joined
    found = _linked(bg, bx & wy, by & wx)
    if found is not None:
        return x, found[0], found[1], y
    # {x, y} as an end and the far middle, v1 = p, v3 = q: v2 apart from v4
    for p, q in ((x, y), (y, x)):
        found = _linked(wg, bg[p] & bg[q], bg[q] & wg[p])
        if found is not None:
            return p, found[0], q, found[1]
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


class _Plan(NamedTuple):
    """How the detectors search for one pattern h; built once per pattern by `_plan`.

    A search plan is (order, checks): order[d] is the pattern vertex
    placed at depth d, and checks[d] holds one (j, is_edge) per earlier
    depth j < d, is_edge telling whether order[j] and order[d] are
    adjacent in h.  The image at depth d must then lie in bg[image j] for
    each edge and in wg[image j] for each nonedge.
    """

    p4: Optional[itemgetter]  # path-order images -> h's labels, when h is a P4
    whole: tuple  # the unanchored search plan, for condition (a)
    # one plan per Aut(h)-orbit of ordered pairs, that pair placed first:
    # through[False] the orbits of nonedges, through[True] those of edges
    through: tuple[tuple, tuple]


@lru_cache(maxsize=None)
def _plan(h: PatternGraph) -> _Plan:
    """The detectors' plan for h, so that no search consults h itself.

    h is a P4 exactly when it has 4 vertices, 3 edges and two vertices of
    degree 1 (its degrees are then 1, 1, 2, 2, and no triangle fits).  The
    P4 kernels return images in path order (v1, v2, v3, v4); the getter
    picks, for each vertex of h in turn, the image at that vertex's
    position along the path walked from the lower end.
    """

    def searched(first: tuple[int, ...]) -> tuple:
        order = tuple(_search_order(h, first))
        return order, tuple(
            tuple((j, h.has_edge(order[j], v)) for j in range(d)) for d, v in enumerate(order)
        )

    degrees = h.degrees()
    p4 = None
    if h.k == 4 and h.edge_count() == 3 and degrees.count(1) == 2:
        path = [degrees.index(1)]
        while len(path) < 4:
            path.append(next(v for v in range(4) if v not in path and h.has_edge(path[-1], v)))
        p4 = itemgetter(*(path.index(v) for v in range(4)))
    orbits = anchor_pair_orbits(h)
    through = tuple(
        tuple(searched(pair) for pair in orbits if h.has_edge(*pair) == edge)
        for edge in (False, True)
    )
    return _Plan(p4, searched(()), through)


def _find_generic(
    bg: list[int], wg: list[int], n: int, plan: tuple, anchors: tuple[int, ...] = ()
) -> Optional[tuple[int, ...]]:
    """Depth-first injection search for arbitrary patterns (k <= 8), or None.

    plan is one (order, checks) of a `_Plan`, and anchors fixes the images
    of its first depths; inconsistent anchors give None.  The candidates
    at depth d are the vertices allowed by every check of checks[d].
    Since neither bg[v] nor wg[v] contains v and every earlier depth is
    checked, the candidates exclude the images already used.  The stacks
    hold the image and the untried candidates of each depth; a candidate
    is taken as the lowest set bit.  Returns the images indexed by
    pattern vertex.
    """
    order, checks = plan
    k = len(order)
    if k > n:
        return None
    images = [0] * k  # by depth, not by pattern vertex
    for depth, img in enumerate(anchors):
        for j, is_edge in checks[depth]:
            if not (bg[images[j]] if is_edge else wg[images[j]]) >> img & 1:
                return None
        images[depth] = img
    full = (1 << n) - 1
    cands = [0] * k  # untried candidates by depth
    depth = base = len(anchors)
    while depth < k:
        cand = full
        for j, is_edge in checks[depth]:
            cand &= bg[images[j]] if is_edge else wg[images[j]]
        # back up to the deepest depth with a candidate left
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


def _find_injection(
    t: Trigraph, h: PatternGraph, masks: Optional[tuple[list[int], list[int]]] = None
) -> Optional[tuple[int, ...]]:
    """Injection of h into some realization of t; masks are t's `_compat_masks`, if built."""
    if h.k > t.n:
        return None
    bg, wg = _compat_masks(t) if masks is None else masks
    plan = _plan(h)
    if plan.p4 is not None:
        found = _find_p4(bg, wg, t.n)
        return None if found is None else plan.p4(found)
    return _find_generic(bg, wg, t.n, plan.whole)


def _find_injection_through(
    bg: list[int], wg: list[int], n: int, plan: _Plan, x: int, y: int, edge: bool
) -> Optional[tuple[int, ...]]:
    """Injection mapping a pattern edge (edge true) or nonedge onto {x, y}, or None.

    Works on the compatibility masks and the pattern's `_plan` alone, so a
    caller checking many flips fetches both once and, per flip, sets the
    pair's bit in the role's mask before the call and clears it after.
    The generic search anchors one ordered pattern pair per Aut(h)-orbit
    of that role's pairs, in the order of `anchor_pair_orbits`.  A P4
    kernel's path needs four distinct vertices, so it finds none when
    n < 4, as `_find_generic` does for any pattern larger than n.
    """
    if plan.p4 is not None:
        found = _find_p4_through(bg, wg, n, x, y, edge)
        return None if found is None else plan.p4(found)
    for anchored in plan.through[edge]:
        found = _find_generic(bg, wg, n, anchored, (x, y))
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
