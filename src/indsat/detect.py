"""Deciding whether a trigraph has a realization containing an induced pattern.

Because every gray pair may be resolved to black or white independently,
a realization with an induced copy of a pattern H exists exactly when
there is an injection of V(H) into the trigraph mapping pattern edges to
black-or-gray pairs and pattern nonedges to white-or-gray pairs.  The
fast detectors search for such injections directly; the brute-force
oracle enumerates all 2^|gray| realizations and scans subsets, and is
kept deliberately independent of the injection search.

Two vertices are twins when every other vertex sees both in the same
color, and every search is pruned by the twin classes (isomorph
rejection, McKay, "Isomorph-free exhaustive generation", J. Algorithms
26 (1998)).  Lemma: let c and c' be twins of T that no placed image
uses.  Swapping c and c' is an automorphism of T that fixes every image
placed so far.  It is also an automorphism of a T' that differs from T
in one pair {u, v} when u and v are both placed (anchored): twins
outside {u, v} stay twins in T'.  So the subtree of the search under c'
is the swap image of the subtree under c, and holds an injection
exactly when that one does.  The unused members of a class pass every
check of a depth together or not at all, so the generic search takes
one candidate per class at each depth: once the lowest candidate v has
failed, v's whole class leaves that depth's candidates.  The P4 kernel
tries one middle pair per twin orbit of black-or-gray pairs, the
colex-least pair of each, in colex order.  First result unchanged: a
branch is pruned only after its class-mate's subtree has failed, and
twin swaps carry a P4 through one pair of an orbit to every other, so
the first colex middle pair with a P4 is the least pair of its orbit.
Every search therefore returns exactly the injection that the unpruned
search returns.
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
    _bits,
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


def _twin_masks(bg: list[int], wg: list[int]) -> list[int]:
    """twins[v]: the vertices of v's twin class, as a mask, from t's compatibility masks.

    Twinship is an equivalence relation, and all pairs inside a class
    have one color.  Twins u, v joined in color c have equal black, white
    and gray rows once each vertex's own bit is added to its row of color
    c, so one pass per color groups the vertices by those rows (read off
    bg and wg: a gray pair is in both).  Each vertex is keyed by one int,
    bg[v] << n | wg[v], with its own bit ORed into the bg half, the wg
    half or both.
    """
    n = len(bg)
    rows = [b << n | w for b, w in zip(bg, wg)]
    head = list(range(n))
    twins = [1 << v for v in head]
    for own in ((1 << n) | 1, 1 << n, 1):  # gray, black, white inside
        first: dict[int, int] = {}
        for v, row in enumerate(rows):
            u = first.setdefault(row | own << v, v)
            if u != v:
                head[v] = u
                twins[u] |= twins[v]
    return [twins[u] for u in head]


def twin_classes(bg: list[int], wg: list[int]) -> list[tuple[int, ...]]:
    """The twin classes of a trigraph given by its compatibility masks.

    Read off `_twin_masks`: classes are sorted, and listed by least vertex.
    """
    return [tuple(_bits(m)) for v, m in enumerate(_twin_masks(bg, wg)) if m & -m == 1 << v]


def _orbit_pairs(twins: list[int], rows: list[int]) -> Iterator[tuple[int, int, int, int]]:
    """(u, v, A, B) for each twin orbit of pairs with v in rows[u], in colex order of (u, v).

    twins are `_twin_masks`, and rows is symmetric and closed under twin
    swaps (bg, or the non-gray rows bg ^ wg).  The orbit of the pairs
    between two twin classes A and B is A x B, with least pair (min A,
    min B); that of the pairs inside a class A (then B is A) is every
    pair of A, with least pair its two least vertices.  So each class
    head v pairs with the earlier heads in rows[v], and the second vertex
    of a class with its head; (u, v) is that least pair, and A and B are
    the classes' masks.  Each head's row is read once.
    """
    heads: list[int] = []
    for v, mask in enumerate(twins):
        below = mask & ((1 << v) - 1)
        if not below:
            row = rows[v]
            for u in heads:
                if row >> u & 1:
                    yield u, v, twins[u], mask
            heads.append(v)
        elif not below & (below - 1) and rows[v] & below:
            yield below.bit_length() - 1, v, mask, mask


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


def _find_p4(bg: list[int], wg: list[int], twins: list[int]) -> Optional[tuple[int, int, int, int]]:
    """An injection realizing an induced 4-path (v1, v2, v3, v4), or None.

    Tries the middle pair (v2 < v3) over the black/gray pairs, one per
    twin orbit (`_orbit_pairs`, twins from `_twin_masks`); reversal
    symmetry makes one orientation per middle pair sufficient.  The ends
    are a v1 in bg[v2] & wg[v3] and a v4 in bg[v3] & wg[v2] with v4 in
    wg[v1], found by `_linked` from the smaller side.
    """
    for v2, v3, _, _ in _orbit_pairs(twins, bg):
        ends = _linked(wg, bg[v2] & wg[v3], bg[v3] & wg[v2])
        if ends is not None:
            return ends[0], v2, v3, ends[1]
    return None


def _find_p4_through(
    bg: list[int], wg: list[int], x: int, y: int, edge: bool
) -> Optional[tuple[int, int, int, int]]:
    """An induced-4-path injection (v1, v2, v3, v4) through {x, y} in one role, or None.

    With edge, {x, y} is the image of a path edge: the middle pair, then
    an end and its neighbor.  Without, it is the image of a nonedge: the
    two ends, then an end and the far middle vertex.  Each of these roles
    leaves two path vertices to find, a in a set A and b in a set B,
    joined by an edge (b in bg[a]) or a nonedge (b in wg[a]); `_linked`
    answers each from the smaller of A and B.  The sets come from rows x
    and y alone, and each is built once per call: near_x (joined to x,
    apart from y) and near_y serve all three roles, and the two
    orientations of the last two roles share one more, wg[x] & wg[y] for
    an edge and bg[x] & bg[y] for a nonedge.

    The kernel never tests the pair's own bit: it answers as if the pair
    were usable in that role, as it is once {x, y} is flipped gray, and
    gives that answer on T's masks too (the lemma in
    `_find_injection_through`).
    """
    bx, by, wx, wy = bg[x], bg[y], wg[x], wg[y]
    # near_x is joined to x and apart from y, near_y the reverse
    near_x, near_y = bx & wy, by & wx
    if edge:
        # {x, y} as the middle pair, v2 = x, v3 = y: the ends are apart
        found = _linked(wg, near_x, near_y)
        if found is not None:
            return found[0], x, y, found[1]
        # {x, y} as an end and its neighbor, v1 = p, v2 = q: v3 in near_q
        # joined to v4 in wg[p] & wg[q]
        apart = wx & wy
        found = _linked(bg, near_y, apart)
        if found is not None:
            return x, y, found[0], found[1]
        found = _linked(bg, near_x, apart)
        if found is not None:
            return y, x, found[0], found[1]
        return None
    # {x, y} as the two ends, v1 = x, v4 = y (reversal covers the swap):
    # the middle vertices come from the same two sets and are joined
    found = _linked(bg, near_x, near_y)
    if found is not None:
        return x, found[0], found[1], y
    # {x, y} as an end and the far middle, v1 = p, v3 = q: v2 in bg[p] & bg[q]
    # apart from v4 in near_q
    joined = bx & by
    found = _linked(wg, joined, near_y)
    if found is not None:
        return x, found[0], y, found[1]
    found = _linked(wg, joined, near_x)
    if found is not None:
        return y, found[0], x, found[1]
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
    bg: list[int],
    wg: list[int],
    twins: list[int],
    plan: tuple,
    anchors: tuple[int, ...] = (),
) -> Optional[tuple[int, ...]]:
    """Depth-first injection search for arbitrary patterns (k <= 8), or None.

    plan is one (order, checks) of a `_Plan`, and anchors fixes the images
    of its first depths unchecked: an anchored pair is taken to be usable
    in its plan's role, as it is once flipped gray.  The candidates at
    depth d are the vertices allowed by every check of checks[d].  Since
    neither bg[v] nor wg[v] contains v and every earlier depth is
    checked, the candidates exclude the images already used.  The stacks
    hold the image and the untried candidates of each depth; a candidate
    is taken as the lowest set bit, and once taken its whole twin class
    leaves that depth's untried candidates (the lemma in the module
    docstring).  Returns the images indexed by pattern vertex.
    """
    order, checks = plan
    k, n = len(order), len(bg)
    if k > n:
        return None
    images = list(anchors) + [0] * (k - len(anchors))  # by depth, not by pattern vertex
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
        v = (cand & -cand).bit_length() - 1
        cands[depth] = cand & ~twins[v]
        images[depth] = v
        depth += 1
    found = [0] * k
    for depth, v in enumerate(order):
        found[v] = images[depth]
    return tuple(found)


def _find_injection(
    bg: list[int], wg: list[int], twins: list[int], plan: _Plan
) -> Optional[tuple[int, ...]]:
    """Injection of a pattern into some realization of a trigraph, or None.

    Takes the search inputs of `_find_injection_through`, and searches
    with the pattern's unanchored plan (condition (a)).
    """
    if plan.p4 is not None:
        found = _find_p4(bg, wg, twins)
        return None if found is None else plan.p4(found)
    return _find_generic(bg, wg, twins, plan.whole)


def _find_injection_through(
    bg: list[int],
    wg: list[int],
    twins: list[int],
    plan: _Plan,
    x: int,
    y: int,
    edge: bool,
) -> Optional[tuple[int, ...]]:
    """Injection mapping a pattern edge (edge true) or nonedge onto {x, y}, or None.

    Every injection search takes the same inputs, all required and only
    read: bg and wg are a trigraph's `_compat_masks` (n is len(bg)),
    twins their `_twin_masks`, and plan the pattern's `_plan`.  A caller
    checking many flips builds each once.  Both kernels take {x, y} to
    be usable in its role, as it is once flipped gray, and the masks may
    be those of T with the pair still in its old color; no row is
    written.  Lemma: flipping {x, y} changes only bit y of row x and bit
    x of row y.  Every set the P4 kernel builds from those rows excludes
    x and y.  The generic search places x and y unchecked, and every
    later candidate set excludes them.  So each search gives the same
    answer on T's masks as on the flip's, and the masks are read-only for
    a whole flip scan, for every pattern.  The generic search anchors one
    ordered pattern pair per Aut(h)-orbit of that role's pairs, in the
    order of `anchor_pair_orbits`, and is pruned by twins: T's serve for
    the flip too, since x and y are anchored.  A P4 kernel's path needs
    four distinct vertices, so it finds none when n < 4, as
    `_find_generic` does for any pattern larger than n.
    """
    if plan.p4 is not None:
        found = _find_p4_through(bg, wg, x, y, edge)
        return None if found is None else plan.p4(found)
    for anchored in plan.through[edge]:
        found = _find_generic(bg, wg, twins, anchored, (x, y))
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
    bg, wg = _compat_masks(t)
    images = _find_injection(bg, wg, _twin_masks(bg, wg), _plan(h))
    if images is None:
        return None
    return _embedding_from(t, h, images)


def has_realization_of(t: Trigraph, h: PatternGraph) -> bool:
    """True iff some realization of t contains h as an induced subgraph."""
    return find_embedding(t, h) is not None
