"""The induced-saturation predicate and structure of gray components.

A trigraph T is induced-H-saturated when (a) no realization of T
contains H as an induced subgraph, and (b) recoloring any single black
or white pair gray produces a trigraph some realization of which does.
The check short-circuits: (a) first, then (b) one flip orbit at a time,
with an early exit on the first orbit whose flip fails.

Two vertices are twins when every other vertex sees both in the same
color.  Swapping two twins is an automorphism of T, so the flips of all
pairs in one orbit of the group generated by such swaps have the same
answer, and (b) searches one representative pair per orbit: the
colex-least pair, taken in colex order, so that the first failing
representative is also the first failing pair.  This is cheap isomorph
rejection (McKay, "Isomorph-free exhaustive generation", J. Algorithms
26 (1998)); the paper's constructions are built from twins, and it
leaves 861 of the 1,994 flips of `construct_tn(64)` to search.

The twin classes are found once per check, from the compatibility
masks, and they also prune every injection search of the check,
condition (a)'s and each flip's.  Lemma: if c and c' are twins of T that
no placed image uses, swapping them is an automorphism of T that fixes
every placed image; it is one of the flipped T' too once both ends of
the flipped pair are placed, as they are from the first two depths of a
flip's search, since twins outside that pair stay twins.  So the
subtree under c' mirrors the one under c, and each depth tries one
vertex per class (and condition (a)'s P4 kernel one middle pair per
twin orbit; see `detect`).  First result unchanged: a branch is pruned
only after its class-mate's subtree has failed, so every search returns
the injection an unpruned search returns, and the report, the failing
flip and every witness are those of the unpruned check.

Each flip is searched only in its new role.  Lemma: if T satisfies (a)
and T' is T with a non-gray pair p recolored gray, every injection of
H into T' through p maps a pattern nonedge onto p when p was black, and
a pattern edge onto p when p was white.  Proof: T' differs from T only
in that p is now also white-or-gray (p black) or also black-or-gray (p
white).  An injection that maps a pattern edge onto a black p, or a
nonedge onto a white p, uses p as T already colors it and every other
pair unchanged, so it is an injection into T, which (a) rules out.

Every injection search of the check, condition (a)'s and each flip's,
takes the same inputs, all built once per check and only read: T's
compatibility masks (bg, wg), their twin classes and the pattern's plan
(see `detect._find_injection_through`).  The flip loop never edits the
masks: each flip is searched on T's as they are.  The flip changes only
the two bits of p in its new role's mask, and neither search answers
differently for them (the lemma in `detect._find_injection_through`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, product
from typing import Iterable, Optional

from . import detect
from .detect import (
    Embedding,
    _embedding_from,
    _find_injection,
    _find_injection_through,
    _orbit_pairs,
    twin_classes,  # noqa: F401  re-exported: the twin classes' public name
)
from .patterns import PatternGraph
from .trigraph import BLACK, GRAY, WHITE, EdgeColor, Trigraph, _bits, pair_count, pair_index


@dataclass
class SaturationReport:
    """Outcome of the two saturation conditions.

    holds_free is condition (a); failing_flip is the first non-gray pair
    (colex order) whose flip creates no induced copy, or None.  When
    condition (a) already fails the flip scan is skipped: every flip of
    a trigraph with a realization still has one, so no failing flip can
    exist.  flips_searched counts the flip-orbit representatives searched
    and flip_pairs the non-gray pairs of their orbits; both are 0 when
    the scan is skipped.
    """

    holds_free: bool
    failing_flip: Optional[tuple[int, int]]
    witness_flips: Optional[dict[tuple[int, int], Embedding]] = field(default=None)
    flips_searched: int = 0
    flip_pairs: int = 0

    @property
    def is_indsat(self) -> bool:
        return self.holds_free and self.failing_flip is None

    def to_dict(self) -> dict:
        return {
            "is_indsat": self.is_indsat,
            "holds_free": self.holds_free,
            "failing_flip": list(self.failing_flip) if self.failing_flip else None,
            "flips_searched": self.flips_searched,
            "flip_pairs": self.flip_pairs,
        }


def _swap(x: int, p: int, q: int) -> int:
    return q if x == p else p if x == q else x


def flips_all_create(
    t: Trigraph,
    h: PatternGraph,
    masks: tuple[list[int], list[int]],
    twins: list[int],
    collect: bool = False,
) -> SaturationReport:
    """Condition (b): every non-gray pair, once flipped, admits an induced h.

    Assumes condition (a) holds for t, which makes it sound to search
    only injections through the flipped pair, and only with the pair in
    its new role: any witness avoiding the pair, or mapping a pattern
    edge onto a black pair or a nonedge onto a white one, would already
    be a witness in t (the lemma in the module docstring).  So a black
    pair is searched as a pattern nonedge and a white pair as an edge.
    masks is t's (bg, wg) pair from `detect._compat_masks` and twins its
    `detect._twin_masks`, both built by the caller; the pattern's plan is
    fetched once.  The flip orbits are the twin orbits of the non-gray
    pairs (`detect._orbit_pairs` over the rows bg ^ wg), each given by its
    colex-least pair (u, v) and its two classes' masks A and B, in colex
    order of (u, v), and generated one at a time.  Only (u, v) is
    searched, with `_find_injection_through`'s inputs (see its
    docstring).  With collect, the images found for a representative
    (u, v) are carried to each pair (x, y) of its orbit by the twin swaps
    (u x), then (v' y) with v' the image of v under the first swap;
    together they send u to x and v to y.
    Returns the check's report, with holds_free set: the first failing
    pair or None, the scan's counts and, if collect, one witness per
    non-gray pair before the failing pair.
    """
    found: dict[tuple[int, int], Embedding] = {}
    searched = pairs = 0
    # looked up on the module so that one patch point sees every plan fetch
    bg, wg = masks
    plan = detect._plan(h)
    failing = None
    nongray = [black_or_gray ^ white_or_gray for black_or_gray, white_or_gray in zip(bg, wg)]
    for u, v, a, b in _orbit_pairs(twins, nongray):
        # a black pair is searched as a pattern nonedge, a white one as an edge
        images = _find_injection_through(bg, wg, twins, plan, u, v, not bg[u] >> v & 1)
        searched += 1
        size = a.bit_count()
        pairs += size * (size - 1) // 2 if a == b else size * b.bit_count()
        if images is None:
            failing = (u, v)
            break
        if collect:
            for x, y in combinations(_bits(a), 2) if a == b else product(_bits(a), _bits(b)):
                mid = _swap(v, u, x)
                moved = tuple(_swap(_swap(w, u, x), mid, y) for w in images)
                pair = (x, y) if x < y else (y, x)
                found[pair] = _embedding_from(t.flip(*pair), h, moved)
    witnesses = None
    if collect:
        end = pair_count(t.n) if failing is None else pair_index(*failing)
        colex = sorted((pair_index(*p), p) for p in found)
        witnesses = {p: found[p] for i, p in colex if i < end}
    return SaturationReport(True, failing, witnesses, searched, pairs)


def is_indsat(t: Trigraph, h: PatternGraph, want_witnesses: bool = False) -> SaturationReport:
    """Decide induced-h-saturation of t, reporting the first failure found.

    The compatibility masks and the twin classes are built once, looked
    up on `detect` so that one patch point sees each build, and serve
    both conditions.
    """
    masks = detect._compat_masks(t)
    twins = detect._twin_masks(*masks)
    if _find_injection(*masks, twins, detect._plan(h)) is not None:
        return SaturationReport(holds_free=False, failing_flip=None)
    return flips_all_create(t, h, masks, twins, collect=want_witnesses)


# -- gray component structure ------------------------------------------


class GrayShape(Enum):
    TRIANGLE = "K3"
    STAR = "Star"
    TRIVIAL = "Trivial"
    OTHER = "Other"


@dataclass(frozen=True)
class GrayComponent:
    vertices: tuple[int, ...]
    shape: GrayShape
    center: Optional[int] = None

    @property
    def size(self) -> int:
        return len(self.vertices)


def classify_gray_components(t: Trigraph) -> list[GrayComponent]:
    """Shape of each gray component: triangle, star (with center), trivial, other."""
    out = []
    for comp in t.components({GRAY}):
        verts = tuple(sorted(comp))
        if len(verts) == 1:
            out.append(GrayComponent(verts, GrayShape.TRIVIAL))
            continue
        edges = [
            (a, b)
            for i, b in enumerate(verts)
            for a in verts[:i]
            if t.color(a, b) is GRAY
        ]
        degree = {v: 0 for v in verts}
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        if len(verts) == 3 and len(edges) == 3:
            out.append(GrayComponent(verts, GrayShape.TRIANGLE))
        elif len(edges) == len(verts) - 1 and max(degree.values()) == len(verts) - 1:
            center = min(v for v in verts if degree[v] == len(verts) - 1)
            out.append(GrayComponent(verts, GrayShape.STAR, center))
        else:
            out.append(GrayComponent(verts, GrayShape.OTHER))
    return out


@dataclass(frozen=True)
class PartitionOutcome:
    """Partition of the vertices outside a gray component, or a counterexample.

    ok=False carries the first vertex whose edges toward the component
    do not fit the admissible patterns; such a vertex can only exist on
    trigraphs that are not induced-4-path-saturated.
    """

    ok: bool
    x: frozenset[int] = frozenset()
    y: frozenset[int] = frozenset()
    z: frozenset[int] = frozenset()
    counterexample: Optional[int] = None


def _require_gray_component(t: Trigraph, verts: frozenset[int]) -> None:
    for comp in t.components({GRAY}):
        if verts == comp:
            return
    raise ValueError("vertex set is not a gray component of the trigraph")


def partition_star(t: Trigraph, center: int, leaves: Iterable[int]) -> PartitionOutcome:
    """Split outside vertices by their behavior toward a gray star component.

    X sees the whole star black, Y sees it white, Z mixes — one color to
    the center and the opposite, uniformly, to the leaves.  All Z
    vertices must mix the same way, and with two or more leaves the
    leaf-leaf pairs must be monochromatic and, when Z is nonempty, match
    the color Z shows the leaves.
    """
    leaf_set = frozenset(leaves)
    if not leaf_set or center in leaf_set:
        raise ValueError("a star needs a center and at least one distinct leaf")
    star = leaf_set | {center}
    for v in leaf_set:
        if t.color(center, v) is not GRAY:
            raise ValueError(f"pair ({center}, {v}) is not gray, so this is not a gray star")
    leaf_list = sorted(leaf_set)
    for i, b in enumerate(leaf_list):
        for a in leaf_list[:i]:
            if t.color(a, b) is GRAY:
                raise ValueError("gray pair between leaves: not a star")
    _require_gray_component(t, star)

    x: set[int] = set()
    y: set[int] = set()
    z: set[int] = set()
    z_pattern: Optional[tuple[EdgeColor, EdgeColor]] = None
    for w in range(t.n):
        if w in star:
            continue
        leaf_colors = {t.color(w, v) for v in leaf_list}
        if len(leaf_colors) != 1:
            return PartitionOutcome(False, counterexample=w)
        lc = next(iter(leaf_colors))
        cc = t.color(w, center)
        if cc is BLACK and lc is BLACK:
            x.add(w)
        elif cc is WHITE and lc is WHITE:
            y.add(w)
        else:
            if z_pattern is None:
                z_pattern = (cc, lc)
            elif z_pattern != (cc, lc):
                return PartitionOutcome(False, counterexample=w)
            z.add(w)

    if len(leaf_list) >= 2:
        leaf_pair_colors = {
            t.color(a, b) for i, b in enumerate(leaf_list) for a in leaf_list[:i]
        }
        if len(leaf_pair_colors) != 1:
            return PartitionOutcome(False, counterexample=leaf_list[0])
        if z_pattern is not None and next(iter(leaf_pair_colors)) is not z_pattern[1]:
            return PartitionOutcome(False, counterexample=min(z))

    return PartitionOutcome(True, frozenset(x), frozenset(y), frozenset(z))


def partition_triangle(t: Trigraph, triangle: Iterable[int]) -> PartitionOutcome:
    """Split outside vertices into all-black / all-white toward a gray triangle."""
    tri = frozenset(triangle)
    if len(tri) != 3:
        raise ValueError("a triangle has exactly three vertices")
    tri_list = sorted(tri)
    for i, b in enumerate(tri_list):
        for a in tri_list[:i]:
            if t.color(a, b) is not GRAY:
                raise ValueError(f"pair ({a}, {b}) is not gray, so this is not a gray triangle")
    _require_gray_component(t, tri)

    x: set[int] = set()
    y: set[int] = set()
    for w in range(t.n):
        if w in tri:
            continue
        colors = {t.color(w, v) for v in tri_list}
        if colors == {BLACK}:
            x.add(w)
        elif colors == {WHITE}:
            y.add(w)
        else:
            return PartitionOutcome(False, counterexample=w)
    return PartitionOutcome(True, frozenset(x), frozenset(y))
