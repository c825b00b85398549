"""The induced-saturation predicate and structure of gray components.

A trigraph T is induced-H-saturated when (a) no realization of T
contains H as an induced subgraph, and (b) recoloring any single black
or white pair gray produces a trigraph some realization of which does.
The check short-circuits: (a) first, then flips in colex order with an
early exit on the first failing flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from . import detect
from .detect import (
    Embedding,
    _embedding_from,
    _find_injection,
    _find_injection_through,
)
from .patterns import PatternGraph
from .trigraph import BLACK, GRAY, WHITE, EdgeColor, Trigraph, _bits, index_pair, pair_count


@dataclass
class SaturationReport:
    """Outcome of the two saturation conditions.

    holds_free is condition (a); failing_flip is the first non-gray pair
    (colex order) whose flip creates no induced copy, or None.  When
    condition (a) already fails the flip scan is skipped: every flip of
    a trigraph with a realization still has one, so no failing flip can
    exist.
    """

    holds_free: bool
    failing_flip: Optional[tuple[int, int]]
    witness_flips: Optional[dict[tuple[int, int], Embedding]] = field(default=None)

    @property
    def is_indsat(self) -> bool:
        return self.holds_free and self.failing_flip is None

    def to_dict(self) -> dict:
        return {
            "is_indsat": self.is_indsat,
            "holds_free": self.holds_free,
            "failing_flip": list(self.failing_flip) if self.failing_flip else None,
        }


def flips_all_create(
    t: Trigraph, h: PatternGraph, collect: bool = False
) -> tuple[Optional[tuple[int, int]], Optional[dict[tuple[int, int], Embedding]]]:
    """Condition (b): every non-gray pair, once flipped, admits an induced h.

    Assumes condition (a) holds for t, which makes it sound to search
    only injections through the flipped pair: any witness avoiding it
    would already be a witness in t.  The compatibility masks are built
    and the pattern's plan fetched once; each flip sets the pair's two
    symmetric bits (in wg for a black pair, in bg for a white one),
    searches, and clears them again.
    Returns (first failing pair or None, witness map if collect).
    """
    witnesses: Optional[dict[tuple[int, int], Embedding]] = {} if collect else None
    # looked up on the module so that one patch point sees every mask build
    # and every plan fetch
    bg, wg = detect._compat_masks(t)
    plan = detect._plan(h)
    nongray = ((1 << pair_count(t.n)) - 1) & ~t.gray
    for i in _bits(nongray):
        u, v = index_pair(i)
        # the bit is clear before the flip, so xor sets it and then clears it
        side = wg if t.black >> i & 1 else bg
        side[u] ^= 1 << v
        side[v] ^= 1 << u
        images = _find_injection_through(bg, wg, t.n, plan, u, v)
        side[u] ^= 1 << v
        side[v] ^= 1 << u
        if images is None:
            return (u, v), witnesses
        if collect:
            witnesses[(u, v)] = _embedding_from(t.flip(u, v), h, images)
    return None, witnesses


def is_indsat(t: Trigraph, h: PatternGraph, want_witnesses: bool = False) -> SaturationReport:
    """Decide induced-h-saturation of t, reporting the first failure found."""
    if _find_injection(t, h) is not None:
        return SaturationReport(holds_free=False, failing_flip=None)
    failing, witnesses = flips_all_create(t, h, collect=want_witnesses)
    return SaturationReport(holds_free=True, failing_flip=failing, witness_flips=witnesses)


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
