"""Structural checks over exhaustively enumerated saturated trigraphs.

Each check encodes one proven property of induced-4-path-saturated
trigraphs as an executable test over a witness corpus, so the corpus
checks run for P4 alone:

  complement_closure   the complement of a witness is again saturated
                       (T is h-saturated iff its complement is
                       saturated for the complement of h)
  monochromatic_cut    an all-black or all-white cut splits a witness
                       into two saturated halves
  same_neighborhood    a gray-free cut with identical outside
                       neighborhoods makes the inside saturated
  gray_shapes          nontrivial gray components are triangles or stars
  partitions           outside vertices split cleanly around each star
                       (into X/Y/Z) or triangle (into X/Y)
  z_cut_colors         Z sees X all-black and Y all-white
  gray_edge_exists     witnesses on >= 2 vertices have a gray edge

The checks run on arbitrary trigraphs and report violations rather than
asserting, so they double as a diagnostic for non-saturated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .patterns import P4, PatternGraph, isomorphic
from .saturation import (
    GrayShape,
    classify_gray_components,
    is_indsat,
    partition_star,
    partition_triangle,
)
from .search import all_indsat_witnesses, canonical_form
from .trigraph import BLACK, GRAY, WHITE, Trigraph


def check_complement_closure(t: Trigraph, h: PatternGraph) -> list[str]:
    if not is_indsat(t.complement(), h.complement()).is_indsat:
        return ["complement is not saturated"]
    return []


def check_monochromatic_cuts(t: Trigraph, h: PatternGraph) -> list[str]:
    """Every all-black or all-white bipartition must split into saturated halves."""
    out = []
    n = t.n
    for bits in range(1, (1 << n) >> 1):  # fix vertex n-1 on side two
        side1 = [v for v in range(n) if bits >> v & 1]
        side2 = [v for v in range(n) if not bits >> v & 1]
        cut = set(t.cut_colors(side1, side2))
        if cut != {BLACK} and cut != {WHITE}:
            continue
        for side in (side1, side2):
            sub, _ = t.induced(side)
            if not is_indsat(sub, h).is_indsat:
                out.append(f"side {side} of monochromatic cut is not saturated")
    return out


def check_same_neighborhood(t: Trigraph, h: PatternGraph) -> list[str]:
    """Gray-free cuts with identical outside neighborhoods: inside is saturated."""
    out = []
    n = t.n
    for size in range(1, n + 1):
        for inside in combinations(range(n), size):
            outside = [v for v in range(n) if v not in inside]
            cut_ok = all(
                t.color(u, v) is not GRAY for u in inside for v in outside
            )
            if not cut_ok:
                continue
            same = all(
                t.color(inside[0], w) == t.color(u, w)
                for u in inside[1:]
                for w in outside
            )
            if not same:
                continue
            sub, _ = t.induced(inside)
            if not is_indsat(sub, h).is_indsat:
                out.append(f"same-neighborhood set {inside} is not saturated")
    return out


def check_gray_shapes(t: Trigraph) -> list[str]:
    return [
        f"gray component {c.vertices} has shape {c.shape.value}"
        for c in classify_gray_components(t)
        if c.shape is GrayShape.OTHER
    ]


def _star_partitions(t: Trigraph):
    """(component, outcome) for each nontrivial gray component of a witness."""
    for comp in classify_gray_components(t):
        if comp.shape is GrayShape.STAR:
            leaves = [v for v in comp.vertices if v != comp.center]
            yield comp, partition_star(t, comp.center, leaves)
        elif comp.shape is GrayShape.TRIANGLE:
            yield comp, partition_triangle(t, comp.vertices)


def check_partitions(t: Trigraph) -> list[str]:
    out = []
    for comp, outcome in _star_partitions(t):
        if not outcome.ok:
            out.append(
                f"component {comp.vertices}: vertex {outcome.counterexample} fits no class"
            )
    return out


def check_z_cut_colors(t: Trigraph) -> list[str]:
    """Z must see X all-black and Y all-white around every star component."""
    out = []
    for comp, outcome in _star_partitions(t):
        if not outcome.ok or comp.shape is not GrayShape.STAR:
            continue
        for z in outcome.z:
            for x in outcome.x:
                if t.color(z, x) is not BLACK:
                    out.append(f"pair ({z}, {x}) across Z-X is {t.color(z, x).value}")
            for y in outcome.y:
                if t.color(z, y) is not WHITE:
                    out.append(f"pair ({z}, {y}) across Z-Y is {t.color(z, y).value}")
    return out


def check_gray_edge_exists(t: Trigraph) -> list[str]:
    if t.n >= 2 and t.gray_count == 0:
        return ["no gray edge"]
    return []


CHECKS = {
    "complement_closure": lambda t, h: check_complement_closure(t, h),
    "monochromatic_cut": lambda t, h: check_monochromatic_cuts(t, h),
    "same_neighborhood": lambda t, h: check_same_neighborhood(t, h),
    "gray_shapes": lambda t, h: check_gray_shapes(t),
    "partitions": lambda t, h: check_partitions(t),
    "z_cut_colors": lambda t, h: check_z_cut_colors(t),
    "gray_edge_exists": lambda t, h: check_gray_edge_exists(t),
}


@dataclass
class FactsReport:
    n: int
    witnesses: int
    violations: dict[str, list[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(not v for v in self.violations.values())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "witnesses": self.witnesses,
            "ok": self.ok,
            "checks": {
                name: {"violations": len(v), "details": v[:10]}
                for name, v in self.violations.items()
            },
        }


def run_fact_checks(n: int, h: PatternGraph = P4) -> FactsReport:
    """Run every check over all saturated trigraphs on n vertices.

    Every check but complement closure is a lemma about P4, so any other
    pattern is a ValueError.
    """
    if not isomorphic(h, P4):
        raise ValueError("facts checks lemmas about P4; the pattern is not a 4-vertex path")
    witnesses = all_indsat_witnesses(n, h)
    forms = {w for w in witnesses}
    report = FactsReport(n, len(witnesses), {name: [] for name in CHECKS})
    for w in witnesses:
        t = w.to_trigraph()
        for name, check in CHECKS.items():
            for detail in check(t, h):
                report.violations[name].append(f"witness {w}: {detail}")
        # closure of the witness *set* under complement, on top of the
        # per-trigraph complement check
        if canonical_form(t.complement()) not in forms:
            report.violations["complement_closure"].append(
                f"witness {w}: complement's canonical form missing from the witness set"
            )
    return report
