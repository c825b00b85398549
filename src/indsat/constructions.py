"""Extremal trigraph constructions and reference saturation formulas.

The main construction is a layered trigraph on n >= 4 vertices with
exactly ceil((n+1)/3) gray pairs and no realization containing an
induced 4-path, yet every flip of a non-gray pair creates one.  Vertices
come in roles a_i, b_i (a gray pair per layer) and c_i (a black spine
meeting layer j black when i <= j and white when i > j); the residue of
n mod 3 decides which extra roles exist.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb

from .trigraph import Trigraph, complete_gray, from_pairs

VARIANTS = ("paper", "alt")


@dataclass
class ConstructionSpec:
    """Role labels (a1, b1, c1, ..., c0, a0, b0) mapped to vertex indices."""

    n: int
    variant: str
    labeling: dict[str, int]


def _roles(n: int) -> tuple[int, list[str]]:
    r = n % 3
    if r == 2:
        k, extras = (n - 2) // 3, []
    elif r == 0:
        k, extras = (n - 3) // 3, ["c0"]
    else:
        k, extras = (n - 4) // 3, ["a0", "b0"]
    roles: list[str] = []
    for i in range(1, k + 1):
        roles += [f"a{i}", f"b{i}", f"c{i}"]
    roles += [f"a{k + 1}", f"b{k + 1}"]
    roles += extras
    return k, roles


def construct_tn(n: int) -> tuple[Trigraph, ConstructionSpec]:
    """The layered construction on n >= 4 vertices; gray count ceil((n+1)/3)."""
    if n < 4:
        raise ValueError("the layered construction needs at least 4 vertices")
    k, roles = _roles(n)
    labeling = {role: idx for idx, role in enumerate(roles)}

    a_subs = sorted(int(r[1:]) for r in roles if r.startswith("a"))
    c_subs = sorted(int(r[1:]) for r in roles if r.startswith("c"))

    black: list[tuple[int, int]] = []
    gray: list[tuple[int, int]] = []

    for i in a_subs:
        gray.append((labeling[f"a{i}"], labeling[f"b{i}"]))
    if n % 3 == 0:
        gray.append((labeling["c0"], labeling["c1"]))

    for i in c_subs:
        for j in c_subs:
            if i < j and {i, j} != {0, 1}:
                black.append((labeling[f"c{i}"], labeling[f"c{j}"]))
    for i in c_subs:
        for j in a_subs:
            if i <= j:
                black.append((labeling[f"c{i}"], labeling[f"a{j}"]))
                black.append((labeling[f"c{i}"], labeling[f"b{j}"]))
    # all remaining pairs (a/b across layers, and c-to-higher-layer) stay white

    t = from_pairs(n, black=black, gray=gray)
    return t, ConstructionSpec(n, "paper", labeling)


def construct_alternative(n: int) -> Trigraph:
    """A second extremal family for n divisible by 3.

    A gray 2-star {u, v1, v2} with black v1 v2, all-black edges from a
    recursively built minimal saturated trigraph Z on n-4 vertices to
    {v1, v2}, one extra vertex joined all-white, and white everywhere
    else.  The gray count is again ceil((n+1)/3).

    Z is the complement of the layered construction.  The uncomplemented
    layered trigraph does not work here: its spine vertex is black to
    every other Z vertex once n-4 >= 5, and flipping the pair (spine,
    star center) then creates no induced 4-path, because every witness
    shape needs a white-or-gray partner of the flipped Z vertex inside
    Z.  The complement restores that partner for every vertex while
    keeping the gray count and the saturation property.
    """
    if n % 3 != 0 or n < 6:
        raise ValueError("the alternative construction needs n divisible by 3, n >= 6")
    nz = n - 4
    z = complete_gray(2) if nz == 2 else construct_tn(nz)[0].complement()
    u, v1, v2 = nz, nz + 1, nz + 2  # plus the all-white vertex n-1
    black = [(v1, v2)] + [(w, v) for w in range(nz) for v in (v1, v2)]
    star = from_pairs(n, black=black, gray=[(u, v1), (u, v2)])
    # Z sits on 0..nz-1, whose colex pair indices do not depend on n
    return Trigraph(n, z.black | star.black, z.gray | star.gray)


# -- closed-form saturation values -------------------------------------


@dataclass(frozen=True)
class Family:
    """A one-parameter pattern family for the formula tables."""

    kind: str  # "path" | "clique" | "cycle4" | "clique_minus_edge"
    h: int

    @property
    def vertices(self) -> int:
        return 4 if self.kind == "cycle4" else self.h


_FAMILY_RE = re.compile(r"^(p|k)(\d+)$|^(ph|kh):(\d+)$|^khminus:(\d+)$|^c4$")


def parse_family(name: str) -> Family:
    """Family ids: p3, p4, p5, ph:<h>, k3, kh:<h>, c4, khminus:<h>, with h >= 3."""
    s = name.strip().lower()
    m = _FAMILY_RE.match(s)
    if not m:
        raise ValueError(f"unknown family id {name!r}")
    if s == "c4":
        return Family("cycle4", 4)
    if m.group(5):
        family = Family("clique_minus_edge", int(m.group(5)))
    elif m.group(3):
        family = Family("path" if m.group(3) == "ph" else "clique", int(m.group(4)))
    else:
        family = Family("path" if m.group(1) == "p" else "clique", int(m.group(2)))
    if family.h < 3:
        raise ValueError(f"family id {name!r} needs at least 3 vertices, got {family.h}")
    return family


def sat_formula(family: Family, n: int) -> int | None:
    """Minimum edge count of an n-vertex saturated graph, where a closed
    form is known; None where only bounds are known (clique minus an edge,
    and long paths below their threshold).

    Each branch, with its source and the range it is proved for:

    - P3, floor(n/2) for n >= 3; P4, n/2 for even n and (n + 3)/2 for odd
      n, for n >= 4; P5, n - floor((n + 4)/6) for n >= 5: Kaszonyi and
      Tuza, "Saturated graphs with minimal number of edges", J. Graph
      Theory 10 (1986).
    - P_h for h >= 6, n - floor(n / a_h) for n >= a_h, with
      a_h = 3 * 2^(j-1) - 1 if h = 2j and a_h = 2^(j+1) - 2 if h = 2j + 1
      (the same paper); below a_h the value is None (P6 at n=8 has sat
      7, the formula 8).
    - K_h, (h - 2)n - C(h - 1, 2) for n >= h: Erdos, Hajnal and Moon, "A
      problem in graph theory", Amer. Math. Monthly 71 (1964).
    - C4, Ollmann's floor((3n - 5)/2) for n >= 5 (L. T. Ollmann,
      "K_{2,2}-saturated graphs with a minimal number of edges", Proc. 3rd
      Southeastern Conference on Combinatorics, Graph Theory and
      Computing, 1972).
    - K_h minus an edge: None, only the floor(n/2) lower bound is known.

    The tests also check every value-returning branch for P3, P4, P5, K3,
    K4 and C4 against an exhaustive search up to n=8 (K4 to n=7).
    """
    kind, h = family.kind, family.h
    if kind == "path":
        if h < 3:
            raise ValueError("path formulas start at 3 vertices")
        if n < h:
            raise ValueError(f"need n >= {h} for a {h}-vertex path")
        if h == 3:
            return n // 2
        if h == 4:
            return n // 2 if n % 2 == 0 else (n + 3) // 2
        if h == 5:
            return n - ((n - 2) // 6 + 1)
        half = h // 2
        a_h = 3 * 2 ** (half - 1) - 1 if h % 2 == 0 else 2 ** (half + 1) - 2
        return n - n // a_h if n >= a_h else None
    if kind == "clique":
        if h < 3:
            raise ValueError("clique formulas start at 3 vertices")
        if n < h:
            raise ValueError(f"need n >= {h} for a {h}-clique")
        return (h - 2) * n - comb(h - 1, 2)
    if kind == "cycle4":
        if n < 5:
            raise ValueError("the 4-cycle formula needs n >= 5")
        return (3 * n - 5) // 2
    if kind == "clique_minus_edge":
        if h < 3:
            raise ValueError("clique-minus-an-edge needs at least 3 vertices")
        if n < h:
            raise ValueError(f"need n >= {h}")
        return None  # only the floor(n/2) lower bound is known
    raise ValueError(f"unknown family kind {kind!r}")


def isat_formula(family: Family, n: int) -> int:
    """Exact induced-saturation values for the families where they are known."""
    kind, h = family.kind, family.h
    if kind == "path" and h == 3:
        if n < 3:
            raise ValueError("need n >= 3")
        return 0
    if kind == "path" and h == 4:
        if n < 4:
            raise ValueError("need n >= 4")
        return (n + 3) // 3  # == ceil((n+1)/3)
    if kind == "clique":
        if h < 3 or n < h:
            raise ValueError(f"need n >= h >= 3, got n={n}, h={h}")
        return (h - 2) * n - comb(h - 1, 2)
    if kind == "clique_minus_edge":
        if h < 3 or n < h:
            raise ValueError(f"need n >= h >= 3, got n={n}, h={h}")
        return 0
    raise ValueError(f"no exact induced-saturation value known for {family}")
