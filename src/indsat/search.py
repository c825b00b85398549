"""Exact minimum-gray computation by exhaustive, symmetry-reduced search.

A trigraph is induced-h-saturated exactly when its partial assignment of
the placement formula ``encode_pattern(n, h)`` is saturated (black =
true, white = false, gray = free), so ``isat_min`` runs the DNF kernel
``dnf._saturated_true_masks``, which decides every black/white coloring
of one gray set at once.  A screen keeps the colorings that realize no
placement.  A coverage pass then keeps those in which every non-gray
pair is the only wrongly colored pair of some placement.  It works in
2-D numpy blocks, one group of placements at a time, grouped by their
highest non-gray pair and taken in descending order, and drops a
coloring as soon as one of its pairs can no longer be covered.  Each
coloring is decided on its own.  Gray counts are taken in ascending
order, and at each count the kernel runs on one gray set per
isomorphism class of graphs with that many edges.  The classes are grown
by augmentation: add each free pair to every representative of the
previous level and keep the canonical image.  Relabelling maps saturated
trigraphs to saturated ones, so every witness class has a member whose
gray set is its class representative; only the rows the kernel returns
take a canonical form.  The first gray count with a witness is therefore
the exact minimum.

``enumerate_indsat`` (n <= 5) keeps an independent route for the
cross-check: every labelled gray set, a vectorized no-realization screen
over its colorings, canonical dedup of the survivors and the injection
search of ``flips_all_create`` on each class representative.

A deliberately simple sweep over all 3^C(n,2) trigraphs, with no
symmetry reduction or filtering, is kept as the agreement oracle.

numpy is imported inside the functions that use it, so ``import indsat``
and the saturation check do not load it; the first search or canonical
form does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from typing import TYPE_CHECKING

from .dnf import DnfFormula, _saturated_true_masks
from .errors import ResourceLimitError
from .patterns import PatternGraph, induced_placements
from .saturation import flips_all_create, is_indsat
from .trigraph import Trigraph, _bits, all_pairs, pair_count

if TYPE_CHECKING:
    import numpy as np

CANONICAL_MAX_VERTICES = 8
NAIVE_MAX_VERTICES = 5
ENUMERATE_MAX_VERTICES = 5
SEARCH_MAX_VERTICES = 7


@dataclass(frozen=True, order=True, slots=True)
class CanonicalForm:
    """Lexicographically minimal (gray mask, black mask) over all relabelings."""

    n: int
    gray: int
    black: int

    def to_trigraph(self) -> Trigraph:
        return Trigraph(self.n, self.black, self.gray)


@lru_cache(maxsize=None)
def _perm_pair_table(n: int) -> np.ndarray:
    """Row r maps each colex pair index to its image under permutation r."""
    import numpy as np

    perms = np.array(list(permutations(range(n))), dtype=np.int64).reshape(factorial(n), n)
    pairs = np.array(list(all_pairs(n)), dtype=np.int64).reshape(-1, 2)
    a, b = perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return hi * (hi - 1) // 2 + lo


def canonical_key(t: Trigraph) -> int:
    """Minimal (gray << m) | black over all vertex permutations."""
    import numpy as np

    n = t.n
    if n > CANONICAL_MAX_VERTICES:
        raise ResourceLimitError(
            f"canonical form uses full permutation search, capped at n={CANONICAL_MAX_VERTICES}"
        )
    m = pair_count(n)
    if m == 0:
        return 0
    table = _perm_pair_table(n)
    rows = table.shape[0]
    gray_arr = np.zeros(rows, dtype=np.int64)
    black_arr = np.zeros(rows, dtype=np.int64)
    one = np.int64(1)
    for i in _bits(t.gray):
        gray_arr |= one << table[:, i]
    for i in _bits(t.black):
        black_arr |= one << table[:, i]
    keys = (gray_arr << np.int64(m)) | black_arr
    return int(keys.min())


def canonical_form(t: Trigraph) -> CanonicalForm:
    key = canonical_key(t)
    m = pair_count(t.n)
    return CanonicalForm(t.n, key >> m, key & ((1 << m) - 1))


@dataclass
class SearchResult:
    """Outcome of a minimum-gray search."""

    n: int
    pattern: str
    min_gray: int | None
    witnesses: list[CanonicalForm]
    k_max: int
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern,
            "min_gray": self.min_gray,
            "searched_up_to_k": self.k_max,
            "witness_count": len(self.witnesses),
            "witnesses": [
                {"n": w.n, "gray_mask": w.gray, "black_mask": w.black} for w in self.witnesses
            ],
            "stats": self.stats,
        }


def _keys_to_forms(n: int, keys: set[int]) -> list[CanonicalForm]:
    m = pair_count(n)
    return sorted(CanonicalForm(n, key >> m, key & ((1 << m) - 1)) for key in keys)


# -- the search: the DNF kernel over gray-graph classes -----------------


def _augment(n: int, reps: list[int]) -> list[int]:
    """One gray set per isomorphism class of graphs with one edge more than reps."""
    m = pair_count(n)
    out: set[int] = set()
    for gray in reps:
        for i in range(m):
            if not gray >> i & 1:
                out.add(canonical_key(Trigraph(n, 0, gray | 1 << i)) >> m)
    return sorted(out)


def isat_min(
    n: int,
    h: PatternGraph,
    k_max: int | None = None,
    label: str | None = None,
) -> SearchResult:
    """Least gray count of an induced-h-saturated trigraph on n vertices.

    Scans gray-set sizes 0..k_max; returns min_gray=None if no witness
    exists up to k_max (flagged, not an error).  ``stats["levels"]`` has
    one entry per gray count k searched: the gray-set classes run through
    the kernel, the saturated rows it returned, their distinct witness
    classes and the level's seconds.
    """
    if not 2 <= n <= SEARCH_MAX_VERTICES:
        raise ResourceLimitError(f"search supports 2 <= n <= {SEARCH_MAX_VERTICES}, got {n}")
    m = pair_count(n)
    if k_max is None:
        k_max = m
    if not 0 <= k_max <= m:
        raise ValueError(f"k_max must be within 0..{m}")
    formula = DnfFormula(m, induced_placements(n, h))
    start = time.perf_counter()
    min_gray, keys = None, set()
    reps = [0]
    levels = []
    for k in range(k_max + 1):
        level_start = time.perf_counter()
        if k:
            reps = _augment(n, reps)
        rows = [
            (gray, black)
            for gray in reps
            for black in _saturated_true_masks(formula, gray).tolist()
        ]
        keys = {canonical_key(Trigraph(n, black, gray)) for gray, black in rows}
        levels.append(
            {
                "k": k,
                "gray_classes": len(reps),
                "saturated_rows": len(rows),
                "witness_classes": len(keys),
                "seconds": time.perf_counter() - level_start,
            }
        )
        if keys:
            min_gray = k
            break
    witnesses = _keys_to_forms(n, keys)
    return SearchResult(
        n,
        label or f"pattern(k={h.k})",
        min_gray,
        witnesses,
        k_max,
        {
            "gray_classes": sum(level["gray_classes"] for level in levels),
            "indsat_found": len(witnesses),
            "wall_time_s": time.perf_counter() - start,
            "levels": levels,
        },
    )


def isat_min_naive(n: int, h: PatternGraph, label: str | None = None) -> SearchResult:
    """Agreement oracle: scan all 3^C(n,2) trigraphs, no pruning of any kind."""
    if not 2 <= n <= NAIVE_MAX_VERTICES:
        raise ResourceLimitError(
            f"the naive sweep is only feasible for 2 <= n <= {NAIVE_MAX_VERTICES}"
        )
    m = pair_count(n)
    start = time.perf_counter()
    hits: list[Trigraph] = []
    for code in range(3**m):
        black = gray = 0
        c = code
        for i in range(m):
            c, digit = divmod(c, 3)
            if digit == 1:
                black |= 1 << i
            elif digit == 2:
                gray |= 1 << i
        t = Trigraph(n, black, gray)
        if is_indsat(t, h).is_indsat:
            hits.append(t)
    min_gray = min((t.gray_count for t in hits), default=None)
    witnesses = sorted({canonical_form(t) for t in hits if t.gray_count == min_gray})
    return SearchResult(
        n,
        label or f"pattern(k={h.k})",
        min_gray,
        witnesses,
        m,
        {
            "candidates": 3**m,
            "indsat_found": len(witnesses),
            "wall_time_s": time.perf_counter() - start,
        },
    )


# -- the cross-check route: screen, dedup and injection flips ------------


def _black_array(m: int, gray_mask: int) -> np.ndarray:
    """All black masks over the non-gray pair positions, ascending."""
    import numpy as np

    free = [i for i in range(m) if not gray_mask >> i & 1]
    x = np.arange(1 << len(free), dtype=np.int64)
    black = np.zeros(x.shape, dtype=np.int64)
    for j, pos in enumerate(free):
        black |= ((x >> np.int64(j)) & np.int64(1)) << np.int64(pos)
    return black


def _no_realization_survivors(
    black: np.ndarray, gray_mask: int, clauses: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """Colorings for which no induced placement is satisfiable."""
    import numpy as np

    surv = black
    for pos, neg in clauses:
        if surv.size == 0:
            break
        need_b = np.int64(pos & ~gray_mask)
        need_w = np.int64(neg & ~gray_mask)
        sat = ((surv & need_b) == need_b) & ((surv & need_w) == 0)
        if sat.any():
            surv = surv[~sat]
    return surv


def _scan_gray_sets(
    n: int, h: PatternGraph, gray_masks: list[int], clauses: tuple[tuple[int, int], ...]
) -> set[int]:
    """Canonical keys of the induced-h-saturated trigraphs over the given gray sets."""
    m = pair_count(n)
    seen: set[int] = set()
    witness_keys: set[int] = set()
    for gray_mask in gray_masks:
        black = _black_array(m, gray_mask)
        for b in _no_realization_survivors(black, gray_mask, clauses).tolist():
            t = Trigraph(n, b, gray_mask)
            key = canonical_key(t)
            if key in seen:
                continue
            seen.add(key)
            failing, _ = flips_all_create(t, h)
            if failing is None:
                witness_keys.add(key)
    return witness_keys


def enumerate_indsat(n: int, h: PatternGraph, k: int) -> list[CanonicalForm]:
    """All canonical induced-h-saturated trigraphs with exactly k gray pairs.

    Runs the cross-check route over every labelled gray set of size k.
    """
    if not 0 <= n <= ENUMERATE_MAX_VERTICES:
        raise ResourceLimitError(
            f"exhaustive enumeration is only feasible for n <= {ENUMERATE_MAX_VERTICES}"
        )
    m = pair_count(n)
    if not 0 <= k <= m:
        raise ValueError(f"k must be within 0..{m}")
    gray_masks = [sum(1 << i for i in combo) for combo in combinations(range(m), k)]
    return _keys_to_forms(n, _scan_gray_sets(n, h, gray_masks, induced_placements(n, h)))


def all_indsat_witnesses(n: int, h: PatternGraph) -> list[CanonicalForm]:
    """Every canonical induced-h-saturated trigraph on n vertices (all gray counts)."""
    out: list[CanonicalForm] = []
    for k in range(pair_count(n) + 1):
        out.extend(enumerate_indsat(n, h, k))
    return sorted(out)
