"""Exact minimum-gray computation by exhaustive, symmetry-reduced search.

A trigraph is induced-h-saturated exactly when its partial assignment of
the placement formula ``encode_pattern(n, h)`` is saturated (black =
true, white = false, gray = free), so ``isat_min`` runs the DNF kernel
``dnf._screen`` and ``dnf._covered``, which decide every black/white
coloring of one gray set at once.  The screen keeps the colorings that
realize no placement, growing them one non-gray pair at a time in colex
order, so that after pair C(j,2) - 1 they color exactly the pairs inside
vertices 0..j-1.  At that point, for 3 <= j < n, it keeps one coloring
per orbit of G_j, the automorphisms of the gray graph that fix vertices
j..n-1 (``_prefix_groups``): each coloring is replaced by its least
image under G_j, one exact int64 matrix product of its pair bits with
the images 2^g(i), and duplicates are dropped.  Extended by the
identity, each element of G_j is an automorphism of the gray graph, so
it maps placements to placements and saturated colorings to saturated
ones; every witness class keeps a member (isomorph rejection in the
sense of McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998).  A coverage pass then keeps the colorings in which every non-gray
pair is the only wrongly colored pair of some placement.  It works in
2-D numpy blocks, one group of placements at a time, grouped by their
highest non-gray pair and taken in descending order, and drops a
coloring as soon as one of its pairs can no longer be covered.  Each
coloring is decided on its own, so the pass runs unchanged on
orbit-reduced colorings.  The placements enter the kernel as two int64
arrays built once per search.  Gray counts are taken in ascending order,
and at each count the kernel runs on one gray set per isomorphism class
of graphs with that many edges.  The classes are grown by augmentation:
add each free pair to every representative of the previous level and
keep the least image, all of one representative's extensions in one
(permutations x free pairs) array (``_augment``).  Relabelling maps
saturated trigraphs to saturated ones, so every witness class has a
member whose gray set is its class representative.

Each gray set's automorphisms are found once (``_automorphisms``), as
pair-table columns, and serve both symmetry steps.  Those among the
first (n-1)! columns, the ones that fix vertex n-1, are found for every
gray set and give the screen's G_j.  The rest are found only when the
kernel returns rows, and then all rows of the gray set take their
canonical form in one pass (``_least_blacks``).  A representative is its
own least image, so the least (gray image, black image) is reached
exactly at its automorphisms: the form is the gray set itself and the
black mask's least image under them.  So each level gives every witness
class with k gray pairs exactly once, as a (gray, black) pair.

One level loop (``_levels``) serves three callers: ``isat_min`` stops at
the first gray count with a witness, which is therefore the exact
minimum; ``enumerate_indsat`` returns level k; ``all_indsat_witnesses``
runs every level.  All run up to n = 8 (``SEARCH_MAX_VERTICES``, the
limit of the permutation pair table).

The symmetry layer reads one table, ``_perm_pair_table(n)``: entry
[i, g] is 2^g(i) for each colex pair i and each of the n! permutations g,
pair-major, and the first j! columns are exactly the permutations that
fix vertices j..n-1.  A mask's images OR whole rows (``_mask_images``);
any set of columns, sliced to the first C(j,2) rows for a prefix, is the
images matrix that ``dnf._least_images`` and the screen's orbit steps
read; and G_j is the automorphisms whose column index is below j!.  The
n=8 table is 8.6 MiB, filled in column slices, so building it adds
little memory beyond its own.

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
from itertools import chain, permutations
from math import factorial
from typing import TYPE_CHECKING

from .dnf import _ORBIT_BLOCK, DnfFormula, _clause_arrays, _covered, _least_images, _screen
from .errors import ResourceLimitError
from .patterns import PatternGraph, induced_placements
from .saturation import is_indsat
from .saturation import flips_all_create  # noqa: F401  perfbench's search.flip_check hook
from .trigraph import Trigraph, _bits, all_pairs, pair_count

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator

    import numpy as np

NAIVE_MAX_VERTICES = 5
SEARCH_MAX_VERTICES = 8


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
    """Entry [i, g] is 2^(g(i)), the bit of the image of colex pair i under
    permutation g, for every permutation g of range(n).

    The columns are the lexicographic permutations conjugated by
    v -> n-1-v, so the first j! columns are exactly the permutations that
    fix vertices j..n-1.  The table is pair-major, so a mask's images OR
    whole rows, and any set of columns is the ``images`` matrix that
    ``dnf._least_images`` reads.  It is filled in column slices of at most
    ``_ORBIT_BLOCK`` entries, from int8 pair indices (n <= 8 keeps them
    below 28), so the only full-size int64 array is the table itself.
    """
    import numpy as np

    count = factorial(n)
    lex = np.fromiter(chain.from_iterable(permutations(range(n - 1, -1, -1))), np.int8, count * n)
    perms = lex.reshape(count, n)[:, ::-1]
    pairs = np.array(list(all_pairs(n)), dtype=np.intp).reshape(-1, 2)
    table = np.empty((len(pairs), count), dtype=np.int64)
    step = _ORBIT_BLOCK // max(1, len(pairs))
    for start in range(0, count, step):
        a, b = perms[start : start + step, pairs[:, 0]], perms[start : start + step, pairs[:, 1]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        table[:, start : start + step] = (np.int64(1) << (hi * (hi - 1) // 2 + lo)).T
    return table


def _mask_images(table: np.ndarray, mask: int) -> np.ndarray:
    """The image of a pair mask under every permutation (column) of the pair table."""
    import numpy as np

    out = np.zeros(table.shape[1], dtype=np.int64)
    for i in _bits(mask):
        out |= table[i]
    return out


def canonical_key(t: Trigraph) -> int:
    """Minimal (gray << m) | black over all vertex permutations."""
    import numpy as np

    n = t.n
    if n > SEARCH_MAX_VERTICES:
        raise ResourceLimitError(
            f"canonical form uses full permutation search, capped at n={SEARCH_MAX_VERTICES}"
        )
    m = pair_count(n)
    if m == 0:
        return 0
    table = _perm_pair_table(n)
    keys = (_mask_images(table, t.gray) << np.int64(m)) | _mask_images(table, t.black)
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


def _keys_to_forms(n: int, keys: set[tuple[int, int]]) -> list[CanonicalForm]:
    return sorted(CanonicalForm(n, gray, black) for gray, black in keys)


# -- the search: the DNF kernel over gray-graph classes -----------------


def _augment(n: int, reps: list[int]) -> list[int]:
    """One gray set per isomorphism class of graphs with one edge more than reps.

    A graph's canonical gray set is its least image under every vertex
    permutation g, and g maps gray | 2^i to g(gray) | 2^g(i); so each
    representative's one-edge extensions take their canonical sets from one
    (free pairs x permutations) array, the gray set's images ORed into the
    pair table's free rows, in column slices of at most ``_ORBIT_BLOCK``
    entries.
    """
    import numpy as np

    m = pair_count(n)
    table = _perm_pair_table(n)
    out: set[int] = set()
    for gray in reps:
        free = [i for i in range(m) if not gray >> i & 1]
        if not free:
            continue
        images = _mask_images(table, gray)
        step = max(1, _ORBIT_BLOCK // len(free))
        least = [
            (images[lo : lo + step] | table[free, lo : lo + step]).min(axis=1)
            for lo in range(0, images.size, step)
        ]
        out.update(np.minimum.reduce(least).tolist())
    return sorted(out)


def _automorphisms(n: int, gray: int, lo: int, hi: int) -> np.ndarray:
    """The pair table's columns lo..hi-1 that map the gray set onto itself, ascending."""
    import numpy as np

    images = _mask_images(_perm_pair_table(n)[:, lo:hi], gray)
    return lo + np.flatnonzero(images == gray)


def _prefix_groups(n: int, autos: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The screen's orbit steps for one gray set: (C(j,2), images) per prefix 0..j-1.

    ``autos`` holds the gray graph's automorphisms among the pair table's
    first (n-1)! columns, the permutations that fix n-1.  G_j is those
    whose column index is below j!, the ones that fix j..n-1.  Each maps
    the pairs inside the prefix onto themselves, so ``images`` is the
    table's first C(j,2) rows at G_j's columns, ``images[i, g]`` = 2^(g(i)).
    Steps run for 3 <= j < n, and only where G_j is not trivial.
    """
    table = _perm_pair_table(n)
    steps = []
    for j in range(n - 1, 2, -1):  # G_j shrinks as j falls: stop at the first trivial one
        autos = autos[autos < factorial(j)]
        if autos.size == 1:
            break
        steps.append((pair_count(j), table[: pair_count(j), autos]))
    return steps[::-1]


def _least_blacks(n: int, autos: np.ndarray, blacks: np.ndarray) -> list[int]:
    """Each black mask's least image under the permutations (pair-table columns) autos.

    When autos are all the automorphisms of a gray set that is its own
    least image, ``canonical_key`` of each trigraph is that gray set and
    this black image.  The images are exact int64 products
    (``dnf._least_images``) with slices of at most ``_ORBIT_BLOCK // m``
    columns.
    """
    import numpy as np

    table = _perm_pair_table(n)
    step = max(1, _ORBIT_BLOCK // max(1, pair_count(n)))
    slices = (table[:, autos[lo : lo + step]] for lo in range(0, autos.size, step))
    return np.minimum.reduce([_least_images(blacks, images) for images in slices]).tolist()


def _levels(n: int, h: PatternGraph, k_max: int) -> Iterator[tuple[dict, set[tuple[int, int]]]]:
    """The search's gray levels k = 0..k_max: each level's stats and canonical keys.

    The keys are the (gray, black) canonical forms of every
    induced-h-saturated trigraph with exactly k gray pairs, one per
    isomorphism class.  The stats are the gray-set classes run through
    the kernel, the saturated rows it returned (orbit-reduced, so fewer
    than the labelled colorings), the most rows one screen held, their
    distinct witness classes and the level's seconds.
    """
    import numpy as np

    m = pair_count(n)
    clauses = _clause_arrays(DnfFormula(m, induced_placements(n, h)))
    full = (1 << m) - 1
    fixed, count = factorial(max(n - 1, 0)), factorial(n)  # the columns below fixed fix n-1
    reps = [0]
    for k in range(k_max + 1):
        level_start = time.perf_counter()
        if k:
            reps = _augment(n, reps)
        rows, peak, keys = 0, 0, set()
        for gray in reps:
            assigned = full & ~gray
            autos = _automorphisms(n, gray, 0, fixed)
            true, grouped, held = _screen(clauses, assigned, _prefix_groups(n, autos))
            peak = max(peak, held)
            blacks = _covered(true, grouped, assigned)
            if blacks.size:
                rows += blacks.size
                autos = np.concatenate((autos, _automorphisms(n, gray, fixed, count)))
                keys.update((gray, black) for black in _least_blacks(n, autos, blacks))
        level = {
            "k": k,
            "gray_classes": len(reps),
            "saturated_rows": rows,
            "peak_rows": peak,
            "witness_classes": len(keys),
            "seconds": time.perf_counter() - level_start,
        }
        yield level, keys


def isat_min(
    n: int,
    h: PatternGraph,
    k_max: int | None = None,
    label: str | None = None,
    progress: Callable[[dict], None] | None = None,
) -> SearchResult:
    """Least gray count of an induced-h-saturated trigraph on n vertices.

    Scans gray-set sizes 0..k_max; returns min_gray=None if no witness
    exists up to k_max (flagged, not an error).  ``stats["levels"]`` has
    one entry per gray count k searched (see ``_levels``).  ``progress``,
    if given, is called with each entry as its level ends.
    """
    if n < 2:
        raise ValueError(f"search needs n >= 2, got {n}")
    if n > SEARCH_MAX_VERTICES:
        raise ResourceLimitError(f"search supports 2 <= n <= {SEARCH_MAX_VERTICES}, got {n}")
    m = pair_count(n)
    if k_max is None:
        k_max = m
    if not 0 <= k_max <= m:
        raise ValueError(f"k_max must be within 0..{m}")
    start = time.perf_counter()
    min_gray = None
    levels = []
    for level, keys in _levels(n, h, k_max):
        levels.append(level)
        if progress is not None:
            progress(level)
        if keys:
            min_gray = level["k"]
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


def _check_enumeration_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"exhaustive enumeration needs n >= 0, got {n}")
    if n > SEARCH_MAX_VERTICES:
        raise ResourceLimitError(
            f"exhaustive enumeration supports 0 <= n <= {SEARCH_MAX_VERTICES}, got {n}"
        )


def enumerate_indsat(n: int, h: PatternGraph, k: int) -> list[CanonicalForm]:
    """All canonical induced-h-saturated trigraphs with exactly k gray pairs.

    Runs the search's levels 0..k and returns level k's classes.
    """
    _check_enumeration_size(n)
    m = pair_count(n)
    if not 0 <= k <= m:
        raise ValueError(f"k must be within 0..{m}")
    for _, keys in _levels(n, h, k):
        pass
    return _keys_to_forms(n, keys)


def all_indsat_witnesses(n: int, h: PatternGraph) -> list[CanonicalForm]:
    """Every canonical induced-h-saturated trigraph on n vertices (all gray counts)."""
    _check_enumeration_size(n)
    return _keys_to_forms(n, set().union(*(keys for _, keys in _levels(n, h, pair_count(n)))))


def isat_min_naive(n: int, h: PatternGraph, label: str | None = None) -> SearchResult:
    """Agreement oracle: scan all 3^C(n,2) trigraphs, no pruning of any kind."""
    if n < 2:
        raise ValueError(f"the naive sweep needs n >= 2, got {n}")
    if n > NAIVE_MAX_VERTICES:
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


# -- the screen's reference filter, used by tests/test_dnf.py -----------


def _black_array(m: int, gray_mask: int) -> np.ndarray:
    """All black masks over the non-gray pair positions, ascending: the reference's input."""
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
    """The screen's reference, one clause at a time: the colorings realizing no placement."""
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
