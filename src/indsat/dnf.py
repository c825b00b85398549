"""Saturated partial assignments of DNF formulas.

A partial assignment is saturated when (1) no completion satisfies the
formula, yet (2) unassigning any single assigned variable admits a
satisfying completion.  Encoding the induced placements of a pattern
over the C(n,2) pair variables makes this coincide bit-for-bit with
induced saturation of trigraphs: black=true, white=false, gray=free.

Because a DNF clause never repeats a variable, a completion satisfying a
clause exists iff the current assignment falsifies none of its literals;
this clause-local check is exact and mirrors the per-pair locality of
realization detection.  ``is_saturated`` applies it to one assignment.
A numpy kernel applies it to every assignment of one free set at once,
over an array of true-masks.  The clauses enter as two int64 arrays,
support and positive masks (``_clause_arrays``), built once per
formula.  A screen (``_screen``)
restricts them to the assigned variables, sorts them by their highest
assigned variable (their top), grows the array one assigned variable at
a time and, after placing v, drops the rows leaving completable a clause
with top v; then a coverage pass (``_covered``) runs on the survivors,
skipped when none survive.  Both passes work in 2-D blocks of at most
``_COVERAGE_BLOCK`` (clause, row) entries: the screen fits as many of a
top group's clauses in a block as the rows allow, and filters one clause
at a time when only one fits.  The screen can also keep one row per
orbit of given variable permutations at given prefix lengths
(``_min_images``); only the minimum-gray search asks for that.  The
coverage pass takes the screen's sorted arrays and group slices, ORs each
group's single-literal falsified sets into the rows, takes the groups in
descending order and, after each, drops the rows already missing an
assigned variable at or above the group's, stopping once no row is left.
Every row is decided on its own.  The minimum-gray search runs the
kernel per gray set.

``min_unassigned`` runs the screen once, at the empty free set, giving
S: the ascending true-masks of the full assignments that satisfy no
clause.  With C(F) the assignments with F's bits clear whose completions
over F all lie in S, C({}) = S and C(F + {f}) keeps the x in C(F) with
bit f clear and x | 2^f in C(F).  The saturated rows of F are the x in
C(F) with x ^ 2^v outside C(F) for every assigned v, so the walk carries
each row's neighbour mask nb_F(x), the v with x ^ 2^v in C(F), and a row
is saturated exactly when its mask is 0.  The root masks on S come from
one lookup per variable in a membership table of S.  A child's rows are
the x with bit f in nb_F(x) & ~x, and their partners x | 2^f are the
rows y with bit f in nb_F(y) & y, in the same order, so its masks are
nb_F(x) & nb_F(x | 2^f) less bit f, with no search.  One depth-first
walk derives each C(F) once, from its prefix's; an empty C(F) prunes
every superset, and after a free set with a saturated row the walk
derives only smaller free sets.  An explicit 2^u completion sweep
(``is_saturated_brute``) is kept as the independent oracle.  Only these
kernels use numpy, and each imports it when called, so loading this
module, ``is_saturated`` and the file reader do not.

The minimization objective min_unassigned mirrors the trigraph
minimum-gray objective; it is this artifact's framing, not a standard
quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ResourceLimitError
from .patterns import PatternGraph, induced_placements
from .textformat import is_number, load_file, read_document
from .trigraph import MAX_VERTICES, Trigraph, _bits, pair_count

if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np

    # The screen's restricted clauses: (masks, pos) sorted by top, and one
    # (v, lo, hi) slice per nonempty top group, ascending in v.
    GroupedClauses = tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]]]

COMPLETION_CAP = 20
MIN_UNASSIGNED_MAX_VARS = 21
# The most variables a file may declare: one per pair of the largest trigraph.
MAX_VARIABLES = pair_count(MAX_VERTICES)
# The most (clause, row) entries one 2-D block of the screen or the
# coverage pass holds: 2^13 int64 entries keep each temporary at 64 KiB, so
# the coverage pass adds about 0.1 MiB to a search's peak memory (2^14
# added about 0.4 MiB).  The screen filters one clause at a time once more
# than 2^12 rows leave room for only one clause per block.
_COVERAGE_BLOCK = 1 << 13
# The most entries one temporary of the screen's orbit step holds: 2^16
# int64 entries are 512 KiB.  C4 at n=8 ran as fast with 2^16 as with
# 2^18 and peaked at 209 MiB with no bound, against 77 MiB with it.
_ORBIT_BLOCK = 1 << 16


@dataclass(frozen=True, slots=True)
class DnfFormula:
    """m variables; each clause is a (positive mask, negative mask) pair."""

    m: int
    clauses: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        full = (1 << self.m) - 1
        for pos, neg in self.clauses:
            if pos & neg:
                raise ValueError("a clause may not contain a variable twice")
            if not (pos | neg):
                raise ValueError("clauses must be nonempty")
            if (pos | neg) & ~full:
                raise ValueError("clause literal outside the variable range")

    def clause_literals(self) -> list[list[int]]:
        """Clauses as signed 1-based variable lists, ascending by variable."""
        out = []
        for pos, neg in self.clauses:
            lits = [(i + 1) if pos >> i & 1 else -(i + 1) for i in _bits(pos | neg)]
            out.append(lits)
        return out


@dataclass(frozen=True, slots=True)
class PartialAssignment:
    """Per-variable state: true / false / unassigned, as two disjoint masks."""

    m: int
    true_mask: int = 0
    false_mask: int = 0

    def __post_init__(self) -> None:
        full = (1 << self.m) - 1
        if self.true_mask & self.false_mask:
            raise ValueError("a variable cannot be both true and false")
        if (self.true_mask | self.false_mask) & ~full:
            raise ValueError("assignment outside the variable range")

    @property
    def assigned_mask(self) -> int:
        return self.true_mask | self.false_mask

    @property
    def unassigned_mask(self) -> int:
        return ((1 << self.m) - 1) & ~self.assigned_mask

    @property
    def unassigned_count(self) -> int:
        return self.unassigned_mask.bit_count()

    def value(self, i: int) -> bool | None:
        if self.true_mask >> i & 1:
            return True
        if self.false_mask >> i & 1:
            return False
        return None

    def unassign(self, i: int) -> "PartialAssignment":
        bit = 1 << i
        return PartialAssignment(self.m, self.true_mask & ~bit, self.false_mask & ~bit)

    def to_string(self) -> str:
        return "".join(
            "1" if self.true_mask >> i & 1 else "0" if self.false_mask >> i & 1 else "-"
            for i in range(self.m)
        )


def assignment_from_string(text: str) -> PartialAssignment:
    """Parse one character per variable from {1, 0, -}; whitespace ignored."""
    chars = [c for c in text if not c.isspace()]
    true = false = 0
    for i, c in enumerate(chars):
        if c == "1":
            true |= 1 << i
        elif c == "0":
            false |= 1 << i
        elif c != "-":
            raise ValueError(f"bad assignment character {c!r} at position {i}")
    return PartialAssignment(len(chars), true, false)


# -- the trigraph correspondence ---------------------------------------


def encode_pattern(n: int, h: PatternGraph) -> DnfFormula:
    """One clause per distinct induced placement of h over the pair variables.

    Positive literals sit on the placement's edge pairs, negative on its
    nonedge pairs; labelings equal up to an automorphism of h collapse
    to the same clause.  An n below h's vertex count is a ValueError, one
    above `patterns.PLACEMENT_MAX_VERTICES` a ResourceLimitError (from
    `induced_placements`).
    """
    if n < h.k:
        raise ValueError(f"need n >= {h.k} for a {h.k}-vertex pattern, got n={n}")
    return DnfFormula(pair_count(n), induced_placements(n, h))


def assignment_of(t: Trigraph) -> PartialAssignment:
    """Black -> true, white -> false, gray -> unassigned."""
    return PartialAssignment(pair_count(t.n), t.black, t.white)


def trigraph_of(n: int, a: PartialAssignment) -> Trigraph:
    """Inverse of assignment_of."""
    if a.m != pair_count(n):
        raise ValueError(f"assignment has {a.m} variables, expected {pair_count(n)}")
    return Trigraph(n, black=a.true_mask, gray=a.unassigned_mask)


# -- saturation of assignments ------------------------------------------


def _falsified(clause: tuple[int, int], a: PartialAssignment) -> int:
    """Mask of the clause's variables whose literal the assignment falsifies."""
    pos, neg = clause
    return (pos & a.false_mask) | (neg & a.true_mask)


def satisfiable_completion_exists(f: DnfFormula, a: PartialAssignment) -> bool:
    """Clause-local check: some clause has no falsified literal."""
    return any(_falsified(c, a) == 0 for c in f.clauses)


def satisfiable_completion_exists_brute(
    f: DnfFormula, a: PartialAssignment, cap: int = COMPLETION_CAP
) -> bool:
    """Oracle: enumerate all 2^u completions and evaluate the formula."""
    free = [i for i in range(f.m) if a.value(i) is None]
    if len(free) > cap:
        raise ResourceLimitError(f"{len(free)} unassigned variables exceed the cap {cap}")
    for choice in range(1 << len(free)):
        true = a.true_mask
        for j, i in enumerate(free):
            if choice >> j & 1:
                true |= 1 << i
        false = ((1 << f.m) - 1) & ~true
        if any((pos & true) == pos and (neg & false) == neg for pos, neg in f.clauses):
            return True
    return False


def is_saturated(f: DnfFormula, a: PartialAssignment) -> bool:
    """No completion satisfies f, but freeing any assigned variable admits one."""
    falsifieds = []
    for c in f.clauses:
        fmask = _falsified(c, a)
        if fmask == 0:
            return False  # condition (1) fails: this clause is completable
        falsifieds.append(fmask)
    # freeing v helps exactly the clauses whose only falsified literal is on v
    covered = 0
    for fmask in falsifieds:
        if fmask & (fmask - 1) == 0:
            covered |= fmask
    return a.assigned_mask & ~covered == 0


def is_saturated_brute(f: DnfFormula, a: PartialAssignment, cap: int = COMPLETION_CAP) -> bool:
    """Oracle variant of is_saturated using completion enumeration throughout."""
    if satisfiable_completion_exists_brute(f, a, cap):
        return False
    return all(
        satisfiable_completion_exists_brute(f, a.unassign(i), cap)
        for i in _bits(a.assigned_mask)
    )


def _clause_arrays(f: DnfFormula) -> tuple[np.ndarray, np.ndarray]:
    """The clauses as two int64 arrays: (support mask, positive mask)."""
    import numpy as np

    signs = np.array(f.clauses, dtype=np.int64).reshape(-1, 2)
    return signs[:, 0] | signs[:, 1], signs[:, 0]


def _screen(
    clauses: tuple[np.ndarray, np.ndarray],
    assigned: int,
    groups: Sequence[tuple[int, np.ndarray]] = (),
) -> tuple[np.ndarray, GroupedClauses, int]:
    """Ascending true-masks of the assignments of ``assigned`` falsifying every clause.

    ``clauses`` is ``_clause_arrays(f)``.  The array of true-masks grows one
    assigned variable at a time, and after placing v the rows that leave
    some clause completable are dropped, for the clauses whose highest
    assigned variable (their top) is v.  The assigned part of a clause is
    completable iff its falsified set ``(true & mask) ^ pos`` is empty.
    Each doubling appends rows >= 2^v and each filter keeps order, so the
    rows come out ascending.  Also returns the clauses restricted to the
    assigned variables, as (masks, pos, tops): both arrays sorted by top,
    and one (v, lo, hi) per nonempty top group, ascending in v, giving the
    group's slice; and the most rows the array held.  A clause with no
    assigned variable is completable under every assignment, so the rows
    are empty.

    ``groups`` holds optional orbit steps (b, images), ascending in b.  Once
    every assigned variable below b is placed, each row is replaced by its
    least image (``_min_images``) and duplicates are dropped.  Each column
    of ``images`` must be a permutation of the variables below b that
    extends to a symmetry of the clause set fixing the assigned set; then
    every orbit of the final rows under those symmetries keeps a member, and
    each kept row is one the screen without groups also returns.  Only the
    minimum-gray search passes groups, each a slice of its permutation pair
    table, which is stored in this form.

    Each top group is filtered in 2-D blocks of at most ``_COVERAGE_BLOCK``
    (clause, row) entries, so a block holds ``_COVERAGE_BLOCK // rows``
    clauses; where only one clause fits, the filter is one 1-D pass per
    clause.  A 2-D filter was measured about 2.5x slower than per-clause
    filters on large row sets (P4 at free set {} and n=7: 88 ms against
    30-36 ms) and faster on small ones, such as orbit-reduced rows
    (``BENCH_prefix_orbits.json``); the block rule sends each row set to
    the faster form with no added knob.
    """
    import numpy as np

    support, positive = clauses
    masks = support & np.int64(assigned)
    if not masks.all():
        return np.empty(0, dtype=np.int64), (masks[:0], masks[:0], []), 0
    # Sorting the restricted masks sorts the clauses by top, since top v
    # means 2^v <= mask < 2^(v+1).
    order = np.argsort(masks, kind="stable")
    masks, pos = masks[order], positive[order] & np.int64(assigned)
    bits = list(_bits(assigned))
    bounds = np.searchsorted(masks, [1 << v for v in bits]).tolist() + [masks.size]
    spans = list(zip(bits, bounds, bounds[1:]))
    pending = list(groups)
    true = np.zeros(1, dtype=np.int64)
    peak = 1
    for v, lo, hi in spans:
        while pending and pending[0][0] <= v:
            true = _min_images(true, pending.pop(0)[1])
        true = np.concatenate((true, true | np.int64(1 << v)))
        peak = max(peak, true.size)
        while lo < hi and true.size:
            per = _COVERAGE_BLOCK // true.size
            if per <= 1:
                true = true[(true & masks[lo]) != pos[lo]]
                lo += 1
            else:
                end = min(lo + per, hi)
                block = (true & masks[lo:end, None]) != pos[lo:end, None]
                true = true[block.all(axis=0)]
                lo = end
        if not true.size:
            break
    return true, (masks, pos, [span for span in spans if span[1] < span[2]]), peak


def _least_images(true: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Each row's least image, in the order of the rows.

    ``images[i, g]`` is 2^(g(i)) for each of the b variables i and each
    permutation g, so the images of all rows are one exact int64 product of
    the rows' b bits with ``images``.  The search's permutation pair table
    has this form, so its slices come in as they are.  The rows go in
    slices that keep each temporary within ``_ORBIT_BLOCK`` entries.
    """
    import numpy as np

    b, count = images.shape
    shifts = np.arange(b, dtype=np.int64)
    step = max(1, _ORBIT_BLOCK // max(b, count))
    least = np.empty_like(true)
    for lo in range(0, true.size, step):
        bits = (true[lo : lo + step, None] >> shifts) & 1
        least[lo : lo + step] = (bits @ images).min(axis=1)
    return least


def _min_images(true: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Each row's least image (``_least_images``), ascending and without duplicates."""
    import numpy as np

    least = _least_images(true, images)
    least.sort()
    keep = np.empty(least.size, dtype=bool)
    keep[:1] = True
    np.not_equal(least[1:], least[:-1], out=keep[1:])
    return least[keep]


def _covered(true: np.ndarray, clauses: GroupedClauses, assigned: int) -> np.ndarray:
    """The screened rows in which each assigned variable is some clause's only falsified literal.

    ``clauses`` is the screen's (masks, pos, tops): the restricted clauses
    sorted by their highest assigned variable v, and each group's slice.
    Each group is evaluated as one (clauses x rows) block, split along the
    rows so that no block exceeds ``_COVERAGE_BLOCK`` entries.  Groups go
    in descending v; once every clause with top >= v is done, the coverage
    of each assigned variable >= v is final, so the rows missing one of
    them are dropped, and the pass stops when no row is left.  The last
    comparison with the assigned mask decides the variables below the
    lowest top.  Each row's result depends on that row alone.
    """
    import numpy as np

    if not true.size:
        return true
    masks, pos, tops = clauses
    covered = np.zeros_like(true)
    for v, lo, hi in reversed(tops):
        group_masks, group_pos = masks[lo:hi, None], pos[lo:hi, None]
        step = max(1, _COVERAGE_BLOCK // (hi - lo))
        for start in range(0, true.size, step):
            rows = slice(start, start + step)
            falsified = (true[rows] & group_masks) ^ group_pos
            single = np.where(falsified & (falsified - 1) == 0, falsified, 0)
            covered[rows] |= np.bitwise_or.reduce(single, axis=0)
        keep = (np.int64(assigned >> v << v) & ~covered) == 0
        true, covered = true[keep], covered[keep]
        if not true.size:
            return true
    return true[covered == assigned]


def _cubes(s: np.ndarray, m: int, cap: int):
    """Yield (free_mask, C(F), nb) for free sets F of at most cap of the m variables.

    C(F) holds the assignments with F's bits clear whose every completion
    over F lies in the ascending array s: C({}) = s, and
    C(F + {f}) = {x in C(F) : bit f of x clear, x | 2^f in C(F)}.  nb holds
    each row's neighbour mask nb_F(x), the variables v with x ^ 2^v in C(F);
    only assigned variables occur in it, since every row has F's bits clear,
    and x ^ 2^v is in C(F + {f}) exactly when it and (x | 2^f) ^ 2^v are
    both in C(F).  The root masks come from one lookup per variable in a
    2^m membership table of s.

    Partners without search: for f outside F, the rows of C(F + {f}) are
    the x in C(F) with bit f in ``nb & ~x``, their partners x | 2^f are
    the y in C(F) with bit f in ``nb & y``, and both selections list them
    in the same order.  Proof: x -> x ^ 2^f maps the first set into the
    second (x | 2^f is in C(F), has bit f set, and flipping f gives x,
    which is in C(F)) and the second into the first in the same way, so it
    is a bijection; on rows with bit f clear it adds 2^f, which is
    increasing; and boolean selection keeps C(F) ascending.  So the k-th
    selected x's partner is the k-th selected y, and a child's masks are
    nb(x) & nb(y) & ~2^f.

    One depth-first walk in lexicographic order: each F comes before its
    extensions, and the extensions F + {f}, for f above F's highest
    variable, go by ascending f.  Only the f that some row can add are
    derived, so every yielded C(F) is nonempty; an empty one would be
    empty for every superset.  After yielding a node with a saturated row
    (a 0 in its masks), the walk derives only free sets smaller than that
    node, so each yielded saturated node is smaller than the last.  Every
    C(F) stays ascending, and each is derived once.
    """
    import numpy as np

    bound = cap + 1  # the walk derives only free sets of fewer variables

    def walk(free: int, cube: np.ndarray, nb: np.ndarray, start: int):
        nonlocal bound
        yield free, cube, nb
        size = free.bit_count()
        if not nb.all():
            bound = size
            return
        if size + 1 >= bound:
            return
        up, down = nb & ~cube, nb & cube
        for f in _bits(int(np.bitwise_or.reduce(up)) >> start << start):
            if size + 1 >= bound:
                return
            bit = np.int64(1 << f)
            rows, partners = (up & bit) != 0, (down & bit) != 0
            yield from walk(free | (1 << f), cube[rows], nb[rows] & nb[partners] & ~bit, f + 1)

    if not s.size or cap < 0:
        return
    # 2^m bytes, 2 MiB at MIN_UNASSIGNED_MAX_VARS; one searchsorted of s per
    # variable costs about 7x the time but no memory beyond s's size.
    member = np.zeros(1 << m, dtype=bool)
    member[s] = True
    nb = np.zeros_like(s)
    for v in range(m):
        bit = np.int64(1 << v)
        nb |= member[s ^ bit] * bit
    del member
    yield from walk(0, s, nb, 0)


def min_unassigned(f: DnfFormula, cap: int | None = None) -> int | None:
    """Least unassigned count over saturated assignments; None if none up to cap.

    One screen (``_screen`` at free set {}) gives S, the ascending
    true-masks of the full assignments that satisfy no clause.  One
    depth-first walk (``_cubes``) then derives, for free sets of at most
    cap variables, C(F), the rows whose completions over F all lie in S,
    and their neighbour masks from those of F's prefix.  The saturated
    rows of F are those of C(F) that leave C(F) when any one assigned
    variable is flipped, the rows whose mask is 0, so F has one exactly
    when ``nb.all()`` fails.  These agree with ``is_saturated`` row by row.
    Each saturated free set the walk yields is smaller than the last, so
    the answer is the size of the last one.  No symmetry reduction:
    generic formulas carry no vertex-permutation group to exploit.  On a
    2-core x86 host, P4 takes ~0.0045 s at n=6 and ~0.08 s at n=7, K3
    ~0.6 s and C4 ~0.6 s at n=7.  The cost is set by the answer: to show
    that no smaller free set is saturated, the walk must derive every
    nonempty C(F) with fewer free variables than the answer.  K4 and 4K1
    at n=7, whose answer is 11, take about 44-57 s on the same host,
    against about 0.85 s for ``search.isat_min(7, K4)``.
    """
    if f.m > MIN_UNASSIGNED_MAX_VARS:
        raise ResourceLimitError(
            f"{f.m} variables exceed the sweep cap {MIN_UNASSIGNED_MAX_VARS}"
        )
    if cap is None:
        cap = f.m
    s = _screen(_clause_arrays(f), (1 << f.m) - 1)[0]
    least = None
    for free, _, nb in _cubes(s, f.m, cap):
        if not nb.all():
            least = free.bit_count()
    return least


# -- text format --------------------------------------------------------
#
#   dnf <m> <c>     (m <= MAX_VARIABLES)
#   <signed 1-based variable indices per clause>
#
# Comments, blank lines and line numbers follow ``textformat``.


def dumps(f: DnfFormula) -> str:
    lines = [f"dnf {f.m} {len(f.clauses)}"]
    for lits in f.clause_literals():
        lines.append(" ".join(str(x) for x in lits))
    return "\n".join(lines) + "\n"


def loads(text: str) -> DnfFormula:
    """Parse the text format; a malformed document is a ValueError naming its line."""
    head_no, (m, count), body = read_document(text, "dnf", 2)
    if m > MAX_VARIABLES:
        raise ValueError(f"line {head_no}: variable count {m} outside supported range 0..{MAX_VARIABLES}")
    if len(body) != count:
        raise ValueError(f"line {head_no}: expected {count} clause lines, found {len(body)}")
    clauses = []
    for no, tokens in body:
        signs = [0, 0]  # (positive mask, negative mask)
        for tok in tokens:
            if not is_number(tok.removeprefix("-")):
                raise ValueError(f"line {no}: bad literal {tok!r}")
            lit = int(tok)
            if lit == 0 or abs(lit) > m:
                raise ValueError(f"line {no}: literal {lit} outside variable range 1..{m}")
            bit = 1 << (abs(lit) - 1)
            if (signs[0] | signs[1]) & bit:
                raise ValueError(f"line {no}: variable {abs(lit)} appears twice in a clause")
            signs[lit < 0] |= bit
        clauses.append(tuple(signs))
    return DnfFormula(m, tuple(clauses))


def dump(f: DnfFormula, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(f))


def load(path) -> DnfFormula:
    return load_file(path, loads)
