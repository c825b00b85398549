"""Saturated partial assignments of DNF formulas.

A partial assignment is saturated when (1) no completion satisfies the
formula, yet (2) unassigning any single assigned variable admits a
satisfying completion.  Encoding the induced placements of a pattern
over the C(n,2) pair variables makes this coincide bit-for-bit with
induced saturation of trigraphs: black=true, white=false, gray=free.

Because a DNF clause never repeats a variable, a completion satisfying
a clause exists iff the current assignment falsifies none of its
literals; this clause-local check is exact and mirrors the per-pair
locality of realization detection.  ``is_saturated`` applies it to one
assignment.  ``min_unassigned`` applies it to every assignment of a free
set at once, as a numpy kernel over an array of true-masks: a screen
that grows the array one assigned variable at a time and drops the rows
leaving a clause completable, then a coverage pass on the survivors.
An explicit 2^u completion sweep (``is_saturated_brute``) is kept as
the independent oracle.

The minimization objective min_unassigned mirrors the trigraph
minimum-gray objective; it is this artifact's framing, not a standard
quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ResourceLimitError
from .patterns import PatternGraph, induced_placements
from .trigraph import Trigraph, _bits, pair_count

COMPLETION_CAP = 20
MIN_UNASSIGNED_MAX_VARS = 21


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
    to the same clause.
    """
    if not h.k <= n <= 8:
        raise ValueError(f"need {h.k} <= n <= 8, got n={n}")
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


def _saturated_true_masks(f: DnfFormula, free_mask: int) -> np.ndarray:
    """True-masks of the saturated assignments whose unassigned set is free_mask.

    Screen: the array of true-masks grows one assigned variable at a time,
    and after placing v the rows that leave some clause completable are
    dropped, for the clauses whose highest assigned variable is v.  The
    assigned part of a clause is completable iff its falsified set
    ``(true & mask) ^ pos`` is empty.  Coverage: each surviving row is
    saturated iff every assigned variable is the only falsified literal of
    some clause.
    """
    assigned = ((1 << f.m) - 1) & ~free_mask
    by_top: dict[int, list[tuple[int, int]]] = {}
    for pos, neg in f.clauses:
        mask = (pos | neg) & assigned
        if not mask:
            return np.empty(0, dtype=np.int64)  # completable under every assignment
        by_top.setdefault(mask.bit_length() - 1, []).append((mask, pos & assigned))
    true = np.zeros(1, dtype=np.int64)
    for v in _bits(assigned):
        true = np.concatenate((true, true | np.int64(1 << v)))
        for mask, pos in by_top.get(v, ()):
            true = true[(true & mask) != pos]
    covered = np.zeros_like(true)
    for clauses in by_top.values():
        for mask, pos in clauses:
            falsified = (true & mask) ^ pos
            covered |= np.where(falsified & (falsified - 1) == 0, falsified, 0)
    return true[covered == assigned]


def min_unassigned(f: DnfFormula, cap: int | None = None) -> int | None:
    """Least unassigned count over saturated assignments; None if none up to cap.

    Free sets are taken in ascending size, and each is decided at once over
    all its assignments by the numpy screen-then-coverage kernel
    (``_saturated_true_masks``), which agrees with ``is_saturated`` row by
    row.  No symmetry reduction: generic formulas carry no
    vertex-permutation group to exploit.
    """
    if f.m > MIN_UNASSIGNED_MAX_VARS:
        raise ResourceLimitError(
            f"{f.m} variables exceed the sweep cap {MIN_UNASSIGNED_MAX_VARS}"
        )
    if cap is None:
        cap = f.m
    for u in range(min(cap, f.m) + 1):
        for free in combinations(range(f.m), u):
            if _saturated_true_masks(f, sum(1 << i for i in free)).size:
                return u
    return None


# -- text format --------------------------------------------------------
#
#   dnf <m> <c>
#   <signed 1-based variable indices per clause>


def dumps(f: DnfFormula) -> str:
    lines = [f"dnf {f.m} {len(f.clauses)}"]
    for lits in f.clause_literals():
        lines.append(" ".join(str(x) for x in lits))
    return "\n".join(lines) + "\n"


def loads(text: str) -> DnfFormula:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty dnf document")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "dnf":
        raise ValueError(f"bad header line: {lines[0]!r}")
    m, count = int(head[1]), int(head[2])
    if len(lines) - 1 != count:
        raise ValueError(f"expected {count} clause lines, found {len(lines) - 1}")
    clauses = []
    for ln in lines[1:]:
        pos = neg = 0
        for tok in ln.split():
            lit = int(tok)
            if lit == 0 or abs(lit) > m:
                raise ValueError(f"literal {lit} outside variable range 1..{m}")
            bit = 1 << (abs(lit) - 1)
            if lit > 0:
                pos |= bit
            else:
                neg |= bit
        clauses.append((pos, neg))
    return DnfFormula(m, tuple(clauses))


def dump(f: DnfFormula, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(f))


def load(path) -> DnfFormula:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
