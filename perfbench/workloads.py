"""The benchmark's four workloads: seeded inputs, the timed call, the reference check.

Each workload is a class.  Constructing it is the set-up the user pays on
every call: building the inputs and filling the lazy tables the solve
uses.  ``solve()`` is one pass of the timed call list and ``check()``
compares its answer with a reference that does not come from the code
under test (closed forms, the paper's theorems, brute-force oracles).

The seed relabels the inputs; seed 0 keeps the labels as they are.  Every
relabelling is chosen so that the reference answer and the amount of work
stay the same for every seed (see each class), so that seeds differ only
in labels and run-to-run spread is not a spread of workload sizes.

Solves look their entry points up on the module at call time
(``indsat.search.isat_min`` rather than a name bound at import), so the
traced run can wrap them.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import indsat
import indsat.dnf
import indsat.saturation
import indsat.search
from indsat import (
    K3,
    P4,
    Trigraph,
    all_pairs,
    canonical_key,
    complete_graph,
    construct_alternative,
    construct_tn,
    from_edges,
    from_pairs,
    has_realization_brute,
    index_pair,
    isat_formula,
    pair_count,
    pair_index,
    parse_family,
)
from indsat.patterns import induced_placements

# The paper's value ceil((n+1)/3) at n = 6: the answer of both the search
# and the DNF sweep.
P4_MIN_GRAY_N6 = isat_formula(parse_family("p4"), 6)
# Isomorphism classes of minimum P4-saturated trigraphs on 6 vertices.
P4_WITNESS_CLASSES_N6 = 11


@contextmanager
def phase(phases: dict[str, float], name: str):
    """Add the wall time of the block to phases[name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - start


def permutation(n: int, rng: random.Random, seed: int) -> list[int]:
    """A seeded permutation of range(n); the identity for seed 0."""
    perm = list(range(n))
    if seed != 0:
        rng.shuffle(perm)
    return perm


def brute_saturation_failure(t: Trigraph) -> str | None:
    """Why t is not induced-P4-saturated, by the brute-force realization oracle."""
    if has_realization_brute(t, P4):
        return "a realization contains an induced P4"
    for i in range(pair_count(t.n)):
        if not t.gray >> i & 1:
            u, v = index_pair(i)
            if not has_realization_brute(t.flip(u, v), P4):
                return f"flipping ({u}, {v}) creates no induced P4"
    return None


class SearchP4N6:
    """``isat_min(6, P4)`` with the path's vertices relabelled.

    The set of induced placements, and hence every candidate, survivor and
    witness class, does not depend on how P4 is labelled.
    """

    name = "search-p4-n6"

    def __init__(self, seed: int) -> None:
        self.phases: dict[str, float] = {}
        order = permutation(4, random.Random(seed), seed)
        self.pattern = from_edges(4, [(order[i], order[i + 1]) for i in range(3)])
        with phase(self.phases, "patterns.placements_s"):
            induced_placements(6, self.pattern)
        canonical_key(Trigraph(6))  # fills the permutation table behind canonical forms
        self._verified: set[frozenset] = set()

    def solve(self):
        return indsat.search.isat_min(6, self.pattern)

    def check(self, result) -> str | None:
        if result.min_gray != P4_MIN_GRAY_N6:
            return f"min_gray {result.min_gray}, expected {P4_MIN_GRAY_N6}"
        if len(result.witnesses) != P4_WITNESS_CLASSES_N6:
            return f"{len(result.witnesses)} witness classes, expected {P4_WITNESS_CLASSES_N6}"
        forms = frozenset((w.gray, w.black) for w in result.witnesses)
        if forms in self._verified:
            return None
        for gray, black in forms:
            t = Trigraph(6, black, gray)
            if t.gray_count != P4_MIN_GRAY_N6:
                return f"witness has {t.gray_count} gray pairs"
            why = brute_saturation_failure(t)
            if why is not None:
                return f"witness (gray={gray}, black={black}) is not saturated: {why}"
        self._verified.add(forms)
        return None


class VerifyP4N64:
    """``is_indsat`` with P4 on ``construct_tn(64)`` and ``construct_alternative(63)``.

    Both are saturated (the paper's two extremal families), so every
    non-gray pair is flipped whatever the labels: 3,925 flips per solve.
    """

    name = "verify-p4-n64"

    def __init__(self, seed: int) -> None:
        self.phases: dict[str, float] = {}
        rng = random.Random(seed)
        with phase(self.phases, "constructions.build_s"):
            layered = construct_tn(64)[0].permute(permutation(64, rng, seed))
            alternative = construct_alternative(63).permute(permutation(63, rng, seed))
        self.inputs = (layered, alternative)

    def solve(self):
        return [indsat.saturation.is_indsat(t, P4) for t in self.inputs]

    def check(self, reports) -> str | None:
        for label, report in zip(("construct_tn(64)", "construct_alternative(63)"), reports):
            if not report.is_indsat:
                return f"{label} reported not saturated: {report.to_dict()}"
        return None


def gray_book(n: int) -> Trigraph:
    """Vertices 0 and 1 gray to each other and to every other vertex; rest white."""
    return from_pairs(n, gray=[(0, 1)] + [(s, v) for s in (0, 1) for v in range(2, n)])


def gray_star_plus_isolated(n: int) -> Trigraph:
    """Gray star centred at 0 on vertices 0..n-2; vertex n-1 is isolated (all white)."""
    return from_pairs(n, gray=[(0, v) for v in range(1, n - 1)])


class VerifyGenericN64:
    """``is_indsat`` through the generic anchored search: K4 book and K3 star.

    The K4 gray book on 64 vertices has 2*64 - 3 = 125 gray pairs, the
    clique saturation number, and is saturated.  The K3 gray star S_63 plus
    an isolated vertex is not: flipping any pair at the isolated vertex
    creates no triangle.  The relabelling keeps the isolated vertex last,
    so that in colex order its pairs come after every star pair and the
    check still fails late, after the same 1,891 successful flips.
    """

    name = "verify-generic-n64"

    def __init__(self, seed: int) -> None:
        self.phases: dict[str, float] = {}
        rng = random.Random(seed)
        self.k4 = complete_graph(4)
        with phase(self.phases, "constructions.build_s"):
            self.book = gray_book(64).permute(permutation(64, rng, seed))
            self.star = gray_star_plus_isolated(64).permute(permutation(63, rng, seed) + [63])
        self.isolated = 63

    def solve(self):
        return [
            indsat.saturation.is_indsat(self.book, self.k4),
            indsat.saturation.is_indsat(self.star, K3),
        ]

    def check(self, reports) -> str | None:
        book, star = reports
        if not book.is_indsat:
            return f"K4 gray book reported not saturated: {book.to_dict()}"
        if star.is_indsat or not star.holds_free:
            return f"K3 star plus isolated vertex misreported: {star.to_dict()}"
        if star.failing_flip is None or self.isolated not in star.failing_flip:
            return f"failing flip {star.failing_flip} misses the isolated vertex {self.isolated}"
        return None


class DnfP4N6:
    """``min_unassigned`` on the P4 placement formula over K6's 15 pair variables.

    The variables are renamed by the pair map of a vertex permutation.  That
    maps the set of clauses onto itself (only their order changes), so the
    saturated assignments, and the point where the ascending sweep first
    meets one, are the same for every seed.
    """

    name = "dnf-p4-n6"

    def __init__(self, seed: int) -> None:
        self.phases: dict[str, float] = {}
        order = permutation(6, random.Random(seed), seed)
        with phase(self.phases, "patterns.placements_s"):
            formula = indsat.dnf.encode_pattern(6, P4)
        image = [pair_index(order[u], order[v]) for u, v in all_pairs(6)]

        def rename(mask: int) -> int:
            return sum(1 << image[i] for i in range(len(image)) if mask >> i & 1)

        self.formula = indsat.dnf.DnfFormula(
            formula.m, tuple((rename(pos), rename(neg)) for pos, neg in formula.clauses)
        )

    def solve(self):
        return indsat.dnf.min_unassigned(self.formula)

    def check(self, answer) -> str | None:
        if answer != P4_MIN_GRAY_N6:
            return f"min_unassigned {answer}, expected {P4_MIN_GRAY_N6}"
        return None


WORKLOADS = {cls.name: cls for cls in (SearchP4N6, VerifyP4N64, VerifyGenericN64, DnfP4N6)}
