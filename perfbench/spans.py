"""Outside-in span tracer for the benchmark's traced run.

The library carries no tracing of its own, so the traced run wraps layer
entry points from outside.  Each wrapper goes on the name the caller
actually resolves: ``indsat.search`` imports ``flips_all_create`` by name,
so the search's flip checks are wrapped at ``indsat.search.flips_all_create``
and the saturation predicate's at ``indsat.saturation.flips_all_create``.

A span records its name, duration and the span that was open when it
started.  Spans are not stored one by one (the DNF sweep makes over a
million of them); each finished span is folded into a per-(parent, name)
total of calls, wall seconds and self seconds, where self time is the
span's duration minus the time covered by its child spans.

A hook whose target no longer exists (a helper renamed or removed) is
skipped, and every metric that depends on it is reported as absent
(``None``) rather than as a measured zero.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (span name, module, attribute); "Class.method" patches the class attribute.
HOOKS = (
    ("search.black_array", "indsat.search", "_black_array"),
    ("search.screen", "indsat.search", "_no_realization_survivors"),
    ("search.canon", "indsat.search", "canonical_key"),
    ("search.flip_check", "indsat.search", "flips_all_create"),
    ("saturation.cond_a", "indsat.saturation", "_find_injection"),
    ("saturation.flip_loop", "indsat.saturation", "flips_all_create"),
    ("saturation.flip", "indsat.saturation", "_find_injection_through"),
    ("trigraph.flip", "indsat.trigraph", "Trigraph.flip"),
    ("detect.compat", "indsat.detect", "_compat_masks"),
    ("detect.p4", "indsat.detect", "_find_p4"),
    ("detect.p4", "indsat.detect", "_find_p4_through"),
    ("detect.generic", "indsat.detect", "_find_generic"),
    ("dnf.check", "indsat.dnf", "is_saturated"),
    ("dnf.sweep", "indsat.dnf", "min_unassigned"),
)


def _witness(result) -> int:
    failing, _ = result
    return int(failing is None)


# span name -> (counter, function of the wrapped call's result)
OBSERVERS = {
    "search.black_array": ("candidates", len),
    "search.screen": ("survivors", len),
    "search.flip_check": ("witnesses", _witness),
}


def _resolve(module_name: str, attribute: str):
    """(owner, attribute name, original) for a hook target, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = vars(owner).get(attr) if owner is not None else None
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Wraps the hook targets while installed and folds their spans into totals."""

    def __init__(self, hooks=HOOKS) -> None:
        self.missing: set[str] = set()
        self._wrappers = []
        for span, module_name, attribute in hooks:
            target = _resolve(module_name, attribute)
            if target is None:
                self.missing.add(span)
                continue
            owner, attr, original = target
            self._wrappers.append((owner, attr, original, self._wrap(span, original)))
        self.reset()

    def reset(self) -> None:
        # (parent span, span) -> [calls, wall seconds, self seconds]
        self.totals: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int | None] = defaultdict(int)
        self._stack = [["solve", 0.0]]

    def _wrap(self, span: str, fn):
        clock = time.perf_counter
        observer = OBSERVERS.get(span)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = tracer.totals[parent[0], span]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if observer is not None:
                tracer._observe(*observer, result)
            return result

        return traced

    def _observe(self, counter: str, fn, result) -> None:
        if self.counters[counter] is None:
            return
        try:
            self.counters[counter] += fn(result)
        except (TypeError, ValueError):
            self.counters[counter] = None  # the result no longer has the shape read here

    def install(self) -> None:
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._wrappers:
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Per-span calls, self seconds and wall seconds since the last reset."""
        spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, span), (calls, wall, own) in self.totals.items():
            rec = spans[span]
            rec[0] += calls
            rec[1] += own
            rec[2] += wall
        return {"spans": dict(spans), "counters": dict(self.counters)}


def layer_metrics(snapshot: dict, missing: set[str]) -> dict[str, float | int | None]:
    """The per-layer metrics of one traced solve; None where a hook is missing."""
    spans, counters = snapshot["spans"], snapshot["counters"]

    def span(name, field):  # field 0: calls, 1: self seconds, 2: wall seconds
        return None if name in missing else spans.get(name, (0, 0.0, 0.0))[field]

    def calls(name):
        return span(name, 0)

    def self_s(name):
        return span(name, 1)

    def counter(name, hook):
        return None if hook in missing else counters.get(name, 0)

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    candidates = counter("candidates", "search.black_array")
    survivors = counter("survivors", "search.screen")
    flip_checks = calls("search.flip_check")
    flips = calls("saturation.flip")
    generic = calls("detect.generic")
    return {
        "search.gray_sets": calls("search.black_array"),
        "search.candidates": candidates,
        "search.black_array_s": self_s("search.black_array"),
        "search.screen_s": self_s("search.screen"),
        "search.survivors": survivors,
        "search.survivor_ratio": ratio(survivors, candidates),
        "search.canon_calls": calls("search.canon"),
        "search.canon_s": self_s("search.canon"),
        "search.flip_checks": flip_checks,
        "search.flip_check_s": self_s("search.flip_check"),
        "search.witness_ratio": ratio(counter("witnesses", "search.flip_check"), flip_checks),
        "saturation.flips": flips,
        "saturation.cond_a_s": span("saturation.cond_a", 2),
        "saturation.flip_loop_s": self_s("saturation.flip_loop"),
        "trigraph.flip_calls": calls("trigraph.flip"),
        "trigraph.flip_s": self_s("trigraph.flip"),
        "detect.compat_calls": calls("detect.compat"),
        "detect.compat_s": self_s("detect.compat"),
        "detect.p4_calls": calls("detect.p4"),
        "detect.p4_s": self_s("detect.p4"),
        "detect.generic_calls": generic,
        "detect.generic_s": self_s("detect.generic"),
        "detect.generic_per_flip": ratio(generic, flips),
        "dnf.checks": calls("dnf.check"),
        "dnf.check_s": self_s("dnf.check"),
        "dnf.sweep_s": self_s("dnf.sweep"),
    }
