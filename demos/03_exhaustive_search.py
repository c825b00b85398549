#!/usr/bin/env python3
"""Exact minimum-gray values for small n, with two independent routes.

The search runs the DNF saturation kernel on one gray set per isomorphism
class of gray graphs; the naive route sweeps all 3^C(n,2) trigraphs with
no reductions at all.  They must agree exactly.
"""

import time

from indsat import P4, enumerate_indsat, isat_min, isat_min_naive
from indsat.facts import run_fact_checks

print("== exact values (pruned search) ==")
for n in (4, 5, 6, 7):
    start = time.perf_counter()
    res = isat_min(n, P4, label="p4")
    print(
        f"  n={n}: min gray = {res.min_gray}, {len(res.witnesses)} canonical witnesses, "
        f"{res.stats['gray_classes']} gray classes searched, {time.perf_counter()-start:.2f}s"
    )

print()
print("== agreement with the naive sweep ==")
for n in (4, 5):
    pruned = isat_min(n, P4)
    naive = isat_min_naive(n, P4)
    print(
        f"  n={n}: values {pruned.min_gray} == {naive.min_gray}, "
        f"witness sets equal: {pruned.witnesses == naive.witnesses}"
    )

print()
print("== every saturated trigraph on 4 vertices, by gray count ==")
for k in range(7):
    forms = enumerate_indsat(4, P4, k)
    if forms:
        print(f"  k={k}: {len(forms)} canonical witnesses")

print()
print("== structural checks over the full witness corpus ==")
for n in (4, 5, 6):
    rep = run_fact_checks(n)
    print(f"  n={n}: {rep.witnesses} witnesses, all checks clean: {rep.ok}")
