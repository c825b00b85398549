#!/usr/bin/env python3
"""Saturation as a statement about partial assignments of a DNF formula.

Encode each potential induced placement of a pattern as a conjunction
over pair variables (positive on its edges, negative on its nonedges).
A partial assignment is saturated when no completion satisfies any
clause, yet freeing any one assigned variable makes some clause
completable.  Under black=true / white=false / gray=unassigned this is
exactly induced saturation of trigraphs.
"""

from indsat import P4, construct_tn, is_indsat
from indsat.dnf import (
    assignment_of,
    dumps,
    encode_pattern,
    is_saturated,
    min_unassigned,
    trigraph_of,
)

print("== the encoding over C(4,2) = 6 pair variables ==")
f = encode_pattern(4, P4)
print(dumps(f), end="")

print()
print("== the extremal trigraph's assignment is saturated ==")
t, _ = construct_tn(4)
a = assignment_of(t)
print("assignment:", a.to_string(), "(1=black, 0=white, -=gray)")
print("saturated:", is_saturated(f, a))
print("round trip:", trigraph_of(4, a) == t)

print()
print("== the correspondence is bit-exact over all 3^6 assignments ==")
from indsat.trigraph import pair_count
from itertools import product

mismatches = 0
for digits in product("10-", repeat=pair_count(4)):
    from indsat.dnf import assignment_from_string

    a = assignment_from_string("".join(digits))
    if is_saturated(f, a) != is_indsat(trigraph_of(4, a), P4).is_indsat:
        mismatches += 1
print("mismatches:", mismatches)

print()
print("== minimizing the number of unassigned variables ==")
print("n=4:", min_unassigned(encode_pattern(4, P4)))
print("n=5:", min_unassigned(encode_pattern(5, P4)))
print("n=6:", min_unassigned(encode_pattern(6, P4)))
print("n=7:", min_unassigned(encode_pattern(7, P4)))
print("(all equal the minimum gray counts found by the trigraph search)")
