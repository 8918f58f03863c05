"""Sheaves on a pair (X, Y) and the sections-with-support functor.

An object is (F_alpha, F_beta, phi) with phi the comparison map toward the
closed piece; Rj^! is the cone of phi shifted down.  The demo walks the
defining triangle and the acyclic-resolution oracle.
"""

import random

from dgmf import (ChainMap, CyclotomicField, FreeComplex, PairObject, PolyRing,
                  canonical_resolution, homology_ranks, rj_shriek,
                  rj_shriek_triangle_exact, unit_pair)
from dgmf.complexes import Generator

F = CyclotomicField(1)
PT = PolyRing(F, [], [])

print("== the unit pair: Rj^! of (O_Y, O_X, restriction) is acyclic ==")
u = unit_pair(PT)
print(f"homology of Rj^!(unit): {homology_ranks(rj_shriek(u))}")

print("\n== a pair with interesting sections-with-support ==")
fa = FreeComplex(PT, {0: [Generator("s", 0)]}, {})
fb = FreeComplex(PT, {0: [Generator("g0", 0), Generator("g1", 0)]}, {})
phi = ChainMap(fb, fa, {0: [[1, 1]]})     # restriction adds the two branches
p = PairObject(fa, fb, phi)
print(f"H(Rj^! P) = {homology_ranks(rj_shriek(p))}")
print(f"defining triangle exact on homology: {rj_shriek_triangle_exact(p)}")

print("\n== the resolution oracle ==")
middle, quotient = canonical_resolution(p)
print("0 -> P -> middle -> (0, i_* F_alpha) -> 0 with surjective middle map")
print(f"chi Rj^!(P)        = {rj_shriek(p).euler_characteristic()}")
print(f"chi Rj^!(middle)   = {rj_shriek(middle).euler_characteristic()}")
print(f"chi Rj^!(quotient) = {rj_shriek(quotient).euler_characteristic()}")
print("additive along the sequence, as exactness of Rj^! demands")
