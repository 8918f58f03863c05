"""Koszul factorizations, curved structure sheaves, and folding.

Two roads to the same matrix factorization of W = <alpha, beta>: the
exterior-algebra Koszul construction, and curving the structure sheaf of the
derived zero locus Z(beta) by f = sum alpha_k e_k and folding the 2-periodic
structure.  The library guarantees the two agree bit-for-bit.
"""

from dgmf import (CyclotomicField, PolyRing, derived_zero_locus,
                  dgmf_from_homotopy, fold_to_mf, koszul_mf, mf_tensor,
                  point_verdict, support_check)

F = CyclotomicField(1)
R = PolyRing(F, ["x", "y"], [1, 1])
x, y = R.gen("x"), R.gen("y")

print("== the Koszul factorization {(x^2, y), (x, y)} ==")
mf = koszul_mf(R, [x * x, y], [x, y])
mf.verify()
print(f"potential  W = {mf.potential}")
print(f"rank       ({mf.rank0}|{mf.rank1})")
print(f"delta0     {[[str(c) for c in row] for row in mf.delta0]}")

print("\n== the same object by curving and folding ==")
scheme = derived_zero_locus(R, [x, y])
f = (x * x) * scheme.odd_coordinate(0) + y * scheme.odd_coordinate(1)
curved = dgmf_from_homotopy(scheme, f)          # curvature d(f), an even function
folded = fold_to_mf(curved)                     # certifies delta^2 = d(f) . id
print(f"curvature  d(f) = {curved.curvature}")
print(f"bit-exact match with the Koszul path: "
      f"{folded.delta0 == mf.delta0 and folded.delta1 == mf.delta1}")

print("\n== tensor products add potentials ==")
a = koszul_mf(R, [x], [x])
b = koszul_mf(R, [y], [y])
t = mf_tensor(a, b)
t.verify()
print(f"W(a) = {a.potential},  W(b) = {b.potential},  W(a@b) = {t.potential}")

print("\n== support: contractible exactly away from the zero locus ==")
for pt in ([F.zero, F.zero], [F.one, F.scalar(2)]):
    print(f"at {[str(c) for c in pt]}: {point_verdict(t, pt)}")
report = support_check(t, [[F.one, F.one]], degree_bound=2)
h = report[0]["certificate"]
print(f"homotopy certificate found at (1, 1): {h is not None}")
