"""The five local update rules on eigen lists.

Runs the worked example over Z3 x Z2: a check factor produces a heralded
mixture, an equality factor a single sharper list, and a homomorphism factor
a coset-indexed ensemble.  Every output is a valid message (probabilities on
the simplex, each list summing to the group order).
"""

import numpy as np

from abelianbp import (
    EigenList,
    GroupSpec,
    HomSpec,
    apply_automorphism,
    avg_holevo,
    check_combine,
    equality_combine,
    holevo_info,
    hom_push,
    inversion_automorphism,
    lift_along_hom,
    marginalize_split,
    merge_duplicates,
    pgm_error,
    projection_hom,
)

G = GroupSpec((3, 2))
lam1 = EigenList(G, [2, 1, 0, 2, 1, 0])
lam2 = EigenList(G, [2, 0, 1, 1, 0, 2])
print(f"inputs on {G}:")
print("  lam1 =", lam1.values, f" I = {holevo_info(lam1):.4f} bits")
print("  lam2 =", lam2.values, f" I = {holevo_info(lam2):.4f} bits")

print("\n--- check factor: heralded mixture over the dual group ---")
msg = check_combine(lam1, lam2)
merged = merge_duplicates(msg)
for p, lam, heralds in zip(merged.probs.tolist(), merged.lams, merged.labels):
    print(f"  p = {p:.4f}  lam = {np.round(lam, 4)}  heralds {heralds}")
print(f"  herald-averaged information: {avg_holevo(msg):.4f} bits")

print("\n--- equality factor: one combined channel ---")
eq = equality_combine(lam1, lam2)
print("  lam =", eq.values, f" I = {holevo_info(eq):.4f} bits,",
      f"PGM error = {pgm_error(eq):.4f}")

total_in = holevo_info(lam1) + holevo_info(lam2)
minus = check_combine(lam1, apply_automorphism(lam2, inversion_automorphism(G)))
print(f"\nconservation: I(minus) + I(plus) = {avg_holevo(minus) + holevo_info(eq):.10f}"
      f" vs I1 + I2 = {total_in:.10f}")

print("\n--- homomorphism factor on Z4 x Z3 x Z2 ---")
G1, G2 = GroupSpec((4, 3, 2)), GroupSpec((4, 3))
phi = HomSpec(G1, G2, ((1, 0, 2), (0, 1, 0)))
vals = np.zeros(24)
for u in range(4):
    for v in range(3):
        for w in range(2):
            vals[G1.index_of((u, v, w))] = {(0, 0): 2, (1, 1): 2, (2, 0): 1,
                                            (0, 1): 1, (2, 1): 1, (3, 1): 1}.get((u, w), 0)
pushed = hom_push(EigenList(G1, vals), phi)
for p, lam, heralds in zip(pushed.probs.tolist(), pushed.lams, pushed.labels):
    print(f"  herald {heralds[0]}: p = {p:.4f}, list sums to {lam.sum():.1f} on {G2}")

print("\n--- lift and marginalize round trip on Z3 x Z2 ---")
proj = projection_hom(G, (0,))
lifted = lift_along_hom(EigenList(GroupSpec((3,)), [1, 1, 1]), proj)
print("  lift of the perfect Z3 list:", lifted.values)
marg = marginalize_split(lifted, 1)
print("  marginalizing back:", [(round(p, 4), lam.tolist())
                                for p, lam in zip(marg.probs.tolist(), marg.lams)])
