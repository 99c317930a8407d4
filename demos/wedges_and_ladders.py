#!/usr/bin/env python3
"""Low-level machinery: wedge straightening, ladders, weights, the form.

Shows the two worked lowering actions at h = 5 (including the sign that
appears when a wedge word needs reordering), the ladder diagram of
(11 7 7 4) at h = 7, and how the diagonal form values detect ghosts.
"""

from spinfock.fock import FockVector, apply_f, normal_order, norm_squared, weight
from spinfock.partitions import format_partition, ladder_index, ladders, residue

print("lowering at h=5 (rank 2):")
for lam in ((5, 4, 2), (5, 5, 2)):
    out = apply_f(5, 2, FockVector.basis(lam))
    print(f"  f_2 |{format_partition(lam)}> = {out!r}")
print("the (1-q^4) above comes from a straightening sign:")
print(f"  word (5,6,2) normal-orders to {normal_order((5, 6, 2), 5)!r}\n")

lam, h = (11, 7, 7, 4), 7
print(f"ladder diagram of {format_partition(lam)} at h={h} "
      "(cells shown as residue_ladder):")
for row in range(len(lam), 0, -1):
    cells = [f"{residue(h, c)}_{ladder_index(h, row, c)}"
             for c in range(lam[row - 1])]
    print("  " + " ".join(cell.ljust(4) for cell in cells))
dec = ladders(h, lam)
print(f"{len(dec.indices)} ladders; the 7th has residue/count {dec.steps[6]}")
print(f"monomial: {dec.monomial()} |0>\n")

print("weights and the diagonal form at h=3:")
for lam in ((5, 4, 1), (3, 3, 3, 1), (3, 3)):
    v = FockVector.basis(lam)
    n2 = norm_squared(3, lam)
    ghost = "ghost" if n2.at_one() == 0 else "survives"
    print(f"  |{format_partition(lam)}>  weight {weight(3, v)}  "
          f"form value {n2}  at q=1 -> {n2.at_one()} ({ghost})")
