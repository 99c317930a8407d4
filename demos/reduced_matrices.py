#!/usr/bin/env python3
"""From canonical columns to reduced decomposition matrices at q = 1.

Ghost rows (labels with a repeated part) die in the quotient; surviving
coefficients pick up a power of two and the largest common power of two is
then factored out of each column.  The degree-10, characteristic-3 matrix
is compared against the bundled external matrix reduced the same way, and
the degree-11 columns are exported for comparison with outside tables.
"""

import json

from spinfock import fixtures as fx
from spinfock import modular
from spinfock.canonical import canonical_basis
from spinfock.partitions import format_partition

P = 3

M = canonical_basis(P, 10)
mu = (3, 3, 3, 1)
print(f"canonical column {format_partition(mu)} at q=1, ghosts dropped:")
cv = modular.character_image(P, M.column(mu))
for lam in sorted(cv, reverse=True):
    print(f"  {cv[lam]:3d} <{format_partition(lam)[1:-1]}>")
print("after factoring out the two-power:",
      {format_partition(k): v for k, v in
       sorted(modular.strip_two_power(cv).items(), reverse=True)})

print("\nreduced decomposition matrix, p=3, degree 10:")
R = modular.reduced_matrix(P, 10)
print(R.render_table())

reduced_ext = modular.reduce_external_matrix(fx.DECOMP_S10_P3_CSV, P)
print("matches the reduced external matrix:", reduced_ext == R)

R11 = modular.reduced_matrix(P, 11)
print(f"\ndegree-11 columns (for external comparison): "
      f"{[format_partition(mu) for mu in R11.labels]}")
print("external columns are known to combine these normalized columns:")
for combo in fx.M11_P3_EXTERNAL_COMBINATIONS:
    print("  " + " + ".join(format_partition(mu) for mu in combo))
print("\nJSON export of the degree-11 matrix is "
      f"{len(json.dumps(R11.to_json()))} bytes")
