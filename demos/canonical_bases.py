#!/usr/bin/env python3
"""Compute canonical basis vectors and watch the triangular process work.

Degree 9 at h = 3 is the first place the intermediate vector differs from
the canonical one: A(3321) needs a single bar-invariant correction by the
column of (531).  Degree 10 produces the full 12 x 4 matrix.
"""

from spinfock.canonical import (
    CanonicalBasis,
    a_vector,
    canonical_basis,
    check_basis_matrix,
)
from spinfock.partitions import format_partition, ladders

H = 3

# the ladder monomial that builds the intermediate vector
mu = (3, 3, 2, 1)
print(f"A{format_partition(mu)} = {ladders(H, mu).monomial()} |0>")
A = a_vector(H, mu)
print(f"A{format_partition(mu)} = {A!r}\n")

M9 = canonical_basis(H, 9)
G = M9.column(mu)
print(f"G{format_partition(mu)} = {G!r}")
diff = A - G
print(f"correction A - G      = {diff!r}")
print(f"equals the (531) column: {diff == M9.column((5, 3, 1))}\n")

M10 = canonical_basis(H, 10)
print("canonical basis, h=3, degree 10:")
print(M10.render_table())
report = check_basis_matrix(M10)
print(f"matrix checks: {report}")

# the slow route (every intermediate vector built from the vacuum) agrees
slow = CanonicalBasis(H, fast=False).matrix(10)
print(f"slow route agrees with fast route: {slow == M10}")
