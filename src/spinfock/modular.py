"""Specialization at q = 1 and the spin-character bookkeeping.

Ghosts, the non-strict labels, span the null space of the natural form at
q = 1 and are dropped by the quotient map; a surviving strict label lam
contributes on the self-associate character basis with the power-of-two
scale 2^(b(lam) - a_p(lam)).  Character vectors are plain dicts {strict
partition: coefficient}.  The classical part-replacement action is the
cross-check of this quotient (the intertwiner check of `verify`).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from .fock import FockVector
from .laurent import _accumulate
from .canonical import CanonicalBasis, a_vector, render_csv, render_table
from . import partitions as pt
from . import crystal


def dp_sign(lam) -> int:
    """+1 when the number of even parts is even (self-associate class)."""
    return -1 if sum(1 for p in lam if p % 2 == 0) % 2 else 1


def character_image(p: int, vec: FockVector) -> dict:
    """Push a Fock vector to the character space at q = 1.

    Ghost labels are dropped; a strict label lam with coefficient c(q) maps
    to 2^(b(lam) - a_p(lam)) * c(1) on the self-associate character of lam.
    """
    pt.check_h(p)
    out = {}
    for lam, value in vec.at_one().items():
        if not pt.is_strict(lam):
            continue
        e = pt.b_exponent(lam) - pt.a_h(p, lam)
        if e < 0:
            raise ValueError(f"negative two-power exponent at {lam}")
        out[lam] = (2 ** e) * value
    return out


def strip_two_power(cv: dict) -> dict:
    """Divide out the largest power of 2 dividing all coefficients; zero
    coefficients are dropped."""
    cv = {lam: v for lam, v in cv.items() if v}
    if not cv:
        raise ValueError("cannot normalize the zero character vector")
    k = min((v & -v).bit_length() for v in cv.values()) - 1
    return {lam: v >> k for lam, v in cv.items()}


@dataclass(frozen=True)
class ReducedMatrix:
    """Columns over DPR_p(m), rows over all strict partitions of m."""

    p: int
    m: int
    labels: tuple
    columns: dict

    def row_labels(self) -> list:
        return pt.enumerate_dp(self.m)

    def entry(self, lam, mu) -> int:
        return self.columns[tuple(mu)].get(tuple(lam), 0)

    def negative_entries(self) -> list:
        """Witnesses against the projective-character interpretation."""
        return [(lam, mu) for mu in self.labels
                for lam, v in self.columns[mu].items() if v < 0]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "columns": [
                {
                    "label": list(mu),
                    "entries": [
                        {"row": list(lam), "value": self.columns[mu][lam]}
                        for lam in sorted(self.columns[mu], reverse=True)
                    ],
                }
                for mu in self.labels
            ],
        }

    def render_table(self) -> str:
        return render_table(
            self, lambda lam: f"<{pt.format_partition(lam)[1:-1]}>")

    def to_csv(self) -> str:
        return render_csv(self)


def reduced_matrix(p: int, m: int, solver: CanonicalBasis = None) -> ReducedMatrix:
    """Conjectural reduced decomposition matrix: normalized q = 1 columns.

    p is only required to be odd; the representation-theoretic reading needs
    p prime, but the computation is uniform.
    """
    solver = solver or CanonicalBasis(p)
    if solver.h != p:
        raise ValueError(f"reduced matrix at p={p} needs a solver at h={p}, "
                         f"got h={solver.h}")
    M = solver.matrix(m)
    cols = {}
    for mu in M.labels:
        cv = character_image(p, M.columns[mu])
        cols[mu] = strip_two_power(cv) if cv else {}
    return ReducedMatrix(p, m, M.labels, cols)


# -- external decomposition-matrix fixtures ---------------------------------

@dataclass(frozen=True)
class ExternalMatrix:
    """Raw decomposition matrix with possibly paired rows and columns.

    Labels are (partition, primed) pairs; primed marks the associate twin.
    """

    row_labels: tuple
    col_labels: tuple
    entries: tuple          # tuple of row tuples of ints


def parse_external_csv(text: str) -> ExternalMatrix:
    """Read the CSV fixture format: primes marked by a trailing apostrophe."""

    def parse_label(s):
        s = s.strip()
        primed = s.endswith("'")
        return pt.parse_partition(s.rstrip("'")), primed

    rows = [r for r in csv.reader(io.StringIO(text)) if any(c.strip() for c in r)]
    col_labels = tuple(parse_label(c) for c in rows[0][1:])
    row_labels = []
    entries = []
    for r in rows[1:]:
        row_labels.append(parse_label(r[0]))
        entries.append(tuple(int(x) for x in r[1:]))
    return ExternalMatrix(tuple(row_labels), col_labels, tuple(entries))


def reduce_external_matrix(ext: ExternalMatrix, p: int) -> ReducedMatrix:
    """Sum associate column pairs and merge associate row pairs.

    A merged row pair must carry equal entries in every summed column; a
    mismatch, a pairing that contradicts the parity class of the row label,
    or a dangling prime is reported as inconsistent data.
    """
    pt.check_h(p)
    degrees = {sum(lam) for lam, _ in ext.row_labels}
    if len(degrees) != 1:
        raise ValueError("fixture rows must share one degree")
    m = degrees.pop()

    col_index = {}
    for j, (mu, _) in enumerate(ext.col_labels):
        col_index.setdefault(mu, []).append(j)
    col_bases = sorted(col_index, reverse=True)

    row_index = {}
    for i, (lam, primed) in enumerate(ext.row_labels):
        row_index.setdefault(lam, {})[primed] = i
    for lam, versions in row_index.items():
        if not pt.is_strict(lam):
            raise ValueError(f"row label {lam} is not strict")
        paired = len(versions) == 2
        if paired != (dp_sign(lam) < 0):
            raise ValueError(f"row {lam}: pairing contradicts its parity class")

    columns = {}
    for mu in col_bases:
        col = {}
        for lam, versions in row_index.items():
            summed = {primed: sum(ext.entries[i][j] for j in col_index[mu])
                      for primed, i in versions.items()}
            if len(summed) == 2:
                plain, primed = summed[False], summed[True]
                if plain != primed:
                    raise ValueError(
                        f"row pair {lam}: unequal merged entries {plain} != {primed}")
                value = plain
            else:
                value = next(iter(summed.values()))
            if value:
                col[lam] = value
        columns[mu] = col
    return ReducedMatrix(p, m, tuple(col_bases), columns)


# -- classical part-replacement action ---------------------------------------

def classical_f(p: int, i: int, v: dict) -> dict:
    """Classical lowering: in each label a part j with residue(p, j) == i
    becomes j + 1 (j = 0 appends a part 1); a label that would repeat a
    part dies.  Coefficients pass through, so ints and Fractions both work.
    """
    pt.check_color(p, i)
    out = {}
    for lam, c in v.items():
        for j in set(lam) | {0}:
            if pt.residue(p, j) == i and j + 1 not in lam:
                mu = (tuple(x + 1 if x == j else x for x in lam) if j
                      else lam + (1,))
                _accumulate(out, mu, c)
    return out


def classical_e(p: int, i: int, v: dict) -> dict:
    """Classical raising: in each label a part j + 1 with residue(p, j) == i
    becomes j (j = 0 deletes it); a label that would repeat a part dies.
    For i = n every positive j enters with multiplicity 2.
    """
    n = pt.check_color(p, i)
    out = {}
    for lam, c in v.items():
        for x in lam:
            j = x - 1
            if pt.residue(p, j) == i and j not in lam:
                mu = tuple(j if y == x else y for y in lam) if j else lam[:-1]
                _accumulate(out, mu, 2 * c if i == n and j else c)
    return out


def classical_image(p: int, vec: FockVector) -> dict:
    """Quotient map at q = 1 onto the classical P-basis: the character image
    divided by 2^b(lam), so a strict label lam maps to 2^(-a_p(lam)) P_lam
    and a ghost to zero.  Coefficients are exact Fractions.
    """
    return {lam: Fraction(value, 2 ** pt.b_exponent(lam))
            for lam, value in character_image(p, vec).items()}


# -- counting and rank reports ------------------------------------------------

def odd_series_coefficients(p: int, max_m: int) -> list:
    """Coefficients of prod over odd i not divisible by p of 1/(1 - t^i)."""
    pt.check_h(p)
    coeffs = [0] * (max_m + 1)
    coeffs[0] = 1
    for i in range(1, max_m + 1, 2):
        if i % p == 0:
            continue
        for m in range(i, max_m + 1):
            coeffs[m] += coeffs[m - i]
    return coeffs


@dataclass(frozen=True)
class CountReport:
    p: int
    max_m: int
    regular_counts: tuple
    series_coefficients: tuple
    crystal_counts: tuple
    ok: bool


def count_consistency_report(p: int, max_m: int) -> CountReport:
    """Compare |DPR_p(m)|, the odd-part series, and crystal layer sizes."""
    reg = tuple(len(pt.enumerate_dpr_h(p, m)) for m in range(max_m + 1))
    ser = tuple(odd_series_coefficients(p, max_m))
    graph = crystal.component(p, (), max_m)
    counts = graph.degree_counts()
    cry = tuple(counts.get(m, 0) for m in range(max_m + 1))
    return CountReport(p, max_m, reg, ser, cry, reg == ser == cry)


def _rational_rank(rows: list) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    rank_ = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank_, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank_], mat[pivot] = mat[pivot], mat[rank_]
        inv = 1 / mat[rank_][col]
        mat[rank_] = [x * inv for x in mat[rank_]]
        for r in range(len(mat)):
            if r != rank_ and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank_])]
        rank_ += 1
    return rank_


@dataclass(frozen=True)
class IndependenceReport:
    p: int
    m: int
    rank: int
    expected: int
    ok: bool


def independence_report(p: int, m: int) -> IndependenceReport:
    """Rank of the intermediate vectors pushed to the character space.

    The columns character_image(A(mu)) over mu in DPR_p(m) must be linearly
    independent over the rationals.
    """
    labels = pt.enumerate_dpr_h(p, m)
    rows = pt.enumerate_dp(m)
    idx = {lam: i for i, lam in enumerate(rows)}
    cols = []
    for mu in labels:
        cv = character_image(p, a_vector(p, mu))
        col = [0] * len(rows)
        for lam, v in cv.items():
            col[idx[lam]] = v
        cols.append(col)
    rank_ = _rational_rank(cols)
    return IndependenceReport(p, m, rank_, len(labels), rank_ == len(labels))
