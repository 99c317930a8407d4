"""Specialization at q = 1 and the spin-character bookkeeping.

character_image drops ghost (non-strict) labels and scales a strict label
lam by 2^(b(lam) - a_p(lam)); ReducedMatrix.of normalizes each canonical
column so, and reduce_external_matrix reduces a CSV decomposition matrix
to the same columns.  Character vectors are {strict partition: int} dicts.
"""

from __future__ import annotations

import io
from collections import namedtuple

from .fock import FockVector
from .laurent import _accumulate
from .canonical import CanonicalBasis, matrix_lines
from . import partitions as pt


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
        if e < 0:   # a_p(lam) <= floor((m - len)/3) <= b(lam) for odd p >= 3
            raise pt.InvariantError(
                f"negative two-power exponent {e} at p={p}, label {lam}")
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


class ReducedMatrix(namedtuple("ReducedMatrix", "p m labels columns")):
    """Columns over DPR_p(m), rows over all strict partitions of m."""

    __slots__ = ()

    @classmethod
    def of(cls, M) -> ReducedMatrix:
        """The normalized q = 1 columns of a solved matrix M, at p = M.h."""
        cvs = {mu: character_image(M.h, M.columns[mu]) for mu in M.labels}
        return cls(M.h, M.m, M.labels, {mu: strip_two_power(cv) if cv else {}
                                        for mu, cv in cvs.items()})

    def row_labels(self) -> list:
        return pt.enumerate_dp(self.m)

    def entry(self, lam, mu) -> int:
        return self.columns[tuple(mu)].get(tuple(lam), 0)

    def negative_entries(self) -> list:
        """Witnesses against the projective-character interpretation, in
        printed order: columns as labelled, rows in decreasing lex."""
        return [(lam, mu) for mu in self.labels
                for lam in sorted((lam for lam, v in self.columns[mu].items()
                                   if v < 0), reverse=True)]

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

    def lines(self, fmt):
        """The table (rows named <3 2 1>) or CSV, one line per piece."""
        return matrix_lines(
            self, fmt, lambda lam: f"<{pt.format_partition(lam)[1:-1]}>",
            dict.items)

    def render_table(self) -> str:
        return "".join(self.lines("table"))

    def to_csv(self) -> str:
        return "".join(self.lines("csv"))


def reduced_matrix(p: int, m: int) -> ReducedMatrix:
    """Conjectural reduced decomposition matrix: normalized q = 1 columns.

    p is only required to be odd; the representation-theoretic reading needs
    p prime, but the computation is uniform.
    """
    return ReducedMatrix.of(CanonicalBasis(p).matrix(m))


# -- external decomposition-matrix fixtures ---------------------------------

def _twins(cells, kind: str) -> dict:
    """{partition: {primed: position}} of labels where a trailing apostrophe
    marks the associate twin; a repeated label or a prime without its
    unprimed twin is inconsistent data."""
    out = {}
    for k, cell in enumerate(cells):
        s = cell.strip()
        primed = s.endswith("'")
        versions = out.setdefault(pt.parse_partition(s.rstrip("'")), {})
        if primed in versions:
            raise ValueError(f"{kind} label {s!r} is repeated")
        versions[primed] = k
    for lam, versions in out.items():
        if False not in versions:
            raise ValueError(f"{kind} {lam}: primed label without its unprimed twin")
    return out


def reduce_external_matrix(text: str, p: int) -> ReducedMatrix:
    """Read a decomposition matrix in the CSV fixture format and reduce it.

    The first line holds the column labels after an empty corner cell, each
    further line a row label and one integer entry per column; a trailing
    apostrophe marks the associate twin of a label.  Associate column pairs
    are summed and associate row pairs merged.  A merged row pair must
    carry equal entries in every summed column; a mismatch, a pairing that
    contradicts the parity class of the row label, a column label outside
    DPR_p(m), a dangling prime, a repeated label, a row whose length
    differs from the header's, an entry that is not an integer, or text
    with no header or no rows is reported as inconsistent data
    (ValueError).
    """
    import csv      # only this reader needs it; not loaded at start-up
    pt.check_h(p)
    lines = [r for r in csv.reader(io.StringIO(text)) if any(c.strip() for c in r)]
    if not lines:
        raise ValueError("external matrix has no header line")
    header, body = lines[0], lines[1:]
    if not body:
        raise ValueError("external matrix has no rows")
    for r in body:
        if len(r) != len(header):
            raise ValueError(f"row {r[0].strip()!r}: {len(r) - 1} entries "
                             f"under {len(header) - 1} column labels")
    col_index = _twins(header[1:], "column")
    row_index = _twins([r[0] for r in body], "row")
    entries = [[_entry(x, r[0], c) for x, c in zip(r[1:], header[1:])]
               for r in body]
    degrees = {sum(lam) for lam in row_index}
    if len(degrees) != 1:
        raise ValueError("fixture rows must share one degree")
    m = degrees.pop()
    for lam, versions in row_index.items():
        if not pt.is_strict(lam):
            raise ValueError(f"row label {lam} is not strict")
        if (len(versions) == 2) != (dp_sign(lam) < 0):
            raise ValueError(f"row {lam}: pairing contradicts its parity class")

    col_bases = sorted(col_index, reverse=True)
    columns = {}
    for mu in col_bases:
        if sum(mu) != m or not pt.in_dpr_h(p, mu):
            raise ValueError(f"column {mu} is not in DPR_{p}({m})")
        col = {}
        for lam, versions in row_index.items():
            plain, *twin = [sum(entries[i][j] for j in col_index[mu].values())
                            for _, i in sorted(versions.items())]
            if twin and twin[0] != plain:
                raise ValueError(
                    f"row pair {lam}: unequal merged entries {plain} != {twin[0]}")
            if plain:
                col[lam] = plain
        columns[mu] = col
    return ReducedMatrix(p, m, tuple(col_bases), columns)


def _entry(text, row, column) -> int:
    """The integer in one CSV cell; the error names its row and column."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"row {row.strip()!r}, column {column.strip()!r}: "
                         f"entry {text!r} is not an integer") from None


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
    from fractions import Fraction      # not loaded at start-up
    return {lam: Fraction(value, 2 ** pt.b_exponent(lam))
            for lam, value in character_image(p, vec).items()}


# -- label counts -------------------------------------------------------------

def odd_series_coefficients(p: int, max_m: int) -> list:
    """Coefficients of prod over odd i not divisible by p of 1/(1 - t^i)."""
    pt.check_h(p)
    coeffs = [0] * (pt.check_degree(max_m) + 1)
    coeffs[0] = 1
    for i in range(1, max_m + 1, 2):
        if i % p == 0:
            continue
        for m in range(i, max_m + 1):
            coeffs[m] += coeffs[m - i]
    return coeffs
