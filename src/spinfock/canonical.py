"""Canonical basis of the vacuum component, by triangular reduction.

For each h-regular label mu an intermediate bar-invariant vector A(mu) is
built by applying the divided powers read off the ladders of mu (either to
the vacuum, or, faster, the outermost ladder to the already-known canonical
vector of the stripped label).  Labels of one degree are then processed in
decreasing lex order: from the current vector subtract, for every
lex-greater canonical label s in the same residue-content block and in
increasing lex order, symmetrize_tail(coefficient at s) times G(s).  Each
coefficient at a canonical label is touched exactly once, and the final
column must be unitriangular with every off-diagonal entry in qZ[q].

The fast route applies f_i^(k) label by label and memoises each image
f_i^(k)|lam> for one degree only.  A key (i, k, lam) with |lam| = m - k
yields degree-m vectors, so it never recurs in another degree; a memo
kept for the solver's lifetime would only hold dead entries and push the
peak resident set up.  Each column is built in one mutable accumulator
(laurent.PolyAccumulator) that takes both the intermediate vector's
linear combination and every scale-and-subtract of the reduction, and is
frozen into a FockVector once, before the column is validated.  Residue
contents are cached per label for the solver's lifetime.

One generator, column_failures, states the five column conditions: the
solver raises on the first failure of each new column, check_basis_matrix
reports every failure of a finished matrix.  Its triangularity check reads
each row's running sums against the partial sums of the column label,
computed once per column, rather than calling partitions.dominance_leq
per row.  render_table and render_csv also render modular.ReducedMatrix.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from itertools import accumulate
from operator import ge

from .laurent import LaurentPoly, ONE, PolyAccumulator, symmetrize_tail
from .fock import FockVector, apply_f_divided
from . import partitions as pt


class CanonicalBasisError(RuntimeError):
    """A computed column violated triangularity, integrality or block purity."""


def a_vector(h: int, mu) -> FockVector:
    """Intermediate vector: the full ladder monomial applied to the vacuum."""
    dec = pt.ladders(h, mu)                 # the DP_h check of mu
    if not pt.in_dpr_h(h, dec.partition):
        raise ValueError(f"{dec.partition} is not {h}-regular")
    v = FockVector.basis(())
    for res, cnt in dec.steps:
        v = apply_f_divided(h, res, cnt, v)
    return v


def render_table(M, row_name) -> str:
    """Aligned text table of M; `row_name` formats the row labels."""
    rows = M.row_labels()
    names = [row_name(lam) for lam in rows]
    heads = [pt.format_partition(mu) for mu in M.labels]
    cells = [[str(M.entry(lam, mu)) for mu in M.labels] for lam in rows]
    name_w = max(map(len, names), default=2)
    widths = [max([len(heads[j])] + [len(row[j]) for row in cells])
              for j in range(len(heads))]
    lines = [" " * name_w + "  " +
             "  ".join(hd.ljust(w) for hd, w in zip(heads, widths))]
    for name, row in zip(names, cells):
        lines.append(name.ljust(name_w) + "  " +
                     "  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def render_csv(M) -> str:
    """The table of M as CSV, every label a formatted partition."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([""] + [pt.format_partition(mu) for mu in M.labels])
    for lam in M.row_labels():
        w.writerow([pt.format_partition(lam)] +
                   [str(M.entry(lam, mu)) for mu in M.labels])
    return buf.getvalue()


@dataclass(frozen=True)
class BasisMatrix:
    """Columns of the canonical basis at one degree, decreasing lex order."""

    h: int
    m: int
    labels: tuple                       # DPR_h(m), decreasing lex
    columns: dict = field(compare=False)

    def __post_init__(self):
        if set(self.labels) != set(self.columns):
            raise ValueError(f"basis matrix h={self.h} m={self.m}: labels "
                             f"and column keys differ")

    def row_labels(self) -> list:
        return pt.enumerate_dp_h(self.h, self.m)

    def column(self, mu) -> FockVector:
        return self.columns[tuple(mu)]

    def entry(self, lam, mu) -> LaurentPoly:
        return self.columns[tuple(mu)].coefficient(lam)

    def bottom_label(self, mu) -> tuple:
        """Lex-greatest support row of a column (its lowest printed entry)."""
        return max(self.columns[tuple(mu)].support())

    def __eq__(self, other):
        return (isinstance(other, BasisMatrix)
                and (self.h, self.m, self.labels) == (other.h, other.m, other.labels)
                and self.columns == other.columns)

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "m": self.m,
            "columns": [
                {
                    "label": list(mu),
                    "bottom": list(self.bottom_label(mu)),
                    "entries": [
                        {"row": list(lam), "poly": poly.to_json()}
                        for lam, poly in self.columns[mu].sorted_terms()
                    ],
                }
                for mu in self.labels
            ],
        }

    def render_table(self) -> str:
        """Aligned text table: rows DP_h(m), columns DPR_h(m), decreasing lex."""
        return render_table(self, pt.format_partition)

    def to_csv(self) -> str:
        return render_csv(self)


class CanonicalBasis:
    """Degree-by-degree solver with a column cache.

    The fast intermediate basis is the default; fast=False rebuilds every
    intermediate vector from the vacuum, which is the independent route used
    for cross-validation.
    """

    def __init__(self, h: int, fast: bool = True):
        pt.check_h(h)
        self.h = h
        self.fast = fast
        self._contents = {}             # label -> residue content
        self._matrices = {0: BasisMatrix(h, 0, ((),), {(): FockVector.basis(())})}

    def column(self, mu) -> FockVector:
        mu = pt.check_dp_h(self.h, mu)
        if not pt.in_dpr_h(self.h, mu):
            raise ValueError(f"{mu} is not {self.h}-regular")
        return self.matrix(sum(mu)).columns[mu]

    def matrix(self, m: int) -> BasisMatrix:
        if m < 0:
            raise ValueError("degree must be nonnegative")
        if m not in self._matrices:
            for d in range(1, m + 1):
                if d not in self._matrices:
                    self._matrices[d] = self._solve_degree(d)
        return self._matrices[m]

    def _residue_content(self, lam) -> tuple:
        content = self._contents.get(lam)
        if content is None:
            content = self._contents[lam] = pt.residue_content(self.h, lam)
        return content

    def _intermediate(self, mu, memo) -> PolyAccumulator:
        """A(mu) in a fresh column accumulator.

        The fast route applies f_res^(cnt) label by label to the column of
        the stripped label, taking each f_res^(cnt)|lam> from `memo`, the
        current degree's table, or computing it there once.  The slow route
        never reads `memo`.
        """
        acc = PolyAccumulator()
        if not self.fast:
            acc.add_scaled(ONE, a_vector(self.h, mu).terms())
            return acc
        nu, res, cnt = pt.remove_outer_ladder(self.h, mu)
        for lam, c in self.column(nu).terms():
            key = (res, cnt, lam)
            image = memo.get(key)
            if image is None:
                image = memo[key] = apply_f_divided(
                    self.h, res, cnt, FockVector.basis(lam))
            acc.add_scaled(c, image.terms())
        return acc

    def _solve_degree(self, m: int) -> BasisMatrix:
        labels = tuple(pt.enumerate_dpr_h(self.h, m))
        memo = {}                               # dropped with this degree
        blocks = {}                             # content -> labels done
        done = {}
        for mu in labels:                       # decreasing lex
            content = self._residue_content(mu)
            block = blocks.setdefault(content, [])
            acc = self._intermediate(mu, memo)
            for s in reversed(block):           # lex-greater, increasing lex
                gamma = symmetrize_tail(acc.coefficient(s))
                if gamma:
                    acc.add_scaled(-gamma, done[s].terms())
            vec = FockVector(acc.freeze())
            self._validate_column(mu, vec, m)
            block.append(mu)
            done[mu] = vec
        return BasisMatrix(self.h, m, labels, done)

    def _validate_column(self, mu, vec, m):
        """Raise CanonicalBasisError on the first failed column condition."""
        for condition, witness in column_failures(mu, vec, m,
                                                  self._residue_content):
            raise CanonicalBasisError(f"column {mu}: {condition} ({witness})")


def column_failures(mu, vec, m, content_of):
    """Yield (condition, witness) for each failed condition of column mu.

    Conditions: unit-diagonal; integral (entries in Z[q]); lattice-congruence
    (off-diagonal entries in qZ[q]); triangular (support of degree m that
    dominates mu); block-purity (one residue content, from `content_of`).
    Dominance is read against mu's partial sums, computed once per column:
    a row lam of degree m dominates mu iff each running sum of lam is at
    least the matching partial sum of mu.
    """
    diag = vec.coefficient(mu)
    if diag != ONE:
        yield "unit-diagonal", str(diag)
    mu_content = content_of(mu)
    bound = tuple(accumulate(mu))
    for lam, poly in vec.terms():
        if not poly.in_z_of_q():
            yield "integral", f"{lam}: {poly}"
        if lam != mu and not poly.in_q_z_of_q():
            yield "lattice-congruence", f"{lam}: {poly}"
        if sum(lam) != m or not all(map(ge, accumulate(lam), bound)):
            yield "triangular", f"{lam}"
        if content_of(lam) != mu_content:
            yield "block-purity", f"{lam}"


def canonical_basis(h: int, m: int) -> BasisMatrix:
    """Canonical basis matrix at degree m (convenience wrapper)."""
    return CanonicalBasis(h).matrix(m)


@dataclass(frozen=True)
class BasisCheck:
    column: tuple
    condition: str
    witness: str


@dataclass(frozen=True)
class BasisMatrixReport:
    h: int
    m: int
    ok: bool
    failures: tuple

    def __str__(self):
        if self.ok:
            return f"basis matrix h={self.h} m={self.m}: all checks pass"
        body = "; ".join(f"{c.column} {c.condition} ({c.witness})"
                         for c in self.failures)
        return f"basis matrix h={self.h} m={self.m}: FAIL {body}"


def check_basis_matrix(M: BasisMatrix) -> BasisMatrixReport:
    """Re-verify the label set and every column condition of a matrix."""
    failures = []
    expected = tuple(pt.enumerate_dpr_h(M.h, M.m))
    if M.labels != expected:
        failures.append(BasisCheck((), "label-set",
                                   f"{M.labels} != DPR_{M.h}({M.m})"))
    content_of = functools.partial(pt.residue_content, M.h)   # no solver cache
    for mu in M.labels:
        for condition, witness in column_failures(mu, M.columns[mu], M.m,
                                                  content_of):
            failures.append(BasisCheck(mu, condition, witness))
    return BasisMatrixReport(M.h, M.m, not failures, tuple(failures))
