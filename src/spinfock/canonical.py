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

Every coefficient on the solver's path is packed (laurent.pack: the
triple (e0, x, n) with x the coefficients as balanced base-2^b digits and
n a carried l1 bound), at the solver's digit width b: B =
laurent.DIGIT_BITS at first.  The fast route applies
f_i^(k) label by label and memoises each packed image f_i^(k)|lam>
(fock._f_divided) for one degree only.  A key (i, k, lam) with
|lam| = m - k yields degree-m vectors, so it never recurs in another
degree; a memo kept for the solver's lifetime would only hold dead entries
and push the peak resident set up.  Each column is built in one mutable
accumulator (laurent.PolyAccumulator) that takes both the intermediate
vector's linear combination and every scale-and-subtract of the
reduction, one int product and shift per (label, coefficient) pair;
symmetrize_tail decodes only the coefficients of the block's earlier
labels.  The accumulator is frozen once, into a fock.PackedVector, before
the column is validated.  A column is a FockVector that decodes on read,
so BasisMatrix serves LaurentPoly entries, and its JSON writer reads the
digits directly, with no LaurentPoly and no to_json tree.  A carried bound
that reaches 2^(b-1) raises CoefficientBoundError (never a guess); the
solver then doubles b, keeps only the vacuum and solves again from degree
1, as fock._act repeats an action, so all columns of a solver share one
width.  Residue contents are cached per label for the solver's lifetime.

One generator, column_failures, states the five column conditions: the
solver raises on the first failure of each new column, check_basis_matrix
reports every failure of a finished matrix.  Its integrality checks read
each entry's least exponent (a packed entry's e0), and its triangularity
check reads each row's running sums against the partial sums of the
column label, computed once per column.  render_table and render_csv also
render modular.ReducedMatrix.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from itertools import accumulate
from operator import ge

from .laurent import (CoefficientBoundError, LaurentPoly, ONE, PolyAccumulator,
                      pack, packed_terms, symmetrize_tail)
from . import laurent
from .fock import UNIT, FockVector, PackedVector, _act, _f_divided
from . import partitions as pt


class CanonicalBasisError(RuntimeError):
    """A computed column violated triangularity, integrality or block purity."""


def a_vector(h: int, mu) -> FockVector:
    """Intermediate vector: the full ladder monomial applied to the vacuum.

    Every divided power is the packed fock._f_divided, and the result is
    decoded once, at the end (fock._act, which widens the digits as needed).
    """
    dec = pt.ladders(h, mu)                 # the DP_h check of mu
    if not pt.in_dpr_h(h, dec.partition):
        raise ValueError(f"{dec.partition} is not {h}-regular")
    n = pt.rank(h)

    def monomial(terms, b):
        for res, cnt in dec.steps:
            terms = _f_divided(h, res, n, cnt, terms, b)
        return terms

    return _act(h, FockVector.basis(()), monomial)


_P6, _P10 = "\n" + " " * 6, "\n" + " " * 10
_COLUMN = ('\n    {%s"label": %%s,%s"bottom": %%s,%s"entries": %%s\n    }'
           % ((_P6,) * 3))
_ENTRY = '{%s"row": %%s,%s"poly": %%s\n        }' % ((_P10,) * 2)


def _json_block(items, pad, brackets="[]") -> str:
    """Indent-2 JSON of a list (or object) of item texts, opened at `pad`."""
    ipad = "," + pad + "  "
    body = ipad.join(items)
    if not body:
        return brackets
    return brackets[0] + ipad[1:] + body + pad + brackets[1]


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
    columns: dict

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

    def to_json(self) -> dict:
        columns = []
        for mu in self.labels:
            terms = self.columns[mu].sorted_terms()     # bottom row first
            columns.append({"label": list(mu), "bottom": list(terms[0][0]),
                            "entries": [{"row": list(lam), "poly": p.to_json()}
                                        for lam, p in terms]})
        return {"h": self.h, "m": self.m, "columns": columns}

    def json_chunks(self):
        """json.dumps(self.to_json(), indent=2) + "\\n", one string per
        column, from the packed digits (laurent.packed_terms, so guarded);
        each row label is rendered once per call."""
        rows = {}
        sep = '{\n  "h": %d,\n  "m": %d,\n  "columns": [' % (self.h, self.m)
        for mu in self.labels:
            col = self.columns[mu]
            terms = sorted(col.packed.items(), reverse=True)    # bottom first
            entries = []
            for lam, c in terms:
                row = rows.get(lam)
                if row is None:
                    row = rows[lam] = _json_block(map(str, lam), _P10)
                poly = ['"%d": %d' % t for t in packed_terms(c, col.bits, lam)]
                entries.append(_ENTRY % (row, _json_block(poly, _P10, "{}")))
            yield sep + _COLUMN % (_json_block(map(str, mu), _P6),
                                   _json_block(map(str, terms[0][0]), _P6),
                                   _json_block(entries, _P6))
            sep = ","
        yield ("\n  ]" if self.labels else sep + "]") + "\n}\n"

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
        self._start(laurent.DIGIT_BITS)

    def _start(self, bits):
        """Forget every column but the vacuum, packed at digit width bits."""
        self._bits = bits
        vacuum = PackedVector({(): UNIT}, bits)
        self._matrices = {0: BasisMatrix(self.h, 0, ((),), {(): vacuum})}

    def column(self, mu) -> FockVector:
        mu = pt.check_dp_h(self.h, mu)
        if not pt.in_dpr_h(self.h, mu):
            raise ValueError(f"{mu} is not {self.h}-regular")
        return self.matrix(sum(mu)).columns[mu]

    def matrix(self, m: int) -> BasisMatrix:
        if m < 0:
            raise ValueError("degree must be nonnegative")
        while m not in self._matrices:
            try:
                for d in range(len(self._matrices), m + 1):
                    self._matrices[d] = self._solve_degree(d)
            except CoefficientBoundError:   # as fock._act: all again at 2b
                self._start(2 * self._bits)
        return self._matrices[m]

    def _residue_content(self, lam) -> tuple:
        content = self._contents.get(lam)
        if content is None:
            content = self._contents[lam] = pt.residue_content(self.h, lam)
        return content

    def _intermediate(self, mu, memo) -> PolyAccumulator:
        """A(mu) in a fresh column accumulator at the solver's width.

        The fast route applies f_res^(cnt) label by label to the column of
        the stripped label, taking each f_res^(cnt)|lam> from `memo`, the
        current degree's table, or computing it there once.  The slow route
        never reads `memo`.
        """
        b = self._bits
        acc = PolyAccumulator(b)
        if not self.fast:
            acc.add_scaled(UNIT, [(lam, pack(c, b)) for lam, c
                                  in a_vector(self.h, mu).terms()])
            return acc
        nu, res, cnt = pt.remove_outer_ladder(self.h, mu)
        n = pt.rank(self.h)
        for lam, c in self.column(nu).packed.items():
            key = (res, cnt, lam)
            image = memo.get(key)
            if image is None:
                image = memo[key] = _f_divided(self.h, res, n, cnt,
                                               {lam: UNIT}, b).items()
            acc.add_scaled(c, image)
        return acc

    def _solve_degree(self, m: int) -> BasisMatrix:
        """Degree m at the solver's digit width; a carried bound that
        reaches the digits' reach raises CoefficientBoundError (matrix
        then widens)."""
        labels = tuple(pt.enumerate_dpr_h(self.h, m))
        b = self._bits
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
                    acc.add_scaled(pack(-gamma, b), done[s].packed.items())
            vec = PackedVector(acc.freeze(), b)
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
    for lam, low in vec.least_exponents():
        if low < 0:
            yield "integral", f"{lam}: {vec.coefficient(lam)}"
        if lam != mu and low < 1:
            yield "lattice-congruence", f"{lam}: {vec.coefficient(lam)}"
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
