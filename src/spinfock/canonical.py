"""Canonical basis G(mu) of the vacuum component, by triangular reduction.

CanonicalBasis(h).matrix(m) returns the BasisMatrix of degree m: a column
G(mu) for each mu in DPR_h(m), decreasing lex, over rows DP_h(m).  Each
column has a unit diagonal, off-diagonal entries in qZ[q], rows of degree
m that dominate mu, and one residue content (column_failures); the solver
raises CanonicalBasisError on the first column that breaks one, and
check_basis_matrix reports every failure of a finished matrix.  A label
that is not in DPR_h raises ValueError.  a_vector(h, mu) is A(mu), the
ladder monomial of mu applied to the vacuum.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from itertools import accumulate
from operator import ge

from .laurent import (CoefficientBoundError, LaurentPoly, ONE, add_scaled,
                      freeze, pack, packed_terms, symmetrize_tail, unpack)
from . import laurent
from .fock import UNIT, FockVector, _act, _f_divided
from . import partitions as pt
from .partitions import json_block


class CanonicalBasisError(RuntimeError):
    """A computed column violated triangularity, integrality or block purity."""


def a_vector(h: int, mu) -> FockVector:
    """Intermediate vector: the full ladder monomial applied to the vacuum."""
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
_COLUMN = ('{%s"label": %%s,%s"bottom": %%s,%s"entries": %%s\n    }'
           % ((_P6,) * 3))
_ENTRY = '{%s"row": %%s,%s"poly": %%s\n        }' % ((_P10,) * 2)


def matrix_lines(M, fmt, row_name, items):
    """M's aligned text table ("table") or CSV ("csv"), one line per piece.

    Each column is read once, by `items`, as a {row: text} map, and is "0"
    off its support.  The table names a row by `row_name` and pads each
    column to its header or longest text ("0" is narrower than any header,
    at least "()").  CSV names every label as a partition and quotes
    nothing, as no label or text holds a comma, a quote or a newline; a
    label-less header is "" as csv.writer writes it.
    """
    rows = M.row_labels()
    heads = [pt.format_partition(mu) for mu in M.labels]
    cols = [{lam: str(c) for lam, c in items(M.columns[mu])} for mu in M.labels]
    if fmt == "csv":
        yield ",".join(["", *heads]) + "\n" if heads else '""\n'
        for lam in rows:
            yield ",".join([pt.format_partition(lam),
                            *(col.get(lam, "0") for col in cols)]) + "\n"
        return
    names = [row_name(lam) for lam in rows]
    name_w = max(map(len, names), default=2)
    widths = [max(map(len, (hd, *col.values()))) for hd, col in zip(heads, cols)]
    yield " " * name_w + "  " + "  ".join(map(str.ljust, heads, widths)) + "\n"
    for lam, name in zip(rows, names):
        yield name.ljust(name_w) + "  " + "  ".join(
            [col.get(lam, "0").ljust(w) for col, w in zip(cols, widths)]) + "\n"


class BasisMatrix(namedtuple("BasisMatrix", "h m labels columns")):
    """Columns of the canonical basis at one degree, decreasing lex order:
    labels is DPR_h(m) in decreasing lex, columns maps each label to its
    FockVector."""

    __slots__ = ()

    def __new__(cls, h, m, labels, columns):
        if set(labels) != set(columns):
            raise ValueError(f"basis matrix h={h} m={m}: labels "
                             f"and column keys differ")
        return super().__new__(cls, h, m, labels, columns)

    def row_labels(self) -> list:
        return pt.enumerate_dp_h(self.h, self.m)

    def column(self, mu) -> FockVector:
        return self.columns[tuple(mu)]

    def entry(self, lam, mu) -> LaurentPoly:
        return self.columns[tuple(mu)].coefficient(lam)

    def bottom_label(self, mu) -> tuple:
        """Lex-greatest support row of a column (its lowest printed entry)."""
        return self.columns[tuple(mu)].rows[0]

    def to_json(self) -> dict:
        columns = []
        for mu in self.labels:
            terms = self.columns[mu].terms()    # bottom row first
            columns.append({"label": list(mu), "bottom": list(terms[0][0]),
                            "entries": [{"row": list(lam), "poly": p.to_json()}
                                        for lam, p in terms]})
        return {"h": self.h, "m": self.m, "columns": columns}

    def json_chunks(self):
        """json.dumps(self.to_json(), indent=2) + "\\n" in pieces, one per
        column (pt.json_document), from the packed digits
        (laurent.packed_terms, so guarded); each row label is rendered once
        per call, and each packed entry once per column."""
        rows = {}  # not functools.cache: its 1-tuple keys cost RSS at the write

        def column(mu):
            col = self.columns[mu]
            polys = {}      # per column: an entry's first render names its row
            entries = []
            for lam, c in zip(col.rows, col.entries):       # bottom first
                row = rows.get(lam)
                if row is None:
                    row = rows[lam] = json_block(map(str, lam), _P10)
                poly = polys.get(c)
                if poly is None:
                    poly = polys[c] = json_block(
                        ['"%d": %d' % t
                         for t in packed_terms(c, col.bits, lam)], _P10, "{}")
                entries.append(_ENTRY % (row, poly))
            return _COLUMN % (json_block(map(str, mu), _P6),
                              json_block(map(str, col.rows[0]), _P6),
                              json_block(entries, _P6))

        return pt.json_document({"h": str(self.h), "m": str(self.m),
                                 "columns": map(column, self.labels)})

    def lines(self, fmt):
        """The table or CSV (matrix_lines): rows DP_h(m), columns DPR_h(m),
        decreasing lex."""
        return matrix_lines(self, fmt, pt.format_partition, FockVector.terms)

    def render_table(self) -> str:
        return "".join(self.lines("table"))

    def to_csv(self) -> str:
        return "".join(self.lines("csv"))


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
        self._distinct = {}             # residue content -> its shared tuple
        self._start(laurent.DIGIT_BITS)

    def _start(self, bits):
        """Forget every column but the vacuum, packed at digit width bits,
        and the tables of stored labels and entries (laurent.freeze)."""
        self._bits = bits
        self._keys, self._values = {}, {}
        vacuum = FockVector.packed({(): UNIT}, bits)
        self._matrices = {0: BasisMatrix(self.h, 0, ((),), {(): vacuum})}

    def column(self, mu) -> FockVector:
        mu = pt.check_dp_h(self.h, mu)
        if not pt.in_dpr_h(self.h, mu):
            raise ValueError(f"{mu} is not {self.h}-regular")
        return self.matrix(sum(mu)).columns[mu]

    def matrix(self, m: int) -> BasisMatrix:
        pt.check_degree(m)
        while m not in self._matrices:
            try:
                for d in range(len(self._matrices), m + 1):
                    self._matrices[d] = self._solve_degree(d)
            except CoefficientBoundError:   # as fock._act: all again at 2b
                self._start(2 * self._bits)
        return self._matrices[m]

    def _residue_content(self, lam) -> tuple:
        # a dict, not functools.cache: its 1-tuple keys cost peak RSS; the
        # labels of one content share one tuple (74 for 5,978 labels at h=3)
        content = self._contents.get(lam)
        if content is None:
            content = pt.residue_content(self.h, lam)
            content = self._distinct.setdefault(content, content)
            self._contents[lam] = content
        return content

    def _intermediate(self, mu, memo) -> dict:
        """A(mu) as a fresh dict of cells at the solver's width.

        The fast route applies the outer ladder's f_res^(cnt) to the stored
        column of the stripped label, each f_res^(cnt)|lam> read from
        memo(res, cnt, lam); the slow route never calls `memo`.
        """
        b = self._bits
        if not self.fast:
            return {lam: list(pack(c, b))
                    for lam, c in a_vector(self.h, mu).terms()}
        nu, res, cnt = pt.remove_outer_ladder(self.h, mu)
        cells = {}
        col = self._matrices[sum(nu)].columns[nu]
        image = functools.partial(memo, res, cnt)
        add_scaled(cells, zip(col.entries, map(image, col.rows)), b)
        return cells

    def _solve_degree(self, m: int) -> BasisMatrix:
        """Degree m at the solver's digit width; a carried bound that
        reaches the digits' reach raises CoefficientBoundError (matrix
        then widens)."""
        labels = tuple(pt.enumerate_dpr_h(self.h, m))
        h, n, b = self.h, pt.rank(self.h), self._bits

        @functools.cache        # one degree's: no key recurs in another
        def memo(res, cnt, lam):
            return _f_divided(h, res, n, cnt, {lam: UNIT}, b).items()

        blocks = {}                             # content -> labels done
        done = {}
        for mu in labels:                       # decreasing lex
            content = self._residue_content(mu)
            block = blocks.setdefault(content, [])
            cells = self._intermediate(mu, memo)
            for s in reversed(block):           # lex-greater, increasing lex
                if s in cells and not laurent.in_qzq(cells[s], b):
                    gamma = symmetrize_tail(unpack(cells[s], b, s))  # nonzero
                    add_scaled(cells, [(pack(-gamma, b), zip(
                        done[s].rows, done[s].entries))], b)
            vec = FockVector.packed(freeze(cells, b, self._keys, self._values),
                                    b)
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


class BasisMatrixReport(namedtuple("BasisMatrixReport", "h m ok failures")):
    """Outcome of check_basis_matrix; failures holds (column, condition,
    witness) triples."""

    __slots__ = ()

    def __str__(self):
        if self.ok:
            return f"basis matrix h={self.h} m={self.m}: all checks pass"
        body = "; ".join(f"{mu} {condition} ({witness})"
                         for mu, condition, witness in self.failures)
        return f"basis matrix h={self.h} m={self.m}: FAIL {body}"


def check_basis_matrix(M: BasisMatrix) -> BasisMatrixReport:
    """Re-verify the label set and every column condition of a matrix."""
    failures = []
    expected = tuple(pt.enumerate_dpr_h(M.h, M.m))
    if M.labels != expected:
        failures.append(((), "label-set", f"{M.labels} != DPR_{M.h}({M.m})"))
    content_of = functools.partial(pt.residue_content, M.h)   # no solver cache
    for mu in M.labels:
        failures += ((mu, *failure) for failure in column_failures(
            mu, M.columns[mu], M.m, content_of))
    return BasisMatrixReport(M.h, M.m, not failures, tuple(failures))
