import csv
import io
import json
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spinfock import canonical, laurent
from spinfock.laurent import CoefficientBoundError, LaurentPoly, ONE, pack
from spinfock.fock import FockVector
from spinfock import partitions as pt
from spinfock import crystal, modular
from spinfock import fixtures as fx
from spinfock.canonical import (
    BasisMatrix,
    CanonicalBasis,
    CanonicalBasisError,
    a_vector,
    canonical_basis,
    check_basis_matrix,
)
from conftest import oracle_hbar_core


def vec(data):
    return fx.fock_vector(data)


class TestIntermediateVectors:
    def test_monomial_of_big_example(self):
        assert pt.ladders(7, (11, 7, 7, 4)).steps == fx.LADDERS_11774_H7

    def test_a_3321(self):
        assert a_vector(3, (3, 3, 2, 1)) == vec(fx.A_3321_H3)

    def test_a_432(self):
        assert a_vector(3, (4, 3, 2)) == vec(fx.G_432_H3)

    def test_a_531(self):
        assert a_vector(3, (5, 3, 1)) == vec(fx.G_531_H3)

    def test_rejects_irregular(self):
        with pytest.raises(ValueError):
            a_vector(3, (3, 3, 3))

    def test_degree_one(self):
        assert a_vector(3, (1,)) == FockVector.basis((1,))


class TestCanonicalColumns:
    def test_irregular_label_refused_before_solving(self, monkeypatch):
        def unsolvable(self, m):
            raise AssertionError(f"degree {m} solved for an irregular label")

        monkeypatch.setattr(CanonicalBasis, "_solve_degree", unsolvable)
        with pytest.raises(ValueError, match="is not 3-regular"):
            CanonicalBasis(3).column((15, 15))

    def test_degree9(self):
        M = canonical_basis(3, 9)
        assert M.column((3, 3, 2, 1)) == vec(fx.G_3321_H3)
        assert M.column((5, 3, 1)) == vec(fx.G_531_H3)
        assert M.column((4, 3, 2)) == vec(fx.G_432_H3)

    def test_degree10_matrix(self):
        M = canonical_basis(3, 10)
        assert M.labels == fx.DPR3_10
        for mu, data in fx.CANONICAL_3_10.items():
            assert M.column(mu) == vec(data)

    def test_degree10_spot_entries(self):
        M = canonical_basis(3, 10)
        assert M.entry((4, 3, 2, 1), (3, 3, 3, 1)) == LaurentPoly({1: 1, 5: -1})
        assert M.entry((6, 3, 1), (3, 3, 3, 1)) == LaurentPoly({2: 2})
        assert M.entry((8, 2), (5, 3, 2)) == LaurentPoly({2: 1})
        assert M.entry((5, 3, 2), (3, 3, 3, 1)) == LaurentPoly()

    def test_degree0(self):
        M = canonical_basis(3, 0)
        assert M.labels == ((),)
        assert M.column(()) == FockVector.basis(())

    def test_degree21_displays(self):
        M = canonical_basis(7, 21)
        assert M.column((7, 5, 4, 3, 2)) == vec(fx.G_75432_H7)
        assert M.column((6, 5, 4, 3, 2, 1)) == vec(fx.G_654321_H7)

    def test_shared_bottom_label(self):
        M = canonical_basis(7, 21)
        assert M.bottom_label((7, 5, 4, 3, 2)) == (9, 7, 5)
        assert M.bottom_label((6, 5, 4, 3, 2, 1)) == (9, 7, 5)

    def test_bottom_labels_degree10(self):
        M = canonical_basis(3, 10)
        assert [M.bottom_label(mu) for mu in M.labels] == [
            (7, 3), (8, 2), (9, 1), (10,)]


class TestMatrixChecks:
    @pytest.mark.parametrize("h,max_m", [(3, 12), (5, 10), (7, 12)])
    def test_all_columns_pass(self, h, max_m):
        solver = CanonicalBasis(h)
        for m in range(max_m + 1):
            rep = check_basis_matrix(solver.matrix(m))
            assert rep.ok, str(rep)

    @pytest.mark.parametrize("h,max_m", [(3, 16), (5, 16), (7, 18)])
    def test_columns_lie_in_one_bar_core_class(self, h, max_m):
        # block purity against the independent bar-core oracle, not the
        # residue contents that the solver itself checks
        solver = CanonicalBasis(h)
        for m in range(max_m + 1):
            M = solver.matrix(m)
            for mu in M.labels:
                cores = {oracle_hbar_core(h, lam)
                         for lam, _ in M.column(mu).terms()}
                assert cores == {oracle_hbar_core(h, mu)}, (m, mu)

    def test_column_count_matches_crystal(self):
        graph = crystal.component(3, (), 12)
        solver = CanonicalBasis(3)
        for m in range(13):
            M = solver.matrix(m)
            assert len(M.labels) == len(pt.enumerate_dpr_h(3, m))
            assert len(M.labels) == len(graph.vertices_of_degree(m))

    # Entries added to a column at h=3, degree 7 (the column (4,2,1) unless
    # listed), where (5,2) is alone in its residue-content block and (6,1),
    # (3,3,1) share the block of (4,2,1).  Each breaks the condition it is
    # listed with.
    BROKEN_ENTRIES = (
        ("unit-diagonal", (4, 2, 1), {0: 1}),       # diagonal becomes 2
        ("integral", (6, 1), {-1: 1}),
        ("lattice-congruence", (6, 1), {0: 1}),
        ("triangular", (3, 3, 1), {1: 1}),          # does not dominate
        ("triangular", (8,), {1: 1}),               # wrong degree
        ("block-purity", (5, 2), {1: 1}),
        # longer than the column label, fails only at its last partial sum
        ("triangular", (5, 1, 1), {1: 1}, (5, 2)),
    )

    def test_report_catches_bad_matrix(self):
        M = canonical_basis(3, 7)
        for condition, row, poly, *column in self.BROKEN_ENTRIES:
            mu = column[0] if column else (4, 2, 1)
            broken = dict(M.columns)
            broken[mu] = broken[mu] + FockVector.basis(row).scaled(LaurentPoly(poly))
            rep = check_basis_matrix(BasisMatrix(3, 7, M.labels, broken))
            assert not rep.ok
            assert (mu, condition) in {(col, cond)
                                       for col, cond, _ in rep.failures}, condition

    def test_solver_rejects_bad_column(self):
        solver = CanonicalBasis(3)
        mu = (4, 2, 1)
        q = LaurentPoly({1: 1})
        broken = solver.column(mu) + FockVector.basis((3, 3, 1)).scaled(q)
        with pytest.raises(CanonicalBasisError,
                           match=r"column \(4, 2, 1\): triangular \(\(3, 3, 1\)\)"):
            solver._validate_column(mu, broken, 7)

    def test_labels_must_match_columns(self):
        M = canonical_basis(3, 6)
        missing = dict(M.columns)
        del missing[M.labels[0]]
        with pytest.raises(ValueError, match="h=3 m=6"):
            BasisMatrix(3, 6, M.labels, missing)

    def test_matrix_is_immutable(self):
        M = canonical_basis(3, 6)
        with pytest.raises(AttributeError):
            M.h = 5
        assert repr(M).startswith("BasisMatrix(h=3, m=6, labels=((4, 2), ")


class TestFastSlow:
    @pytest.mark.parametrize("h", [3, 5, 7, 9])
    def test_paths_agree(self, h):
        # deep enough that the fast route reuses divided powers per degree
        fast = CanonicalBasis(h, fast=True)
        slow = CanonicalBasis(h, fast=False)
        for m in range(0, 23 if h == 3 else 21):
            assert fast.matrix(m) == slow.matrix(m)


class TestDividedPowerMemo:
    @pytest.mark.parametrize("h, top", [(3, 20), (5, 16)])
    def test_each_distinct_image_computed_once_per_degree(self, monkeypatch,
                                                          h, top):
        # the per-degree memo looks _f_divided up when it misses, so every
        # call counted here is one computed image f_res^(cnt)|lam>
        calls, f_divided = [], canonical._f_divided

        def counting(*args):
            calls.append(args)
            return f_divided(*args)

        monkeypatch.setattr(canonical, "_f_divided", counting)
        solver = CanonicalBasis(h)
        for m in range(1, top + 1):
            del calls[:]
            solver.matrix(m)
            read = set()
            for mu in pt.enumerate_dpr_h(h, m):
                nu, res, cnt = pt.remove_outer_ladder(h, mu)
                read.update((res, cnt, lam)
                            for lam, _ in solver.column(nu).terms())
            assert len(calls) == len(read), m


def _dominates(lam, mu):
    """lam >= mu in dominance order, for partitions of one size."""
    a = b = 0
    for k in range(max(len(lam), len(mu))):
        a += lam[k] if k < len(lam) else 0
        b += mu[k] if k < len(mu) else 0
        if a < b:
            return False
    return True


class TestSolverProperties:
    """Random small (h, m), each solved by fresh solvers on both routes."""

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([3, 5, 7, 9]), st.integers(0, 20))
    def test_canonical_columns(self, h, m):
        M = CanonicalBasis(h).matrix(m)
        for mu in M.labels:
            col = M.column(mu)
            core = oracle_hbar_core(h, mu)
            assert col.coefficient(mu) == ONE                  # unitriangular
            for lam, c in col.terms():
                assert sum(lam) == m and _dominates(lam, mu), (mu, lam)
                if lam != mu:                                  # qZ[q]
                    assert min(c.coeffs()) >= 1, (mu, lam, c)
                assert oracle_hbar_core(h, lam) == core, (mu, lam)  # block
        assert CanonicalBasis(h, fast=False).matrix(m) == M


def stored_columns(solver):
    """Every column a solver holds, the vacuum's degree 0 left out."""
    return [col for m, M in solver._matrices.items() if m
            for col in M.columns.values()]


def assert_shared(columns, b):
    """Equal labels are one object, equal entries are one object, and
    every entry's bound is at least its exact l1 norm at width b."""
    labels, entries = {}, {}
    for col in columns:
        assert col.bits == b
        for lam, c in zip(col.rows, col.entries):
            assert labels.setdefault(lam, lam) is lam, lam
            assert entries.setdefault(c, c) is c, (lam, c)
            l1 = sum(map(abs, laurent.unpack(c, b).coeffs().values()))
            assert c[2] >= l1, (lam, c, l1)


class TestPackedBound:
    """The solver's digit bound, at digit widths narrow enough to reach it."""

    def test_narrow_digits_widen_until_they_fit(self, monkeypatch):
        # 4-bit digits overflow at m=10 and 8-bit ones at m=21; each time
        # the solver doubles its width and solves again from degree 1
        want = canonical_basis(3, 21)
        monkeypatch.setattr(laurent, "DIGIT_BITS", 4)
        solver = CanonicalBasis(3)
        solver.matrix(9)
        assert solver._bits == 4
        solver.matrix(20)
        assert solver._bits == 8
        assert solver.matrix(21) == want
        assert solver._bits == 16
        assert {col.bits for M in solver._matrices.values()
                for col in M.columns.values()} == {16}

    def test_widened_degrees_match(self, monkeypatch):
        # degrees solved again at doubled digits equal the 32-bit solve;
        # the 32-bit columns are read after the patch, so they must decode
        # at the width they were packed at
        want = [canonical_basis(3, m) for m in range(23)]
        monkeypatch.setattr(laurent, "DIGIT_BITS", 8)
        narrow = CanonicalBasis(3)
        assert [narrow.matrix(m) for m in range(23)] == want
        assert narrow._bits == 16

    def test_tightened_bounds_reach_deeper(self, monkeypatch):
        # carried bounds compound from degree to degree unless each column's
        # large bounds are tightened when it is frozen: without that, 16-bit
        # digits overflow at h=3 m=22
        want = [canonical_basis(3, m) for m in range(23)]
        monkeypatch.setattr(laurent, "DIGIT_BITS", 16)
        narrow = CanonicalBasis(3)
        assert [narrow.matrix(m) for m in range(23)] == want
        assert narrow._bits == 16

    def test_stored_labels_and_entries_are_shared(self):
        solver = CanonicalBasis(3)
        solver.matrix(20)
        assert_shared(stored_columns(solver), 32)

    def test_widening_forgets_the_shared_entries(self, monkeypatch):
        # an (e0, x) read at 4-bit digits is another polynomial at 8 bits,
        # so no entry stored before the restart may be drawn on after it;
        # degree 0 is left out: its UNIT is one object at every width
        monkeypatch.setattr(laurent, "DIGIT_BITS", 4)
        solver = CanonicalBasis(3)
        solver.matrix(9)
        before = [c for col in stored_columns(solver) for c in col.entries]
        solver.matrix(20)
        assert solver._bits == 8
        held = set(map(id, before))
        assert not [c for col in stored_columns(solver)
                    for c in col.entries if id(c) in held]
        assert_shared(stored_columns(solver), 8)

    def test_columns_stay_packed(self):
        M = canonical_basis(3, 12)
        col = M.columns[M.labels[-1]]
        assert isinstance(col, FockVector)
        assert len(col) == len(dict(col.terms())) > 1
        for lam, e0 in col.least_exponents():
            assert e0 == min(col.coefficient(lam).coeffs()), lam


def solved(monkeypatch, digit_bits, h, m):
    """A solver at h through degree m, started at `digit_bits`-wide digits
    (None: laurent.DIGIT_BITS as it stands)."""
    if digit_bits:
        monkeypatch.setattr(laurent, "DIGIT_BITS", digit_bits)
    solver = CanonicalBasis(h)
    solver.matrix(m)
    return solver


class TestColumnLayout:
    """A stored column is two parallel tuples: rows in decreasing lex and
    their packed entries."""

    @pytest.mark.parametrize("digit_bits, bits", [(None, 32), (4, 8)],
                             ids=["default", "restarted"])
    def test_rows_and_entries(self, monkeypatch, digit_bits, bits):
        # 4-bit digits overflow at m=10, so the solver is at 8 bits by m=20
        solver = solved(monkeypatch, digit_bits, 3, 20)
        assert solver._bits == bits
        for m, M in solver._matrices.items():
            labels = pt.enumerate_dp_h(3, m)
            for col in M.columns.values():
                assert len(col.rows) == len(col.entries) == len(col) > 0
                assert all(a > b for a, b in zip(col.rows, col.rows[1:]))
                held = dict(zip(col.rows, col.entries))
                assert held.keys() <= set(labels)
                for lam in labels:
                    c = held.get(lam)
                    want = (laurent.ZERO if c is None
                            else laurent.unpack(c, col.bits, lam))
                    assert col.coefficient(list(lam)) == want, lam

    @pytest.mark.parametrize("digit_bits, bits", [(None, 32), (4, 16)],
                             ids=["default", "restarted"])
    def test_at_one_is_the_digit_sum(self, monkeypatch, digit_bits, bits):
        # 4-bit digits overflow at m=10 and 8-bit ones at m=21
        solver = solved(monkeypatch, digit_bits, 3, 21)
        assert solver._bits == bits
        dropped = 0
        for col in stored_columns(solver):
            sums = {lam: laurent.unpack(c, col.bits, lam).at_one()
                    for lam, c in zip(col.rows, col.entries)}
            assert col.at_one() == {lam: v for lam, v in sums.items() if v}
            dropped += list(sums.values()).count(0)
        assert dropped          # zero values at q = 1 occur, and are dropped

    @settings(deadline=None)
    @given(st.sampled_from([4, 8, 16]),
           st.dictionaries(st.integers(-3, 3), st.integers(-200, 200),
                           max_size=4).map(LaurentPoly))
    @example(8, LaurentPoly({0: 127}))
    @example(8, LaurentPoly({-1: -64, 2: -63}))
    def test_at_one_of_any_entry_below_the_bound(self, b, p):
        assume(sum(map(abs, p.coeffs().values())) < 1 << (b - 1))
        got = FockVector.packed({(2,): pack(p, b)}, b).at_one()
        assert got == ({(2,): p.at_one()} if p.at_one() else {})

    @pytest.mark.parametrize("b", [8, 32, 64])
    def test_at_one_refuses_at_the_bound(self, b):
        half = 1 << (b - 1)
        with pytest.raises(CoefficientBoundError) as want:
            laurent.packed_terms((-2, 5, half), b, ())
        col = FockVector.packed({(1,): (0, 1, 1), (): (-2, 5, half)}, b)
        with pytest.raises(CoefficientBoundError) as got:
            col.at_one()
        assert str(got.value) == str(want.value)

    def test_stored_columns_are_compact(self):
        # two tuples cost 8 B per entry each, plus their headers; the same
        # columns as {label: entry} dicts cost about 42 B per entry
        solver = CanonicalBasis(5)
        solver.matrix(30)
        cols = stored_columns(solver)
        size = sum(sys.getsizeof(col.rows) + sys.getsizeof(col.entries)
                   for col in cols)
        assert size < 24 * sum(map(len, cols))


def change_of_basis(h, m):
    """b[(nu, mu)] with A(mu) = sum_nu b G(nu), from the public API.

    Peels canonical labels in increasing lex order: dominance triangularity
    makes the coefficient at the least remaining label pure.
    """
    M = canonical_basis(h, m)
    out = {}
    for mu in M.labels:
        rem = a_vector(h, mu)
        for nu in reversed(M.labels):           # increasing lex
            c = rem.coefficient(nu)
            if c:
                out[(nu, mu)] = c
                rem = rem - M.column(nu).scaled(c)
        assert not rem, f"A({mu}) is not in the canonical span"
    return out


class TestChangeOfBasis:
    @pytest.mark.parametrize("m", range(0, 11))
    def test_unitriangular(self, m):
        b = change_of_basis(3, m)
        for mu in canonical_basis(3, m).labels:
            assert b[(mu, mu)] == ONE
        for (nu, mu), c in b.items():
            assert nu >= mu
            assert c.bar() == c             # A and G are both bar-invariant

    def test_degree9_single_correction(self):
        M = canonical_basis(3, 9)
        assert a_vector(3, (3, 3, 2, 1)) == (M.column((3, 3, 2, 1))
                                             + M.column((5, 3, 1)))


class TestSerialization:
    def test_json(self):
        M = canonical_basis(3, 10)
        obj = M.to_json()
        assert obj["h"] == 3 and obj["m"] == 10
        col = next(c for c in obj["columns"] if c["label"] == [3, 3, 3, 1])
        assert col["bottom"] == [10]
        entry = next(e for e in col["entries"] if e["row"] == [4, 3, 2, 1])
        assert entry["poly"] == {"1": 1, "5": -1}

    def test_writer_matches_to_json_on_hand_built_columns(self):
        # negative exponents, zero digits inside a polynomial, coefficients
        # near +-2^62 with an l1 norm just under 2^63, and columns packed
        # at 32 and at 64 bits side by side
        big = 1 << 62
        columns = {
            (5,): FockVector.packed({
                (5,): pack(ONE, 32),
                (4, 1): pack(LaurentPoly({-3: 7, 0: -2, 4: 1}), 32),
                (2, 2, 1): pack(LaurentPoly({1: -(2 ** 30)}), 32),
            }, 32),
            (4, 1): FockVector.packed({
                (4, 1): pack(LaurentPoly({-7: big - 1, -4: 1, 2: 3 - big}),
                             64),
                (3, 2): pack(LaurentPoly({-1: -big, 3: big - 5}), 64),
                (5,): pack(LaurentPoly({1: 3}), 64),
            }, 64),
        }
        M = BasisMatrix(3, 5, ((5,), (4, 1)), columns)
        assert M.to_json()["columns"][1]["bottom"] == [5]
        for M in (M, BasisMatrix(3, 5, (), {})):
            spec = json.dumps(M.to_json(), indent=2) + "\n"
            assert "".join(M.json_chunks()) == spec

    def test_writer_reads_public_vectors(self):
        # columns built through FockVector(...) are held packed like the
        # solver's, so every reader of a matrix takes them
        M = BasisMatrix(3, 1, ((1,),), {(1,): FockVector.basis((1,))})
        assert M.bottom_label((1,)) == (1,)
        solved = canonical_basis(3, 10)
        rebuilt = BasisMatrix(3, 10, solved.labels, {
            mu: FockVector(dict(solved.column(mu).terms()))
            for mu in solved.labels})
        assert rebuilt == solved
        for M in (M, rebuilt):
            assert [M.bottom_label(mu) for mu in M.labels] == [
                tuple(col["bottom"]) for col in M.to_json()["columns"]]
            spec = json.dumps(M.to_json(), indent=2) + "\n"
            assert "".join(M.json_chunks()) == spec
        assert M.bottom_label((3, 3, 3, 1)) == (10,)

    @pytest.mark.parametrize("b", [8, 32, 64])
    def test_writer_refuses_at_the_bound(self, b):
        def matrix(n):
            col = FockVector.packed({(1,): (0, 1, 1), (): (-2, 5, n)}, b)
            return BasisMatrix(3, 1, ((1,),), {(1,): col})

        half = 1 << (b - 1)
        assert '"-2": 5' in "".join(matrix(half - 1).json_chunks())
        with pytest.raises(CoefficientBoundError,
                           match=rf"^row \(\): carried coefficient bound "
                                 rf"{half} >= 2\^{b - 1}$"):
            "".join(matrix(half).json_chunks())

    def test_table_rendering_is_fixture_rendering(self):
        M = canonical_basis(3, 10)
        embedded = BasisMatrix(3, 10, fx.DPR3_10,
                               {mu: vec(d) for mu, d in fx.CANONICAL_3_10.items()})
        assert M.render_table() == embedded.render_table()

    def test_table_contains_entries(self):
        text = canonical_basis(3, 10).render_table()
        assert "q-q^5" in text
        assert "2q^2" in text
        assert "(3 3 3 1)" in text

    def test_writers_on_a_matrix_without_labels(self):
        M = BasisMatrix(3, 2, (), {})
        assert M.render_table() == "     \n(2)  \n"
        assert M.to_csv() == '""\n(2)\n'
        assert list(M.lines("table")) == ["     \n", "(2)  \n"]
        assert list(M.lines("csv")) == ['""\n', "(2)\n"]

    def test_csv(self):
        csv_text = canonical_basis(3, 10).to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == ",(5 4 1),(5 3 2),(4 3 2 1),(3 3 3 1)"
        assert len(lines) == 13
        # the CSV is written unquoted: csv.reader gives back every label and
        # cell text, and table and CSV both make one piece per line
        for h in (3, 5):
            solver = CanonicalBasis(h)
            for m in range(13):
                M = solver.matrix(m)
                for X in (M, modular.ReducedMatrix.of(M)):
                    header, *body = csv.reader(io.StringIO(X.to_csv()))
                    assert header == ["", *map(pt.format_partition, X.labels)]
                    rows = X.row_labels()
                    assert body == [[pt.format_partition(lam)] +
                                    [str(X.entry(lam, mu)) for mu in X.labels]
                                    for lam in rows]
                    for fmt in ("table", "csv"):
                        pieces = list(X.lines(fmt))
                        assert len(pieces) == len(rows) + 1
                        assert all(p.count("\n") == 1 and p.endswith("\n")
                                   for p in pieces)
