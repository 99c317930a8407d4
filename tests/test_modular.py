import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from spinfock import crystal
from spinfock import partitions as pt
from spinfock import fixtures as fx
from spinfock import modular
from spinfock import verify
from spinfock.canonical import CanonicalBasis, canonical_basis
from spinfock.fock import FockVector, apply_f, apply_e
from spinfock.laurent import ONE
from conftest import oracle_hbar_core, oracle_schur_p


class TestGhostsAndSigns:
    def test_ghost(self):
        # ghosts are the non-strict labels; the q = 1 image drops them
        assert not pt.is_strict((3, 3, 1)) and pt.is_strict((5, 4, 1))
        assert modular.character_image(3, FockVector.basis((3, 3, 1))) == {}

    def test_dp_sign(self):
        assert modular.dp_sign((4, 3, 2, 1)) == 1    # two even parts
        assert modular.dp_sign((5, 3, 2)) == -1      # one even part
        assert modular.dp_sign((7, 3)) == 1          # none


class TestCharacterImage:
    def test_column_3331(self):
        M = canonical_basis(3, 10)
        cv = modular.character_image(3, M.column((3, 3, 3, 1)))
        assert cv == {
            (5, 4, 1): 4, (6, 3, 1): 8, (6, 4): 4, (7, 2, 1): 4,
            (7, 3): 4, (9, 1): 4, (10,): 2,
        }

    def test_column_532(self):
        M = canonical_basis(3, 10)
        cv = modular.character_image(3, M.column((5, 3, 2)))
        assert cv == {(5, 3, 2): 4, (8, 2): 4}

    def test_empty_column(self):
        assert modular.character_image(3, FockVector()) == {}

    def test_ghost_rows_dropped(self):
        M = canonical_basis(3, 10)
        cv = modular.character_image(3, M.column((3, 3, 3, 1)))
        assert (3, 3, 3, 1) not in cv
        assert (4, 3, 3) not in cv


class TestTwoPowerStrip:
    def test_example_column(self):
        got = modular.strip_two_power(
            {(5, 4, 1): 4, (6, 3, 1): 8, (6, 4): 4, (7, 2, 1): 4,
             (7, 3): 4, (9, 1): 4, (10,): 2})
        assert got == {(5, 4, 1): 2, (6, 3, 1): 4, (6, 4): 2, (7, 2, 1): 2,
                       (7, 3): 2, (9, 1): 2, (10,): 1}

    def test_pair(self):
        assert modular.strip_two_power({(5, 3, 2): 4, (8, 2): 4}) == {
            (5, 3, 2): 1, (8, 2): 1}

    def test_odd_untouched(self):
        assert modular.strip_two_power({(3,): 3, (2, 1): 1}) == {
            (3,): 3, (2, 1): 1}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            modular.strip_two_power({})

    def test_zero_coefficients_dropped(self):
        # in a child process: the power of two was once sought by a loop
        # that never ended on a zero coefficient, so a hang must fail here
        code = ("from spinfock.modular import strip_two_power as s\n"
                "print(s({(3,): 0, (2, 1): 4}), s({(3,): -6, (1,): 0}))\n"
                "s({(3,): 0, (2, 1): 0})\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout == "{(2, 1): 1} {(3,): -3}\n"
        assert proc.stderr.endswith(
            "ValueError: cannot normalize the zero character vector\n")


class TestReducedMatrix:
    def test_matches_embedded(self):
        assert modular.reduced_matrix(3, 10) == fx.reduced_matrix_3_10()

    def test_shape(self):
        R = modular.reduced_matrix(3, 10)
        assert len(R.row_labels()) == len(pt.enumerate_dp(10))
        assert len(R.labels) == len(pt.enumerate_dpr_h(3, 10))

    def test_small_identity_like(self):
        for m in range(0, 6):
            R = modular.reduced_matrix(3, m)
            for mu in R.labels:
                assert R.entry(mu, mu) >= 1

    def test_m11_labels(self):
        R = modular.reduced_matrix(3, 11)
        assert R.labels == fx.M11_P3_COLUMN_LABELS

    def test_no_negative_entries(self):
        for m in range(0, 12):
            assert not modular.reduced_matrix(3, m).negative_entries()

    def test_json(self):
        obj = modular.reduced_matrix(3, 10).to_json()
        assert obj["p"] == 3 and obj["m"] == 10
        col = next(c for c in obj["columns"] if c["label"] == [5, 3, 2])
        assert {"row": [8, 2], "value": 1} in col["entries"]

    def test_table_rendering(self):
        text = modular.reduced_matrix(3, 10).render_table()
        assert "<10>" in text
        assert "(3 3 3 1)" in text

    def test_writers_print_a_stored_zero_as_zero(self):
        R = modular.ReducedMatrix(3, 3, ((3,),), {(3,): {(3,): 1, (2, 1): 0}})
        assert R.render_table() == "       (3)\n<3>    1  \n<2 1>  0  \n"
        assert R.to_csv() == ",(3)\n(3),1\n(2 1),0\n"


class TestBlockTheorem:
    """The q = 1 columns against the spin block theorem (Morris's
    conjecture, proved by Humphreys): characters <lam> share a p-block
    exactly when their p-bar cores agree, and a label that is its own bar
    core heads a block of defect zero."""

    @pytest.mark.parametrize("p, defect_zero", [(3, 8), (5, 31), (7, 83)])
    def test_columns_stay_in_their_bar_core_block(self, p, defect_zero):
        solver = CanonicalBasis(p)
        found = 0
        for m in range(25):
            R = modular.ReducedMatrix.of(solver.matrix(m))
            for mu in R.labels:
                core = oracle_hbar_core(p, mu)
                col = R.columns[mu]
                for lam in col:
                    assert oracle_hbar_core(p, lam) == core, (p, mu, lam)
                if core == mu:                  # weight 0: defect zero
                    assert col == {mu: 1}, (p, mu, col)
                    found += 1
        assert found == defect_zero             # the empty label included


class TestBasicSpinRow:
    """Wales's basic spin theorem (J. Algebra 61, 1979): modulo an odd
    prime p the basic spin representation of the double cover of S_m, of
    degree 2^floor((m-1)/2), has one composition factor up to association,
    the basic modular spin module, of degree 2^floor((m-1-k)/2) with k = 1
    when p divides m and k = 0 otherwise.  So the degree halves exactly when
    p | m and m is odd.  In the reduced matrix, whose columns carry no
    common power of two, the row of the basic spin character <m> then has
    exactly one nonzero entry: 2 when p | m and m is odd, and 1 otherwise."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_basic_spin_row_has_one_entry(self, p):
        solver = CanonicalBasis(p)
        for m in range(1, 25):
            R = modular.ReducedMatrix.of(solver.matrix(m))
            row = [R.entry((m,), mu) for mu in R.labels]
            want = 2 if m % p == 0 and m % 2 else 1
            assert [v for v in row if v] == [want], (p, m, row)


def weight_one_blocks(p, max_m):
    """(M, R, rows, columns) for each weight-1 block of degree <= max_m:
    M and R the canonical and reduced matrices of its degree, rows its
    strict labels and columns its canonical labels.  A block's weight is
    (m - |core|) / p, its p-bar core from conftest's oracle."""
    solver = CanonicalBasis(p)
    for m in range(max_m + 1):
        M = solver.matrix(m)
        R = modular.ReducedMatrix.of(M)
        rows, cols = {}, {}
        for lam in R.row_labels():
            core = oracle_hbar_core(p, lam)
            if sum(core) == m - p:
                rows.setdefault(core, []).append(lam)
        for mu in M.labels:
            cols.setdefault(oracle_hbar_core(p, mu), []).append(mu)
        for core, block in rows.items():
            yield M, R, block, cols.get(core, [])


WEIGHT_ONE_RANGES = pytest.mark.parametrize(
    "p, max_m, blocks", [(3, 22, 7), (5, 24, 24), (7, 28, 68)])


class TestWeightOneBlocks:
    """Muller's Brauer trees of the weight-1 spin blocks (J. Algebra 266,
    2003).  A spin p-block of weight 1, its p-bar core of size m - p, has
    (p+1)/2 spin characters up to association, one per strict label, and
    (p-1)/2 modular spin characters; its Brauer tree is a line.  Read at
    the reduced matrix, each column, a projective indecomposable, is an
    edge: it has exactly two nonzero entries, on the two characters it
    joins, equal to {1, 1}, or {1, 2} where the association of a pair of
    characters doubles one end.  The columns then form one path: the block
    is connected, every row meets one or two columns, and rows = columns
    + 1.  Which row carries a 2 is not pinned here."""

    @WEIGHT_ONE_RANGES
    def test_columns_form_one_path(self, p, max_m, blocks):
        found = 0
        for _, R, block, labels in weight_one_blocks(p, max_m):
            cols = [R.columns[mu] for mu in labels]
            assert len(block) == (p + 1) // 2, (p, block)
            assert len(cols) == (p - 1) // 2, (p, block, cols)
            for col in cols:
                assert sorted(col.values()) in ([1, 1], [1, 2]), col
                assert col.keys() <= set(block), (block, col)
            degree = Counter(lam for col in cols for lam in col)
            assert sorted(degree) == sorted(block), (block, cols)
            assert set(degree.values()) <= {1, 2}, (block, cols)
            reached = {block[0]}                        # connected
            for _ in cols:
                for col in cols:
                    if reached & col.keys():
                        reached |= col.keys()
            assert reached == set(block), (block, cols)
            found += 1
        assert found == blocks

    @WEIGHT_ONE_RANGES
    def test_canonical_columns_have_two_entries(self, p, max_m, blocks):
        # a regression fact of this engine, not a theorem: each weight-1
        # column G(mu) is |mu> plus one strict label at q or q^2
        # (57 at q and 202 at q^2 over these ranges)
        seen = Counter()
        for M, _, block, labels in weight_one_blocks(p, max_m):
            for mu in labels:
                (lam, c), = [t for t in M.column(mu).terms() if t[0] != mu]
                assert M.entry(mu, mu) == ONE and len(M.column(mu)) == 2
                assert pt.is_strict(mu) and pt.is_strict(lam), (mu, lam)
                seen[str(c)] += 1
        assert seen.keys() <= {"q", "q^2"}
        assert sum(seen.values()) == blocks * (p - 1) // 2


class TestBasicModuleOracle:
    """At q = 1 the basic module is the subring Q[p_j : j odd, p does not
    divide j] of the span of Schur's P-functions.  classical_image sends a
    label lam to 2^-a_p(lam) P_lam, so every column G(mu), written in odd
    power sums, has no term p_pi with a part of pi divisible by p (a
    projective character vanishes on p-singular classes).  The P-functions
    come from conftest's Pfaffian oracle, which shares no code with the
    solver or residue_content."""

    def test_oracle_pins(self):
        # P_(2,1) = s_(2,1) = (p_1^3 - p_3)/3 and P_(3) = (2 p_1^3 + p_3)/3
        third = Fraction(1, 3)
        assert oracle_schur_p((2, 1)) == {(1, 1, 1): third, (3,): -third}
        assert oracle_schur_p((3,)) == {(1, 1, 1): 2 * third, (3,): third}

    @pytest.mark.parametrize("p, max_m", [(3, 20), (5, 16), (7, 16)])
    def test_columns_lie_in_the_basic_module(self, p, max_m):
        solver = CanonicalBasis(p)
        for m in range(max_m + 1):
            M = solver.matrix(m)
            for mu in M.labels:
                total = {}
                for lam, c in modular.classical_image(p, M.columns[mu]).items():
                    for pi, v in oracle_schur_p(lam).items():
                        total[pi] = total.get(pi, 0) + c * v
                total = {pi: v for pi, v in total.items() if v}
                assert total, (p, mu)
                bad = [pi for pi in total if any(j % p == 0 for j in pi)]
                assert not bad, (p, mu, bad[:3])


class TestExternalReduction:
    def test_fixture_reduces_to_embedded(self):
        assert (modular.reduce_external_matrix(fx.DECOMP_S10_P3_CSV, 3)
                == fx.reduced_matrix_3_10())

    def test_printed_labels(self):
        # the same fixture with every label as the CLI prints it, (5 4 1)
        def printed(cell):
            lam = pt.parse_partition(cell.rstrip("'"))
            return pt.format_partition(lam) + "'" * cell.endswith("'")

        head, *rows = fx.DECOMP_S10_P3_CSV.splitlines()
        text = ",".join([""] + [printed(c) for c in head.split(",")[1:]])
        for row in rows:
            label, rest = row.split(",", 1)
            text += "\n" + printed(label) + "," + rest
        assert "(5 4 1)'" in text
        assert (modular.reduce_external_matrix(text, 3)
                == modular.reduce_external_matrix(fx.DECOMP_S10_P3_CSV, 3))

    def test_fixture_shape(self):
        # 15 raw rows and 7 raw columns merge to the 10 strict partitions
        # of 10 and the 4 labels of DPR_3(10)
        R = modular.reduce_external_matrix(fx.DECOMP_S10_P3_CSV, 3)
        assert (R.p, R.m) == (3, 10)
        assert R.labels == fx.DPR3_10
        rows = {lam for col in R.columns.values() for lam in col}
        assert rows == set(pt.enumerate_dp(10))

    def test_self_paired_column(self):
        reduced = modular.reduce_external_matrix(fx.DECOMP_S10_P3_CSV, 3)
        assert reduced.entry((5, 3, 2), (5, 3, 2)) == 1

    def test_trivial_fixture(self):
        reduced = modular.reduce_external_matrix(",21\n3,1\n", 3)
        assert reduced.labels == ((2, 1),)
        assert reduced.columns[(2, 1)] == {(3,): 1}

    def test_mismatched_pair_rejected(self):
        bad = ",532\n532,1\n532',2\n82,1\n"
        with pytest.raises(ValueError):
            modular.reduce_external_matrix(bad, 3)

    def test_wrong_parity_pairing_rejected(self):
        # (7,3) has no even part, so a primed twin is inconsistent
        bad = ",3331\n73,1\n73',1\n"
        with pytest.raises(ValueError):
            modular.reduce_external_matrix(bad, 3)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            modular.reduce_external_matrix(",21\n21,1\n31,1\n", 3)

    @pytest.mark.parametrize("text, message", [
        (",21\n3',1\n", r"row \(3,\): primed label without its unprimed twin"),
        (",21'\n3,1\n",
         r"column \(2, 1\): primed label without its unprimed twin"),
        (",21\n3,1\n3,1\n", r"row label '3' is repeated"),
        (",21,21\n3,1,1\n", r"column label '21' is repeated"),
        (",21\n3,1,5\n", r"row '3': 2 entries under 1 column labels"),
        (",21,3\n3,1\n", r"row '3': 1 entries under 2 column labels"),
        ("", "no header line"),
        (" \n,\n", "no header line"),
        (",31\n3,1\n", r"^column \(3, 1\) is not in DPR_3\(3\)$"),
        (",3\n3,1\n", r"^column \(3,\) is not in DPR_3\(3\)$"),
        (",3\n3,x\n", r"^row '3', column '3': entry 'x' is not an integer$"),
        (",3\n", "^external matrix has no rows$"),
    ], ids=["lone-primed-row", "lone-primed-column", "repeated-row",
            "repeated-column", "long-row", "short-row", "empty", "blank",
            "column-of-other-degree", "column-not-regular", "non-integer",
            "header-only"])
    def test_malformed_csv_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            modular.reduce_external_matrix(text, 3)


class TestClassicalAction:
    def test_part_replacement_examples(self):
        v = {(3, 2): 1}
        # residue 1 at p = 3: j = 0 appends a 1, the 3 becomes a 4
        assert modular.classical_f(3, 1, v) == {(3, 2, 1): 1, (4, 2): 1}
        assert modular.classical_e(3, 0, v) == {(3, 1): 1}
        # i = n: the positive j = 3 enters with multiplicity 2
        assert modular.classical_e(3, 1, {(4, 2): 1}) == {(3, 2): 2}

    def test_strictness_preserved(self):
        v = {(3, 2): 1}
        # f_0 would turn the 1 into a second 2
        assert modular.classical_f(3, 0, {(2, 1): 1}) == {}
        # e_1 would turn the 3 into a second 2
        assert modular.classical_e(3, 1, v) == {}

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_quotient_intertwines(self, p):
        # m <= 13 lets f reach (7,7), the first label with a repeated part
        # at p = 7, so every p meets a ghost
        n = pt.rank(p)
        for m in range(0, 14):
            for lam in pt.enumerate_dp_h(p, m):
                v = FockVector.basis(lam)
                cls = modular.classical_image(p, v)
                for i in range(n + 1):
                    assert (modular.classical_image(p, apply_f(p, i, v))
                            == modular.classical_f(p, i, cls))
                    assert (modular.classical_image(p, apply_e(p, i, v))
                            == modular.classical_e(p, i, cls))

    def test_classical_image_scaling(self):
        v = FockVector.basis((5, 4, 1))
        assert modular.classical_image(3, v) == {(5, 4, 1): Fraction(1, 4)}

    def test_ghosts_map_to_zero(self):
        assert modular.classical_image(3, FockVector.basis((3, 3, 1))) == {}


class TestCountsAndRanks:
    def test_identity_small(self):
        assert verify.count_checks(3, 10) == verify.CheckResult(
            "label counts p=3 m<=10", True)
        assert len(pt.enumerate_dpr_h(3, 10)) == 4
        assert len(pt.enumerate_dpr_h(3, 0)) == 1

    def test_count_failure_names_all_three(self, monkeypatch):
        monkeypatch.setattr(modular, "odd_series_coefficients",
                            lambda p, max_m: [0] * (max_m + 1))
        assert verify.count_checks(3, 3) == verify.CheckResult(
            "label counts p=3 m<=3", False,
            "dpr=(1, 1, 1, 1) series=(0, 0, 0, 0) crystal=(1, 1, 1, 1)")

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_series_against_direct_count(self, p):
        from conftest import oracle_count_odd_parts
        coeffs = modular.odd_series_coefficients(p, 20)
        for m in range(21):
            assert coeffs[m] == oracle_count_odd_parts(p, m)

    def test_series_of_negative_degree_refused(self):
        with pytest.raises(ValueError,
                           match=r"^degree must be nonnegative, got -1$"):
            modular.odd_series_coefficients(3, -1)
        assert modular.odd_series_coefficients(3, 0) == [1]

    def test_rank_small(self):
        assert verify.rank_checks(3, 1) == verify.CheckResult(
            "character rank p=3 m<=1", True)

    def test_rank_10(self):
        assert verify.rank_checks(3, 10) == verify.CheckResult(
            "character rank p=3 m<=10", True)
        assert len(pt.enumerate_dpr_h(3, 10)) == 4

    def test_rank_failure_names_degree(self, monkeypatch):
        monkeypatch.setattr(modular, "character_image", lambda p, vec: {})
        assert verify.rank_checks(3, 4) == verify.CheckResult(
            "character rank p=3", False, "m=0: rank 0 != 1")

    def test_rational_rank_examples(self):
        assert verify._rational_rank([]) == 0
        assert verify._rational_rank([[0, 0], [0, 0]]) == 0
        assert verify._rational_rank([[2, 4, 1], [1, 2, 3]]) == 2
        assert verify._rational_rank([[2, 4], [1, 2], [3, 6]]) == 1
        assert verify._rational_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2

    @pytest.mark.parametrize("m", range(0, 13))
    def test_rank_sweep(self, m):
        assert verify.rank_checks(3, m).ok

    # every public function taking a degree refuses a negative one through
    # partitions.check_degree, never with a vacuous answer
    @pytest.mark.parametrize("helper", [
        verify.triangularity_holds, verify.shift_equivariance_holds,
        verify.fast_slow_agree, verify.quotient_intertwines,
        verify.commutator_holds, verify.divided_power_integrality,
        verify.rank_checks, verify.count_checks,
        pt.enumerate_dp_h, pt.enumerate_dpr_h, canonical_basis,
        modular.reduced_matrix, modular.odd_series_coefficients,
        crystal.highest_weight_vertices,
        pytest.param(lambda h, m: pt.enumerate_dp(m), id="enumerate_dp"),
        pytest.param(lambda h, m: list(pt.partitions(m)), id="partitions"),
        pytest.param(lambda h, m: CanonicalBasis(h).matrix(m), id="matrix")])
    def test_property_helpers_refuse_negative_degree(self, helper):
        with pytest.raises(ValueError,
                           match=r"^degree must be nonnegative, got -1$"):
            helper(3, -1)


# G(5,5,4,3,2,1) at h = 5, m = 20 as {row: {exponent: coefficient}}: the
# first canonical column with a negative q = 1 entry at p = 5, the -q^6 at
# row (11,4,3,2), frozen so that any change to it is deliberate.
G_554321_H5 = {
    (11, 9): {7: 1, 9: 1},
    (11, 5, 4): {5: 1},
    (11, 4, 3, 2): {6: -1},
    (10, 10): {6: 1},
    (10, 9, 1): {5: 1},
    (10, 8, 2): {5: 1},
    (10, 7, 3): {5: 1},
    (10, 6, 4): {3: 1, 5: 1, 7: 1},
    (10, 5, 5): {4: 1},
    (10, 5, 4, 1): {3: 1},
    (10, 5, 3, 2): {5: 1},
    (10, 4, 3, 2, 1): {4: 1},
    (9, 8, 2, 1): {4: 1},
    (9, 7, 3, 1): {4: 1},
    (9, 6, 5): {3: 1, 5: 1},
    (9, 6, 4, 1): {2: 1, 4: 1, 6: 1},
    (9, 6, 3, 2): {4: 2, 6: 1},
    (9, 5, 5, 1): {3: 1},
    (9, 5, 3, 2, 1): {2: 2, 4: 1},
    (8, 7, 5): {5: 1},
    (8, 7, 4, 1): {4: 1},
    (8, 6, 4, 2): {4: 2, 6: 2},
    (8, 5, 5, 2): {3: 2},
    (8, 5, 4, 2, 1): {2: 2},
    (7, 6, 4, 3): {4: 1, 6: 1, 8: -1, 10: -1},
    (7, 5, 5, 3): {3: 1, 7: -1},
    (7, 5, 4, 3, 1): {2: 1, 6: -1},
    (6, 5, 5, 4): {3: 1, 9: 1},
    (6, 5, 4, 3, 2): {2: 1, 6: -1},
    (5, 5, 5, 5): {2: 1},
    (5, 5, 5, 4, 1): {1: 1},
    (5, 5, 5, 3, 2): {1: 1},
    (5, 5, 4, 3, 2, 1): {0: 1},
}


class TestFirstNegativeColumn:
    MU = (5, 5, 4, 3, 2, 1)

    @pytest.mark.parametrize("fast", [True, False])
    def test_column_frozen(self, fast):
        col = CanonicalBasis(5, fast=fast).column(self.MU)
        assert len(G_554321_H5) == 33
        assert {lam: c.coeffs() for lam, c in col.terms()} == G_554321_H5

    def test_negative_entries(self):
        assert modular.reduced_matrix(5, 20).negative_entries() == [
            ((11, 4, 3, 2), self.MU)]


# G(7,7,6,5,2,1) at h = 7, m = 28: the first canonical column with a
# negative q = 1 entry at p = 7, the -q^6 at row (15,6,5,2), frozen like
# the p = 5 column above.
G_776521_H7 = {
    (15, 13): {7: 1, 9: 1},
    (15, 7, 6): {5: 1},
    (15, 6, 5, 2): {6: -1},
    (14, 14): {6: 1},
    (14, 13, 1): {5: 1},
    (14, 12, 2): {5: 1},
    (14, 9, 5): {5: 1},
    (14, 8, 6): {3: 1, 5: 1, 7: 1},
    (14, 7, 7): {4: 1},
    (14, 7, 6, 1): {3: 1},
    (14, 7, 5, 2): {5: 1},
    (14, 6, 5, 2, 1): {4: 1},
    (13, 12, 2, 1): {4: 1},
    (13, 9, 5, 1): {4: 1},
    (13, 8, 7): {3: 1, 5: 1},
    (13, 8, 6, 1): {2: 1, 4: 1, 6: 1},
    (13, 8, 5, 2): {4: 2, 6: 1},
    (13, 7, 7, 1): {3: 1},
    (13, 7, 5, 2, 1): {2: 2, 4: 1},
    (12, 9, 7): {5: 1},
    (12, 9, 6, 1): {4: 1},
    (12, 8, 6, 2): {4: 2, 6: 2},
    (12, 7, 7, 2): {3: 2},
    (12, 7, 6, 2, 1): {2: 2},
    (11, 8, 6, 3): {4: 1, 6: 2, 8: 1},
    (11, 7, 7, 3): {3: 1, 5: 1},
    (11, 7, 6, 3, 1): {2: 1, 4: 1},
    (11, 7, 5, 3, 2): {2: 1, 4: 1},
    (11, 6, 5, 3, 2, 1): {1: 1, 3: 1},
    (10, 8, 6, 4): {4: 1, 6: 2, 8: 1},
    (10, 7, 7, 4): {3: 1, 5: 1},
    (10, 7, 6, 4, 1): {2: 1, 4: 1},
    (10, 7, 5, 4, 2): {2: 1, 4: 1},
    (10, 6, 5, 4, 2, 1): {1: 1, 3: 1},
    (9, 8, 6, 5): {4: 1, 6: 1, 8: -1, 10: -1},
    (9, 7, 7, 5): {3: 1, 7: -1},
    (9, 7, 6, 5, 1): {2: 1, 6: -1},
    (8, 7, 7, 6): {3: 1, 9: 1},
    (8, 7, 6, 5, 2): {2: 1, 6: -1},
    (7, 7, 7, 7): {2: 1},
    (7, 7, 7, 6, 1): {1: 1},
    (7, 7, 7, 5, 2): {1: 1},
    (7, 7, 6, 5, 2, 1): {0: 1},
}


class TestFirstNegativeColumnP7:
    MU = (7, 7, 6, 5, 2, 1)

    @pytest.mark.parametrize("fast", [True, False])
    def test_column_frozen(self, fast):
        col = CanonicalBasis(7, fast=fast).column(self.MU)
        assert len(G_776521_H7) == 43
        assert {lam: c.coeffs() for lam, c in col.terms()} == G_776521_H7

    def test_negative_entries(self):
        assert modular.reduced_matrix(7, 28).negative_entries() == [
            ((15, 6, 5, 2), self.MU)]


class TestFirstNegativeColumnsP3:
    """At p = 3 the negatives first appear at m = 27, in two columns; only
    their negative rows are pinned (G(6,6,5,4,3,2,1) has 243 entries)."""

    G6 = (6, 6, 5, 4, 3, 2, 1)
    G3 = (3, 3, 3, 3, 3, 3, 3, 3, 2, 1)
    ROW_A = (8, 6, 5, 4, 3, 1)
    ROW_B = (8, 7, 5, 4, 2, 1)

    def test_negative_entries(self):
        solver = CanonicalBasis(3)
        R = modular.ReducedMatrix.of(solver.matrix(27))
        assert R.negative_entries() == [
            (self.ROW_A, self.G6), (self.ROW_B, self.G3), (self.ROW_A, self.G3)]
        assert [R.entry(lam, mu) for lam, mu in R.negative_entries()] == [
            -2, -1, -4]
        M = solver.matrix(27)
        assert M.column(self.G6).coefficient(self.ROW_A).coeffs() == {
            2: 1, 4: 2, 6: -1, 8: -3}
        assert M.column(self.G3).coefficient(self.ROW_A).coeffs() == {
            1: -1, 3: 2, 5: 4, 7: -5, 9: -5, 11: 5, 13: -1, 15: -3, 17: 3,
            19: -1, 23: 1, 25: -1}
        assert M.column(self.G3).coefficient(self.ROW_B).coeffs() == {
            2: 4, 4: 7, 6: 1, 8: -11, 10: -7, 12: 4, 16: -2, 18: 3, 20: 1,
            24: 1, 26: -1, 28: -1}
