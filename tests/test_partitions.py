import pytest

from spinfock import partitions as pt
from spinfock import crystal
from spinfock.canonical import CanonicalBasis, a_vector
from spinfock.fock import (FockVector, apply_e, apply_f, apply_f_divided,
                           apply_t, norm_squared)
from conftest import (
    brute_partitions,
    oracle_is_dp_h,
    oracle_is_dpr_h,
    oracle_residue,
    oracle_plane_ladders,
    oracle_bar_removals,
    oracle_hbar_core,
)


class TestValidation:
    def test_canonical_form(self):
        assert pt.check_partition([5, 4, 1, 0, 0]) == (5, 4, 1)
        assert pt.check_partition([]) == ()

    def test_check_dp_h(self):
        assert pt.check_dp_h(5, [10, 10, 4]) == (10, 10, 4)
        assert pt.check_dp_h(3, ()) == ()
        for lam in [(1, 3), (4, 4), (3, 0), (0,), (2, -1)]:
            with pytest.raises(ValueError, match="is not a DP_5 partition"):
                pt.check_dp_h(5, lam)
        with pytest.raises(ValueError, match="modulus"):
            pt.check_dp_h(4, (1,))

    @pytest.mark.parametrize("lam", [(1, 3), (4, 4), (3, 0)])
    def test_every_label_entry_point_uses_check_dp_h(self, lam):
        # one gate, one message: no entry point sorts, trims or re-words
        entry_points = [
            lambda: crystal.ftilde(5, 0, lam),
            lambda: crystal.etilde(5, 0, lam),
            lambda: crystal.eps(5, 0, lam),
            lambda: crystal.phi(5, 0, lam),
            lambda: crystal.component(5, lam, 10),
            lambda: pt.ladders(5, lam),
            lambda: pt.remove_outer_ladder(5, lam),
            lambda: a_vector(5, lam),
            lambda: CanonicalBasis(5).column(lam),
            lambda: norm_squared(5, lam),
            lambda: apply_f(5, 0, FockVector.basis(lam)),
            lambda: apply_e(5, 0, FockVector.basis(lam)),
            lambda: apply_t(5, 0, FockVector.basis(lam)),
            lambda: apply_f_divided(5, 0, 2, FockVector.basis(lam)),
        ]
        for call in entry_points:
            with pytest.raises(ValueError, match="is not a DP_5 partition"):
                call()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            pt.check_partition([1, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pt.check_partition([3, -1])

    def test_check_h(self):
        with pytest.raises(ValueError):
            pt.check_h(4)
        with pytest.raises(ValueError):
            pt.check_h(1)
        assert pt.rank(7) == 3


class TestEnumeration:
    def test_empty_degree(self):
        assert pt.enumerate_dp(0) == [()]
        assert pt.enumerate_dp_h(3, 0) == [()]
        assert pt.enumerate_dpr_h(3, 0) == [()]

    def test_negative_degree_refused(self):
        with pytest.raises(ValueError,
                           match=r"^degree must be nonnegative, got -1$"):
            pt.enumerate_dp(-1)
        with pytest.raises(ValueError,
                           match=r"^degree must be nonnegative, got -2$"):
            pt.enumerate_dp_h(3, -2)

    def test_dp_h_7(self):
        assert pt.enumerate_dp_h(3, 7) == [
            (7,), (6, 1), (5, 2), (4, 3), (4, 2, 1), (3, 3, 1)]

    def test_dp_h_1(self):
        assert pt.enumerate_dp_h(3, 1) == [(1,)]

    def test_dp_from_dp_h_filter(self):
        got = [lam for lam in pt.enumerate_dp_h(3, 7) if pt.is_strict(lam)]
        assert got == [(7,), (6, 1), (5, 2), (4, 3), (4, 2, 1)]
        assert got == pt.enumerate_dp(7)

    def test_dp_10_matches_row_count(self):
        assert len(pt.enumerate_dp(10)) == 10

    def test_dp_h_10_count(self):
        assert len(pt.enumerate_dp_h(3, 10)) == 12

    def test_dpr_10(self):
        assert pt.enumerate_dpr_h(3, 10) == [
            (5, 4, 1), (5, 3, 2), (4, 3, 2, 1), (3, 3, 3, 1)]

    def test_dpr_11(self):
        # frozen from the brute-force filter below
        assert pt.enumerate_dpr_h(3, 11) == [
            (6, 4, 1), (5, 4, 2), (5, 3, 2, 1), (4, 3, 3, 1), (3, 3, 3, 2)]

    def test_dpr_7_21_contains_display_labels(self):
        out = pt.enumerate_dpr_h(7, 21)
        assert (7, 5, 4, 3, 2) in out
        assert (6, 5, 4, 3, 2, 1) in out

    @pytest.mark.parametrize("h", [3, 5, 7])
    @pytest.mark.parametrize("m", range(0, 13))
    def test_against_brute_force(self, h, m):
        everything = [tuple(reversed(lam)) for lam in brute_partitions(m)]
        want_dp_h = sorted((lam for lam in everything if oracle_is_dp_h(h, lam)),
                           reverse=True)
        want_dpr = sorted((lam for lam in everything if oracle_is_dpr_h(h, lam)),
                          reverse=True)
        want_dp = sorted((lam for lam in everything if len(set(lam)) == len(lam)),
                         reverse=True)
        assert pt.enumerate_dp_h(h, m) == want_dp_h
        assert pt.enumerate_dpr_h(h, m) == want_dpr
        assert pt.enumerate_dp(m) == want_dp

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_dpr_subset_dp_h(self, h):
        for m in range(0, 31):
            dpr = set(pt.enumerate_dpr_h(h, m))
            dph = set(pt.enumerate_dp_h(h, m))
            assert dpr <= dph

    def test_decreasing_lex_everywhere(self):
        for lst in (pt.enumerate_dp(9), pt.enumerate_dp_h(5, 9),
                    pt.enumerate_dpr_h(5, 9)):
            assert lst == sorted(lst, reverse=True)


class TestResidues:
    def test_row_h7(self):
        assert [pt.residue(7, c) for c in range(11)] == [
            3, 2, 1, 0, 1, 2, 3, 3, 2, 1, 0]

    def test_h3_column0(self):
        assert pt.residue(3, 0) == 1

    def test_column_seven_h7(self):
        assert pt.residue(7, 7) == 3

    @pytest.mark.parametrize("h", [3, 5, 7, 9])
    def test_against_oracle(self, h):
        for c in range(4 * h):
            assert pt.residue(h, c) == oracle_residue(h, c)

    def test_content_empty(self):
        assert pt.residue_content(3, ()) == (0, 0)

    def test_content_21(self):
        assert pt.residue_content(3, (2, 1)) == (1, 2)

    def test_content_total(self):
        for lam in pt.enumerate_dp_h(5, 9):
            assert sum(pt.residue_content(5, lam)) == 9


class TestLadders:
    def test_single_cell(self):
        dec = pt.ladders(3, (1,))
        assert dec.indices == (1,)
        assert dec.steps == ((1, 1),)

    def test_big_example(self):
        dec = pt.ladders(7, (11, 7, 7, 4))
        assert len(dec.indices) == 22
        assert dec.steps[6] == (3, 3)

    def test_rejects_non_dp_h(self):
        with pytest.raises(ValueError):
            pt.ladders(3, (2, 2))

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_plane_oracle(self, h):
        for m in range(0, 15):
            for lam in pt.enumerate_dp_h(h, m):
                groups = oracle_plane_ladders(h, lam)
                by_index = {}
                for k, part in enumerate(lam, start=1):
                    for c in range(part):
                        by_index.setdefault(
                            pt.ladder_index(h, k, c), []).append((k, c))
                formula_groups = sorted(sorted(g) for g in by_index.values())
                assert formula_groups == groups

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_cells_partitioned_with_constant_residue(self, h):
        for m in range(0, 21):
            for lam in pt.enumerate_dp_h(h, m):
                dec = pt.ladders(h, lam)
                assert sum(c for _, c in dec.steps) == m
                # constant residue per ladder is asserted inside ladders()

    def test_remove_outer_ladder(self):
        nu, res, cnt = pt.remove_outer_ladder(3, (4, 3, 2))
        assert (res, cnt) == (0, 1)
        assert nu == (4, 3, 1)

    def test_remove_outer_ladder_reaches_vacuum(self):
        lam = (5, 4, 1)
        seen = [lam]
        while lam:
            lam, _, _ = pt.remove_outer_ladder(3, lam)
            seen.append(lam)
        assert seen[-1] == ()
        assert all(pt.in_dpr_h(3, x) for x in seen)


class TestExponents:
    def test_a_and_b(self):
        assert pt.a_h(3, (5, 4, 1)) == 2
        assert pt.b_exponent((5, 4, 1)) == 3
        assert pt.a_h(3, (10,)) == 3
        assert pt.b_exponent((10,)) == 4
        assert pt.a_h(7, (11, 7, 7, 4)) == 1


class TestBarCores:
    """The conftest bar-core oracle that checks block purity elsewhere."""

    def test_examples(self):
        assert oracle_hbar_core(3, (3, 3, 3, 1)) == (1,)
        assert oracle_hbar_core(3, (5, 3, 2)) == (5, 2)
        assert oracle_hbar_core(3, ()) == ()

    def test_block_mates(self):
        assert oracle_hbar_core(3, (3, 3, 3, 1)) == oracle_hbar_core(3, (5, 4, 1))
        assert oracle_hbar_core(3, (5, 3, 2)) == oracle_hbar_core(3, (8, 2))

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_confluence_random_orders(self, h, rng):
        for m in range(0, 17):
            for lam in pt.enumerate_dp(m):
                canonical = oracle_hbar_core(h, lam)
                for _ in range(4):
                    cur = lam
                    while True:
                        opts = oracle_bar_removals(h, cur)
                        if not opts:
                            break
                        cur = opts[rng.randrange(len(opts))]
                    assert cur == canonical

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_core_determines_content(self, h):
        # every DP_h label, repeated parts included: within one degree the
        # cores and the residue contents pair off one to one
        for m in range(0, 25):
            core_of, content_of = {}, {}
            for lam in pt.enumerate_dp_h(h, m):
                core = oracle_hbar_core(h, lam)
                content = pt.residue_content(h, lam)
                assert core_of.setdefault(content, core) == core, lam
                assert content_of.setdefault(core, content) == content, lam


class TestOrders:
    def test_reflexive(self):
        assert pt.dominance_leq((4, 3), (4, 3))

    def test_chain(self):
        assert pt.dominance_leq((3, 3, 3, 1), (4, 3, 2, 1))
        assert pt.dominance_leq((4, 3, 2, 1), (5, 3, 2))

    def test_541_vs_532(self):
        assert pt.dominance_leq((5, 3, 2), (5, 4, 1))
        assert not pt.dominance_leq((5, 4, 1), (5, 3, 2))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pt.dominance_leq((3,), (4,))

    def test_dominance_implies_lex(self):
        for m in range(0, 13):
            all_parts = list(pt.partitions(m))
            for lam in all_parts:
                for mu in all_parts:
                    if pt.dominance_leq(lam, mu):
                        assert lam <= mu


class TestShift:
    def test_examples(self):
        assert pt.shift_by_multiple(3, (), (1,)) == (3,)
        assert pt.shift_by_multiple(3, (2, 1), (1, 1)) == (5, 4)

    def test_lands_in_dp_h(self):
        for lam in pt.enumerate_dpr_h(3, 8):
            for mu in pt.partitions(3):
                shifted = pt.shift_by_multiple(3, lam, mu)
                assert pt.check_dp_h(3, shifted) == shifted


class TestParsing:
    def test_compact(self):
        assert pt.parse_partition("3321") == (3, 3, 2, 1)

    def test_commas(self):
        assert pt.parse_partition("11,7,7,4") == (11, 7, 7, 4)

    def test_large_single(self):
        assert pt.parse_partition("10") == (10,)

    def test_error_shows_typed_parts(self):
        with pytest.raises(ValueError, match=r"decreasing: \(1, 2\)$"):
            pt.parse_partition("1,2")

    @pytest.mark.parametrize("text", ["1 2", "3a", "1,a", "1,,2", "-",
                                      "(5,2)", "(5 2", "5 2)", "(a)"])
    def test_non_digit_text_names_text_and_forms(self, text):
        with pytest.raises(ValueError) as exc:
            pt.parse_partition(text)
        assert str(exc.value) == (
            f"cannot read {text!r} as a partition: give the printed form "
            "(11 7 7 4), comma-separated parts (11,7,7,4) or single digits "
            "(3321)")

    def test_empty(self):
        assert pt.parse_partition("") == ()
        assert pt.parse_partition("()") == ()
        assert pt.parse_partition("0") == ()

    @pytest.mark.parametrize("text", ["3,0", "3,3,0", "0,0", "3,0,1",
                                      "(3 0)", "(0)"])
    def test_zero_part_in_comma_form_refused(self, text):
        with pytest.raises(ValueError) as exc:
            pt.parse_partition(text)
        assert str(exc.value) == f"{text!r} has a zero part"

    def test_compact_strings_keep_their_meaning(self):
        assert [pt.parse_partition(t) for t in ("12", "30", "21")] == [
            (12,), (30,), (2, 1)]

    def test_format(self):
        assert pt.format_partition((5, 4, 1)) == "(5 4 1)"
        assert pt.format_partition(()) == "()"

    def test_printed_form(self):
        assert [pt.parse_partition(t) for t in ("(5 2)", "(12)", "()",
                                                " ( 5  2 ) ")] == [
            (5, 2), (12,), (), (5, 2)]

    @pytest.mark.parametrize("h", [3, 5])
    def test_printed_labels_read_back(self, h):
        for m in range(15):
            for lam in pt.enumerate_dp_h(h, m):
                assert pt.parse_partition(pt.format_partition(lam)) == lam
