import pytest

from spinfock import crystal
from spinfock import partitions as pt
from spinfock import fixtures as fx
from spinfock.canonical import CanonicalBasis
from spinfock.fock import apply_f_divided


def phi_letter(h, i, j):
    """Steps from letter j to the end of its i-string."""
    return crystal._walk(h, i, j, 1)


def eps_letter(h, i, j):
    """Steps from letter j back to the origin of its i-string."""
    return crystal._walk(h, i, j - 1, -1)


class TestLetterStrings:
    def test_rank_two_string_around_zero(self):
        # the colored string -1 -> 0 -> 1 at the short node
        assert phi_letter(5, 2, 0) == 1
        assert eps_letter(5, 2, 0) == 1
        assert phi_letter(5, 2, -1) == 2
        assert eps_letter(5, 2, 1) == 2

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_short_strings_for_other_colors(self, h):
        n = pt.rank(h)
        for i in range(n):
            for j in range(-h, 3 * h):
                assert eps_letter(h, i, j) in (0, 1)
                assert phi_letter(h, i, j) in (0, 1)

    def test_multiples_of_three(self):
        for k in range(0, 5):
            assert phi_letter(3, 1, 3 * k) == 1

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_eps_phi_walk_consistency(self, h):
        n = pt.rank(h)
        for i in range(n + 1):
            for j in range(-h, 2 * h):
                # moving one step along an arrow shifts the two statistics
                if phi_letter(h, i, j):
                    assert eps_letter(h, i, j + 1) == eps_letter(h, i, j) + 1
                    assert phi_letter(h, i, j + 1) == phi_letter(h, i, j) - 1


class TestLetterTable:
    @pytest.mark.parametrize("h", [3, 5, 7, 9])
    def test_table_matches_walks(self, h):
        # j = 0 and j = -1 mod h sit on the short node's string -1 -> 0 -> 1
        for i in range(pt.rank(h) + 1):
            table = crystal._letter_stats(h, i)
            assert len(table) == h
            for j in range(4 * h + 1):
                assert table[j % h] == (eps_letter(h, i, j),
                                        phi_letter(h, i, j)), (i, j)


def reference_stats(h, i, lam):
    """Per-letter walks folded by the two-factor rules, vacuum on the right."""
    letters = [(eps_letter(h, i, j), phi_letter(h, i, j)) for j in lam]
    stats = [(0, 1 if i == pt.rank(h) else 0)]
    for ea, pa in reversed(letters):
        et, ft = stats[0]
        stats.insert(0, (et + max(0, ea - ft), pa + max(0, ft - ea)))
    return letters, stats


def reference_ftilde(h, i, lam):
    letters, stats = reference_stats(h, i, lam)
    for k, (ea, pa) in enumerate(letters):
        if ea >= stats[k + 1][1]:
            return None if pa == 0 else lam[:k] + (lam[k] + 1,) + lam[k + 1:]
    return lam + (1,) if i == pt.rank(h) else None


def reference_etilde(h, i, lam):
    letters, stats = reference_stats(h, i, lam)
    for k, (ea, _) in enumerate(letters):
        if ea > stats[k + 1][1]:
            return pt.check_partition(lam[:k] + (lam[k] - 1,) + lam[k + 1:])
    return None


class TestOperatorsAgainstWalks:
    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_every_label_and_color(self, h):
        for m in range(13):
            for lam in pt.enumerate_dp_h(h, m):
                for i in range(pt.rank(h) + 1):
                    case = (h, i, lam)
                    out = crystal.ftilde(h, i, lam)
                    assert out == reference_ftilde(*case)
                    # component lowers unchecked: ftilde stays inside DP_h
                    assert out is None or pt.check_dp_h(h, out) == out
                    assert crystal.etilde(h, i, lam) == reference_etilde(*case)
                    eps0, phi0 = reference_stats(*case)[1][0]
                    assert crystal.eps(h, i, lam) == eps0, case
                    assert crystal.phi(h, i, lam) == phi0, case


class TestOperators:
    def test_string_from_2(self):
        walk = [(2,)]
        for _ in range(3):
            walk.append(crystal.ftilde(3, 1, walk[-1]))
        assert tuple(walk) == fx.STRING_FROM_2
        assert crystal.ftilde(3, 1, walk[-1]) is None

    def test_string_from_32(self):
        walk = [(3, 2)]
        for _ in range(3):
            walk.append(crystal.ftilde(3, 1, walk[-1]))
        assert tuple(walk) == fx.STRING_FROM_32

    def test_phi_331(self):
        assert crystal.phi(3, 1, (3, 3, 1)) == 1
        assert crystal.ftilde(3, 1, (3, 3, 1)) == (4, 3, 1)

    def test_vacuum(self):
        assert crystal.ftilde(3, 1, ()) == (1,)
        assert crystal.ftilde(3, 0, ()) is None
        assert crystal.phi(3, 1, ()) == 1
        assert crystal.phi(3, 0, ()) == 0
        assert crystal.etilde(3, 1, ()) is None

    @pytest.mark.parametrize("h", [3, 5])
    def test_rejects_bad_color(self, h):
        for i in (-1, pt.rank(h) + 1):
            for op in (crystal.ftilde, crystal.etilde, crystal.eps, crystal.phi):
                with pytest.raises(ValueError, match=f"color {i} out of range"):
                    op(h, i, (2,))

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            crystal.ftilde(3, 1, (2, 2))

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_etilde_inverts_ftilde(self, h):
        n = pt.rank(h)
        for m in range(0, 10):
            for lam in pt.enumerate_dp_h(h, m):
                for i in range(n + 1):
                    out = crystal.ftilde(h, i, lam)
                    if out is not None:
                        assert crystal.etilde(h, i, out) == lam

    @pytest.mark.parametrize("h", [3, 5, 7])
    def test_string_lengths(self, h):
        n = pt.rank(h)
        for m in range(0, 11):
            for lam in pt.enumerate_dpr_h(h, m):
                for i in range(n + 1):
                    cur, steps = lam, 0
                    while True:
                        nxt = crystal.ftilde(h, i, cur)
                        if nxt is None:
                            break
                        cur, steps = nxt, steps + 1
                    assert steps == crystal.phi(h, i, lam)
                    cur, steps = lam, 0
                    while True:
                        nxt = crystal.etilde(h, i, cur)
                        if nxt is None:
                            break
                        cur, steps = nxt, steps + 1
                    assert steps == crystal.eps(h, i, lam)


def expand_in_g(solver, v):
    """{s: c_s} with v = sum_s c_s G(s), eliminating at the lex-least row.

    G(s) is |s> plus rows lex-greater than s, so the lex-least support row
    of what is left must be the label of the next G; it must be h-regular.
    """
    rest, out = dict(v.terms()), {}
    while rest:
        s = min(rest)
        assert pt.in_dpr_h(solver.h, s), f"row {s} is not {solver.h}-regular"
        c = out[s] = rest[s]
        for lam, g in solver.column(s).terms():
            left = rest.get(lam, 0) - c * g
            if left:
                rest[lam] = left
            else:
                del rest[lam]
    return out


class TestStringProperty:
    """Kashiwara's string property of the global basis (Duke Math. J. 69,
    1993), as used by Lascoux-Leclerc-Thibon (CMP 181, 1996): it ties the
    crystal operators to the computed G."""

    @pytest.mark.parametrize("h, top, cases", [(3, 20, 355), (5, 20, 671),
                                               (7, 21, 967)])
    def test_string_property(self, h, top, cases):
        # a case is (nu, i, k) with f_i^(k) G(nu) nonzero, |nu| + k <= top
        solver, seen = CanonicalBasis(h), 0
        for d in range(top):
            for nu in pt.enumerate_dpr_h(h, d):
                g_nu = solver.column(nu)
                for i in range(pt.rank(h) + 1):
                    for k in range(1, top - d + 1):
                        image = apply_f_divided(h, i, k, g_nu)
                        if not image:
                            break
                        self.check(solver, nu, i, k, expand_in_g(solver, image))
                        seen += 1
        assert seen == cases

    @staticmethod
    def check(solver, nu, i, k, coeffs):
        h, case = solver.h, (nu, i, k)
        for s, c in coeffs.items():
            assert c.bar() == c, (case, s, c)
            assert crystal.eps(h, i, s) >= k, (case, s)
        if crystal.eps(h, i, nu) == 0 and k <= crystal.phi(h, i, nu):
            target = nu
            for _ in range(k):
                target = crystal.ftilde(h, i, target)
            assert coeffs.get(target) == 1, (case, target, coeffs.get(target))
            assert all(crystal.eps(h, i, s) > k
                       for s in coeffs if s != target), case


class TestComponent:
    def test_vertices_match_regular_labels(self):
        graph = crystal.component(3, (), 10)
        for m in range(11):
            assert graph.vertices_of_degree(m) == pt.enumerate_dpr_h(3, m)

    def test_degree_zero(self):
        graph = crystal.component(5, (), 0)
        assert graph.vertices == ((),)
        assert graph.edges == ()

    def test_start_above_bound_rejected(self):
        with pytest.raises(ValueError, match=r"start \(3,\) has degree 3, "
                                             r"above max degree 2"):
            crystal.component(3, (3,), 2)
        assert crystal.component(3, (3,), 3).vertices == ((3,),)

    def test_shifted_component_isomorphic(self):
        base = crystal.component(3, (), 5)
        moved = crystal.component(3, (3,), 8)
        mapped = {pt.shift_by_multiple(3, v, (1,)) for v in base.vertices}
        assert mapped == set(moved.vertices)
        mapped_edges = {(pt.shift_by_multiple(3, a, (1,)), i,
                         pt.shift_by_multiple(3, b, (1,)))
                        for a, i, b in base.edges}
        assert mapped_edges == set(moved.edges)

    @pytest.mark.parametrize("h, top", [(3, 14), (5, 12), (7, 12)])
    def test_edges_are_the_public_lowerings(self, h, top):
        # the breadth-first search and ftilde share one kernel; the walks of
        # reference_ftilde check that kernel itself
        graph = crystal.component(h, (), top)
        for m in range(top + 1):
            assert graph.vertices_of_degree(m) == pt.enumerate_dpr_h(h, m)
        inner = [v for v in graph.vertices if sum(v) < top]
        colors = range(pt.rank(h) + 1)
        public = {(v, i, crystal.ftilde(h, i, v)) for v in inner for i in colors}
        walked = {(v, i, reference_ftilde(h, i, v)) for v in inner for i in colors}
        assert public == walked
        assert set(graph.edges) == {e for e in public if e[2] is not None}

    def test_edges_deterministic_and_unique_color(self):
        graph = crystal.component(3, (), 8)
        assert len(set(graph.edges)) == len(graph.edges)
        outgoing = {}
        for a, i, b in graph.edges:
            assert sum(b) == sum(a) + 1
            assert (a, i) not in outgoing
            outgoing[(a, i)] = b


class TestShiftEquivariance:
    def test_up_to_degree_10(self):
        from spinfock.verify import shift_equivariance_holds
        res = shift_equivariance_holds(3, 10)
        assert res.ok, res.detail


class TestHighestWeight:
    def test_multiples_of_h(self):
        got = crystal.highest_weight_vertices(3, 7)
        assert got == [(), (3,), (6,), (3, 3)]

    def test_empty_is_highest(self):
        assert () in crystal.highest_weight_vertices(5, 0)

    @pytest.mark.parametrize("h", [3, 5])
    def test_killed_by_all_raising(self, h):
        n = pt.rank(h)
        hw = set(crystal.highest_weight_vertices(h, 12))
        for m in range(0, 13):
            for lam in pt.enumerate_dp_h(h, m):
                killed = all(crystal.etilde(h, i, lam) is None
                             for i in range(n + 1))
                assert killed == (lam in hw)

    def test_counts_are_partition_numbers(self):
        counts = {}
        for v in crystal.highest_weight_vertices(3, 18):
            counts[sum(v)] = counts.get(sum(v), 0) + 1
        partition_numbers = [1, 1, 2, 3, 5, 7, 11]
        for k, want in enumerate(partition_numbers):
            assert counts.get(3 * k, 0) == want


class TestSerialization:
    def test_dot_output(self):
        graph = crystal.component(3, (), 2)
        dot = graph.to_dot()
        assert dot.startswith("digraph crystal {")
        assert '"()" -> "1" [label="1"];' in dot
        assert '"1" -> "2" [label="0"];' in dot

    def test_json_output(self):
        graph = crystal.component(3, (), 3)
        obj = graph.to_json()
        assert obj["h"] == 3
        assert [2, 1] in obj["vertices"]
        assert {"from": [1], "color": 0, "to": [2]} in obj["edges"]
