"""Embedded fixture checks and property suites behind the verify command.

Each check computes what it compares from the engine's plain results (the
label counts and the character rank from partitions, crystal and modular)
and returns a CheckResult; suites aggregate them into a Report that
serializes to JSON for machine consumption.  The property helpers take
scale parameters so the command line can run them at reduced depth while
the acceptance tests run them at full depth.
"""

from __future__ import annotations

import functools
import random
from collections import namedtuple
from fractions import Fraction

from .laurent import LaurentPoly, generator_scale
from .fock import FockVector, apply_f, apply_e, apply_t, straighten
from .canonical import CanonicalBasis, a_vector, canonical_basis, check_basis_matrix
from . import partitions as pt
from . import crystal
from . import modular
from . import fixtures as fx


CheckResult = namedtuple("CheckResult", "name ok detail", defaults=("",))


class Report(namedtuple("Report", "suite results exports", defaults=(None,))):
    """Results of one suite; exports holds data for external tables (not
    for `paper`)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> dict:
        out = {"suite": self.suite, "ok": self.ok,
               "results": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                           for r in self.results]}
        if self.exports is not None:
            out["exports"] = self.exports
        return out


def _compare(name, computed, expected) -> CheckResult:
    if computed == expected:
        return CheckResult(name, True)
    return CheckResult(name, False, f"computed {computed!r} != expected {expected!r}")


# -- fixture checks -----------------------------------------------------------

def check_lowering_fixtures() -> list:
    out = []
    got = apply_f(5, 2, FockVector.basis((5, 4, 2)))
    out.append(_compare("f2 on |542>, h=5", got, fx.fock_vector(fx.F2_ON_542)))
    got = apply_f(5, 2, FockVector.basis((5, 5, 2)))
    out.append(_compare("f2 on |552>, h=5", got, fx.fock_vector(fx.F2_ON_552)))
    for h in (3, 5, 7):
        n = pt.rank(h)
        vac = FockVector.basis(())
        ok = (apply_f(h, n, vac) == FockVector.basis((1,))
              and all(not apply_f(h, i, vac) for i in range(n))
              and all(not apply_e(h, i, vac) for i in range(n + 1))
              and apply_t(h, n, vac) == vac.scaled(LaurentPoly({1: 1}))
              and all(apply_t(h, i, vac) == vac for i in range(n)))
        out.append(CheckResult(f"vacuum rules, h={h}", ok))
    return out


def check_degree9_fixtures() -> list:
    out = []
    out.append(_compare("A(3321), h=3", a_vector(3, (3, 3, 2, 1)),
                        fx.fock_vector(fx.A_3321_H3)))
    M = canonical_basis(3, 9)
    out.append(_compare("G(3321), h=3", M.column((3, 3, 2, 1)),
                        fx.fock_vector(fx.G_3321_H3)))
    out.append(_compare("G(531), h=3", M.column((5, 3, 1)),
                        fx.fock_vector(fx.G_531_H3)))
    out.append(_compare("G(432), h=3", M.column((4, 3, 2)),
                        fx.fock_vector(fx.G_432_H3)))
    return out


def check_degree10_matrix() -> list:
    M = canonical_basis(3, 10)
    out = []
    for mu, data in sorted(fx.CANONICAL_3_10.items(), reverse=True):
        out.append(_compare(f"canonical column {mu}, h=3 m=10",
                            M.column(mu), fx.fock_vector(data)))
    out.append(_compare("canonical label set, h=3 m=10",
                        M.labels, fx.DPR3_10))
    rep = check_basis_matrix(M)
    out.append(CheckResult("matrix checks, h=3 m=10", rep.ok, str(rep)))
    return out


def check_degree21_fixtures() -> list:
    M = canonical_basis(7, 21)
    out = [
        _compare("G(75432), h=7", M.column((7, 5, 4, 3, 2)),
                 fx.fock_vector(fx.G_75432_H7)),
        _compare("G(654321), h=7", M.column((6, 5, 4, 3, 2, 1)),
                 fx.fock_vector(fx.G_654321_H7)),
        _compare("bottom label of G(75432)", M.bottom_label((7, 5, 4, 3, 2)),
                 fx.SHARED_BOTTOM_H7_21),
        _compare("bottom label of G(654321)", M.bottom_label((6, 5, 4, 3, 2, 1)),
                 fx.SHARED_BOTTOM_H7_21),
    ]
    return out


def check_reduction_pipeline() -> list:
    out = []
    computed = modular.reduced_matrix(3, 10)
    embedded = fx.reduced_matrix_3_10()
    out.append(_compare("reduced matrix p=3 m=10", computed, embedded))
    reduced = modular.reduce_external_matrix(fx.DECOMP_S10_P3_CSV, 3)
    out.append(_compare("external matrix reduction p=3 m=10", reduced, embedded))
    out.append(CheckResult("no negative entries p=3 m=10",
                           not computed.negative_entries()))
    out.append(_compare("strict row count m=10", len(computed.row_labels()), 10))
    out.append(_compare("DP_3(10) row count", len(pt.enumerate_dp_h(3, 10)), 12))
    return out


def check_partition_fixtures() -> list:
    out = [
        _compare("DP_3(7)", tuple(pt.enumerate_dp_h(3, 7)), fx.DP3_7),
        _compare("DPR_3(10)", tuple(pt.enumerate_dpr_h(3, 10)), fx.DPR3_10),
        _compare("residues of columns 0..10, h=7",
                 tuple(pt.residue(7, c) for c in range(11)), fx.RESIDUE_ROW_H7),
    ]
    dec = pt.ladders(7, (11, 7, 7, 4))
    out.append(_compare("ladder count of (11,7,7,4)", len(dec.indices), 22))
    out.append(_compare("ladder monomial of (11,7,7,4)", dec.steps,
                        fx.LADDERS_11774_H7))
    out.append(_compare("7th ladder of (11,7,7,4)", dec.steps[6], (3, 3)))
    return out


def check_crystal_fixtures() -> list:
    out = []
    for name, string in (("string from (2)", fx.STRING_FROM_2),
                         ("string from (32)", fx.STRING_FROM_32)):
        walk = [string[0]]
        for _ in range(len(string) - 1):
            nxt = crystal.ftilde(3, 1, walk[-1])
            if nxt is None:
                break
            walk.append(nxt)
        out.append(_compare(name, tuple(walk), string))
    out.append(_compare("phi_1(331), h=3", crystal.phi(3, 1, (3, 3, 1)), 1))
    graph = crystal.component(3, (), 10)
    out.append(_compare("degree-10 crystal layer, h=3",
                        tuple(graph.vertices_of_degree(10)), fx.DPR3_10))
    return out


def run_paper_suite() -> Report:
    results = []
    results += check_lowering_fixtures()
    results += check_degree9_fixtures()
    results += check_degree10_matrix()
    results += check_degree21_fixtures()
    results += check_reduction_pipeline()
    results += check_partition_fixtures()
    results += check_crystal_fixtures()
    return Report("paper", tuple(results))


# -- property helpers ---------------------------------------------------------

def triangularity_holds(h: int, max_m: int) -> CheckResult:
    pt.check_degree(max_m)
    solver = CanonicalBasis(h)
    for m in range(max_m + 1):
        rep = check_basis_matrix(solver.matrix(m))
        if not rep.ok:
            return CheckResult(f"basis matrix checks h={h}", False, str(rep))
    return CheckResult(f"basis matrix checks h={h} m<={max_m}", True)


def shift_equivariance_holds(h: int, max_m: int) -> CheckResult:
    """ftilde commutes with adding h*mu componentwise, shifting components."""
    pt.check_degree(max_m)
    n = pt.rank(h)
    graph = crystal.component(h, (), max_m)
    shifts = [mu for k in range(0, max_m // h + 1) for mu in pt.partitions(k)]
    for lam in graph.vertices:
        for mu in shifts:
            shifted = pt.shift_by_multiple(h, lam, mu)
            for i in range(n + 1):
                a = crystal.ftilde(h, i, lam)
                b = crystal.ftilde(h, i, shifted)
                want = None if a is None else pt.shift_by_multiple(h, a, mu)
                if b != want:
                    return CheckResult(
                        f"shift equivariance h={h}", False,
                        f"lam={lam} shift={mu} color={i}: {b} != {want}")
    return CheckResult(f"shift equivariance h={h} m<={max_m}", True)


def _random_generator_words(rng, count):
    """Unstraightened words as produced inside the generator actions."""
    words, pools = [], functools.cache(pt.enumerate_dp_h)
    while len(words) < count:
        h = rng.choice((3, 5, 7))
        pool = pools(h, rng.randrange(1, 13))
        lam = pool[rng.randrange(len(pool))]
        k = rng.randrange(len(lam))
        delta = rng.choice((1, -1))
        w = list(lam)
        w[k] += delta
        if w[k] < 0:
            continue
        words.append((tuple(w), h))
    return words


def confluence_holds(count: int = 10000, seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    for word, h in _random_generator_words(rng, count):
        try:
            base = straighten(word, h)
        except Exception as exc:  # an uncovered word would also be a failure
            return CheckResult("normal-order confluence", False,
                               f"{word} h={h}: {exc}")
        for _ in range(4):
            if straighten(word, h, rng=rng) != base:
                return CheckResult("normal-order confluence", False,
                                   f"{word} h={h}: order-dependent result")
    return CheckResult(f"normal-order confluence ({count} words)", True)


def fast_slow_agree(h: int, max_m: int) -> CheckResult:
    pt.check_degree(max_m)
    fast = CanonicalBasis(h, fast=True)
    slow = CanonicalBasis(h, fast=False)
    for m in range(max_m + 1):
        if fast.matrix(m) != slow.matrix(m):
            return CheckResult(f"fast/slow agreement h={h}", False, f"degree {m}")
    return CheckResult(f"fast/slow agreement h={h} m<={max_m}", True)


def quotient_intertwines(p: int, max_m: int) -> CheckResult:
    """q = 1 generator action against the classical part-replacement action."""
    pt.check_degree(max_m)
    n = pt.rank(p)
    for m in range(max_m + 1):
        for lam in pt.enumerate_dp_h(p, m):
            v = FockVector.basis(lam)
            cls = modular.classical_image(p, v)
            for i in range(n + 1):
                for name, act, classical in (
                        ("f", apply_f, modular.classical_f),
                        ("e", apply_e, modular.classical_e)):
                    got = modular.classical_image(p, act(p, i, v))
                    want = classical(p, i, cls)
                    if got != want:
                        return CheckResult(
                            f"quotient intertwiner p={p}", False,
                            f"{name}_{i}|{lam}>: {got} != {want}")
    return CheckResult(f"quotient intertwiner p={p} m<={max_m}", True)


def _commutator_rhs(h, i, v):
    """(t_i - 1/t_i) / (q_i - 1/q_i) applied to a vector, exactly."""
    n = pt.rank(h)
    d = generator_scale(i, n)
    denom = LaurentPoly({d: 1, -d: -1})
    diff = apply_t(h, i, v) - apply_t(h, i, v, inverse=True)
    return FockVector({lam: c.exact_div(denom) for lam, c in diff.terms()})


def commutator_holds(h: int, max_degree: int, trials: int = 25,
                     seed: int = 1) -> CheckResult:
    pt.check_degree(max_degree)
    rng = random.Random(seed)
    n = pt.rank(h)
    for _ in range(trials):
        m = rng.randrange(0, max_degree + 1)
        pool = pt.enumerate_dp_h(h, m)
        v = FockVector()
        for lam in rng.sample(pool, min(3, len(pool))):
            poly = LaurentPoly({rng.randrange(-3, 4): rng.randrange(-4, 5)
                                for _ in range(2)})
            v = v + FockVector.basis(lam).scaled(poly)
        if not v:
            continue
        for i in range(n + 1):
            for j in range(n + 1):
                lhs = apply_e(h, i, apply_f(h, j, v)) - apply_f(h, j, apply_e(h, i, v))
                rhs = _commutator_rhs(h, i, v) if i == j else FockVector()
                if lhs != rhs:
                    return CheckResult(
                        f"commutator relation h={h}", False,
                        f"[e_{i}, f_{j}] on {v!r}")
    return CheckResult(f"commutator relation h={h} deg<={max_degree}", True)


def divided_power_integrality(h: int, max_m: int) -> CheckResult:
    """Every ladder monomial applies with exact quantum-factorial division."""
    pt.check_degree(max_m)
    try:
        for m in range(max_m + 1):
            for mu in pt.enumerate_dpr_h(h, m):
                a_vector(h, mu)
    except Exception as exc:
        return CheckResult(f"divided-power integrality h={h}", False, str(exc))
    return CheckResult(f"divided-power integrality h={h} m<={max_m}", True)


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


def rank_checks(p: int, max_m: int) -> CheckResult:
    """The intermediate vectors stay independent at q = 1: the columns
    character_image(A(mu)), mu in DPR_p(m), have full rational rank."""
    pt.check_degree(max_m)
    for m in range(max_m + 1):
        labels = pt.enumerate_dpr_h(p, m)
        rows = pt.enumerate_dp(m)
        cols = []
        for mu in labels:
            cv = modular.character_image(p, a_vector(p, mu))
            cols.append([cv.get(lam, 0) for lam in rows])
        rank_ = _rational_rank(cols)
        if rank_ != len(labels):
            return CheckResult(f"character rank p={p}", False,
                               f"m={m}: rank {rank_} != {len(labels)}")
    return CheckResult(f"character rank p={p} m<={max_m}", True)


def count_checks(p: int, max_m: int) -> CheckResult:
    """|DPR_p(m)|, the odd-part series and the layer sizes of the vacuum
    crystal agree for every m <= max_m."""
    pt.check_degree(max_m)
    reg = tuple(len(pt.enumerate_dpr_h(p, m)) for m in range(max_m + 1))
    ser = tuple(modular.odd_series_coefficients(p, max_m))
    counts = crystal.component(p, (), max_m).degree_counts()
    cry = tuple(counts.get(m, 0) for m in range(max_m + 1))
    ok = reg == ser == cry
    detail = "" if ok else f"dpr={reg} series={ser} crystal={cry}"
    return CheckResult(f"label counts p={p} m<={max_m}", ok, detail)


def run_property_suite(max_degree: int = 9, seed: int = 0) -> Report:
    results = [
        triangularity_holds(3, max_degree),
        triangularity_holds(5, max_degree),
        shift_equivariance_holds(3, min(max_degree, 10)),
        confluence_holds(2000, seed),
        fast_slow_agree(3, min(max_degree, 10)),
        quotient_intertwines(3, min(max_degree, 9)),
        quotient_intertwines(5, min(max_degree, 9)),
        commutator_holds(3, min(max_degree, 9), trials=10, seed=seed),
        commutator_holds(5, min(max_degree, 9), trials=10, seed=seed),
        divided_power_integrality(3, max_degree),
        rank_checks(3, max_degree),
        count_checks(3, max(max_degree, 12)),
        count_checks(5, max(max_degree, 12)),
        count_checks(7, max(max_degree, 12)),
    ]
    exports = {
        "reduced_matrix_p3_m11": modular.reduced_matrix(3, 11).to_json(),
        "external_column_combinations_p3_m11": [
            [list(mu) for mu in combo]
            for combo in fx.M11_P3_EXTERNAL_COMBINATIONS
        ],
    }
    return Report("properties", tuple(results), exports)


def run_suite(name: str, max_degree: int = 9, seed: int = 0) -> Report:
    pt.check_degree(max_degree)
    if name == "paper":
        return run_paper_suite()
    if name == "properties":
        return run_property_suite(max_degree, seed)
    if name == "all":
        paper = run_paper_suite()
        props = run_property_suite(max_degree, seed)
        return Report("all", paper.results + props.results, props.exports)
    raise ValueError(f"unknown suite {name!r}")
