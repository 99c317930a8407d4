"""Per-layer counters wrapped around spinfock's module boundaries.

`install()` replaces the public entry points of each spinfock module, in
the running process only, with wrappers that count calls and add up
seconds.  No file under src/ changes.  A wrapped group (for example all
LaurentPoly addition methods) counts and times only its outermost call, so
`__sub__` calling `__add__` is one addition and nested time is not counted
twice.  Spans are aggregated in memory rather than kept one by one: the hot
groups run millions of times per command.

`Tracer.report()` returns raw numerators and denominators; perfbench/run.py
adds them up over the commands of a workload and derives the metrics.
"""

from __future__ import annotations

import json
import sys
import time


class Stat:
    __slots__ = ("calls", "secs", "depth")

    def __init__(self):
        self.calls = 0
        self.secs = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.counts = {}
        self.distinct = {}
        self.matrices = []

    def stat(self, key) -> Stat:
        return self.stats.setdefault(key, Stat())

    def bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def wrap(self, key, fn, after=None):
        """Wrap fn under group `key`; after(args, result, seconds) runs
        outside the timed region of each outermost call."""
        st = self.stat(key)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if st.depth:
                return fn(*args, **kwargs)
            st.calls += 1
            st.depth = 1
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t
                st.secs += elapsed
                st.depth = 0
            if after is not None:
                after(args, result, elapsed)
            return result

        return wrapper

    def patch_function(self, module, name, key, after=None):
        """Rebind module.name in every spinfock module that imported it."""
        original = getattr(module, name)
        wrapped = self.wrap(key, original, after)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("spinfock")
                    and getattr(mod, name, None) is original):
                setattr(mod, name, wrapped)

    def patch_methods(self, cls, names, key, after=None):
        for name in names:
            setattr(cls, name, self.wrap(key, cls.__dict__[name], after))

    def report(self) -> dict:
        """Raw counters, plus coefficient sizes read from the solved
        matrices after the command finished (outside any timed region)."""
        max_abs, lo, hi = 0, None, None
        for M in self.matrices:
            for mu in M.labels:
                for _, poly in M.columns[mu].terms():
                    for e, a in poly.coeffs().items():
                        max_abs = max(max_abs, abs(a))
                        lo = e if lo is None else min(lo, e)
                        hi = e if hi is None else max(hi, e)
        counts = dict(self.counts)
        counts["laurent.max_abs_coeff"] = max_abs
        counts["laurent.exp_span"] = 0 if lo is None else hi - lo
        for key, seen in self.distinct.items():
            counts[key] = len(seen)
        return {
            "stats": {k: {"calls": s.calls, "secs": s.secs}
                      for k, s in self.stats.items()},
            "counts": counts,
        }


class _TimedStdout:
    """sys.stdout stand-in whose writes are timed as CLI emission."""

    def __init__(self, raw, write):
        self._raw = raw
        self.write = write

    def __getattr__(self, name):
        return getattr(self._raw, name)


def install() -> Tracer:
    """Wrap every layer boundary; spinfock.cli must already be imported."""
    from spinfock import canonical, crystal, fock, laurent, modular
    from spinfock import partitions as pt
    from spinfock import verify

    tr = Tracer()

    # canonical: the solve and its three stages
    def solved(args, M, elapsed):
        tr.bump("canonical.columns", len(M.labels))
        tr.bump("canonical.nnz", sum(len(M.columns[mu]) for mu in M.labels))
        tr.matrices.append(M)
        if tr.stat("modular.reduced_matrix").depth:
            tr.counts["modular.inner_solve_s"] = (
                tr.counts.get("modular.inner_solve_s", 0.0) + elapsed)

    tr.patch_methods(canonical.CanonicalBasis, ["_solve_degree"],
                     "canonical.solve", solved)
    tr.patch_methods(canonical.CanonicalBasis, ["_intermediate"],
                     "canonical.intermediate")
    tr.patch_methods(canonical.CanonicalBasis, ["_validate_column"],
                     "canonical.validate")
    tr.patch_function(canonical, "symmetrize_tail", "canonical.symmetrize_tail",
                      lambda a, g, e: g and tr.bump("canonical.useful_reductions"))
    tr.patch_methods(canonical.BasisMatrix, ["to_json", "render_table", "to_csv"],
                     "canonical.serialize")

    # fock: divided powers, single lowering steps, straightening, vector ops
    dp_seen = tr.distinct.setdefault("fock.divided_power_distinct", set())

    def divided(args, result, elapsed):
        h, i, k, v = args
        tr.bump("fock.label_applications", len(v))
        dp_seen.update((h, i, k, lam) for lam, _ in v.terms())

    tr.patch_function(fock, "apply_f_divided", "fock.apply_f_divided", divided)
    tr.patch_function(fock, "apply_f", "fock.apply_f")
    tr.patch_function(fock, "straighten", "fock.straighten")
    tr.patch_methods(fock.FockVector, ["__add__", "__sub__", "__neg__", "scaled"],
                     "fock.vector_ops")

    # laurent: coefficient arithmetic
    P = laurent.LaurentPoly
    tr.patch_methods(P, ["__mul__", "__rmul__"], "laurent.mul")
    tr.patch_methods(P, ["__add__", "__radd__", "__sub__", "__rsub__"],
                     "laurent.add")
    tr.patch_methods(P, ["exact_div"], "laurent.exact_div")

    # partitions: residue content, dominance, ladders, enumeration
    rc_seen = tr.distinct.setdefault("partitions.residue_content_distinct", set())
    tr.patch_function(pt, "residue_content", "partitions.residue_content",
                      lambda a, r, e: rc_seen.add((a[0], tuple(a[1]))))
    tr.patch_function(pt, "dominance_leq", "partitions.dominance_leq")
    for name in ("ladders", "remove_outer_ladder"):
        tr.patch_function(pt, name, "partitions.ladders")
    for name in ("enumerate_dp", "enumerate_dp_h", "enumerate_dpr_h"):
        tr.patch_function(pt, name, "partitions.enumerate")

    # modular: the q = 1 reduction
    tr.patch_function(modular, "character_image", "modular.character_image")
    tr.patch_function(modular, "reduced_matrix", "modular.reduced_matrix")
    tr.patch_methods(modular.ReducedMatrix, ["to_json", "render_table", "to_csv"],
                     "modular.serialize")

    # crystal
    tr.patch_function(crystal, "component", "crystal.component",
                      lambda a, g, e: tr.bump("crystal.vertices", len(g.vertices)))
    tr.patch_function(crystal, "ftilde", "crystal.ftilde",
                      lambda a, w, e: w is not None and tr.bump("crystal.useful_ftilde"))
    tr.patch_methods(crystal.CrystalGraph, ["to_json", "to_dot"],
                     "crystal.serialize")

    # verify
    def checked(args, report, elapsed):
        tr.bump("verify.checks", len(report.results))
        tr.bump("verify.checks_failed", sum(not r.ok for r in report.results))

    tr.patch_function(verify, "run_suite", "verify.suite", checked)

    # cli: emission to stdout, json.dump and direct writes as one group
    json.dump = tr.wrap("cli.emit", json.dump)
    sys.stdout = _TimedStdout(sys.stdout, tr.wrap("cli.emit", sys.stdout.write))
    return tr
