"""spinfock benchmark: real CLI commands, each in a cold process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):
  canonical-deep  canonical --n 1 --m 33 --format json
  crystal-verify  the h=3 vacuum crystal to degree 56 (JSON), one h=3 (JSON)
                  and one h=5 (DOT) component from highest-weight starts
                  picked by the seed, then verify --suite all --seed N

One pass runs the workload's commands one after another, each in a fresh
interpreter with a fresh solver, one process at a time.  Passes
repeat until the next one would end after --seconds.  Every output's
sha256 and exit code are checked against perfbench/expected.json, outside
the timed region.

--trace 0 reports the end-to-end metrics: wall_ref_s (median over passes
of the summed command time from argument parsing to the last output byte),
peak_rss_mb (median over passes of the largest command) and setup_s
(median interpreter start plus `import spinfock.cli`, sampled between
passes).  Both times are at reference speed: each is scaled by the
seconds of calib.py, a fixed load run just before and after it, so that
the host's slow and fast phases cancel.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.py, medians over the traced passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; `failed` counts commands whose
exit code or output digest differs from the frozen expectation.  The
lines before it give the machine context and the samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
CALIB = HERE / "calib.py"
EXPECTED = HERE / "expected.json"
WORK = ROOT / ".perfbench"

WORKLOADS = ("canonical-deep", "crystal-verify")

# highest_weight_vertices(h, 12); freeze.py checks them against the engine.
START_POOL = {
    3: ((), (3,), (6,), (3, 3), (9,), (6, 3), (3, 3, 3), (12,), (9, 3),
        (6, 6), (6, 3, 3), (3, 3, 3, 3)),
    5: ((), (5,), (10,), (5, 5)),
}

# "full" is what the benchmark measures; "tiny" is for the smoke test.
# Components grow a fixed depth past their start, so every start of a
# pool does about the same work.
SIZES = {
    "full": {"canonical_m": 33, "vacuum_degree": 56, "depth": {3: 40, 5: 36}},
    "tiny": {"canonical_m": 12, "vacuum_degree": 16, "depth": {3: 10, 5: 10}},
}

# Set-up is sampled between passes, so that its median spans the run
# rather than the few seconds at its start; the baseline host alternates
# between fast and slow phases that last seconds to minutes.
SETUP_PER_PASS = 2
RUN_BUDGET_S = 170.0        # a run must end within 180 s

# About the seconds calib.py takes on the baseline host (see README.md),
# so that a time at reference speed reads as seconds there; and the check
# value calib.py prints.
CALIB_REF_S = 0.40
CALIB_CHECK = 93854

END_TO_END_UNITS = {"wall_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def component_command(h: int, start: tuple, size: str) -> list:
    argv = ["crystal", "--n", str((h - 1) // 2)]
    if start:
        argv += ["--start", ",".join(map(str, start))]
    argv += ["--max-degree", str(sum(start) + SIZES[size]["depth"][h]),
             "--format", "json" if h == 3 else "dot"]
    return argv


def expectation_key(argv: list) -> str:
    """verify's output does not depend on --seed, so its key omits it."""
    if argv[0] == "verify":
        return " ".join(argv[:-1] + ["*"])
    return " ".join(argv)


def workload_commands(workload: str, seed: int, size: str) -> list:
    s = SIZES[size]
    if workload == "canonical-deep":
        return [["canonical", "--n", "1", "--m", str(s["canonical_m"]),
                 "--format", "json"]]
    if workload == "crystal-verify":
        pool3, pool5 = START_POOL[3], START_POOL[5]
        return [
            ["crystal", "--n", "1", "--max-degree", str(s["vacuum_degree"]),
             "--format", "json"],
            component_command(3, pool3[seed % len(pool3)], size),
            component_command(5, pool5[seed % len(pool5)], size),
            ["verify", "--suite", "all", "--seed", str(seed)],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def check_program(env: dict) -> None:
    """Fail fast unless this checkout's spinfock imports; warms bytecode."""
    cli = SRC / "spinfock" / "cli.py"
    if not cli.is_file():
        raise SystemExit(f"error: {cli.relative_to(ROOT)} not found; run "
                         "from a checkout that holds the spinfock sources")
    proc = subprocess.run(
        [sys.executable, "-c", "import spinfock.cli as c; print(c.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0 or Path(proc.stdout.strip()) != cli.resolve():
        raise SystemExit(f"error: cannot import spinfock.cli from {SRC}:\n"
                         f"{proc.stderr.strip()}")


def measure_setup(env: dict, count: int) -> list:
    cmd = [sys.executable, "-c", "import spinfock.cli"]
    samples = []
    for _ in range(count):
        t = time.perf_counter()
        # No timeout: with one, wait() polls and rounds up to 50 ms steps.
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t)
    return samples


def measure_calib(env: dict) -> float:
    """Seconds of one calib.py load, timed inside its own process."""
    proc = subprocess.run([sys.executable, str(CALIB)], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    secs, check = proc.stdout.split()
    if int(check) != CALIB_CHECK:
        raise SystemExit(f"error: calib.py computed {check}, "
                         f"expected {CALIB_CHECK}")
    return float(secs)


def measure_bracket(env: dict, setup_count: int) -> dict:
    """calib.py, `setup_count` set-up samples, then calib.py again.  The
    mean of the two calibrations gives the host's speed around these
    set-up samples and, with the next bracket, around the pass between."""
    before = measure_calib(env)
    setup = measure_setup(env, setup_count)
    after = measure_calib(env)
    return {"calib_s": (before + after) / 2, "setup_s": setup}


def at_ref(secs: float, calib_s: float) -> float:
    return secs * CALIB_REF_S / calib_s


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_command(argv: list, trace: bool, workdir: Path, env: dict,
                deadline=None):
    """Run one CLI command in child.py; None when it overran the deadline
    (a time.monotonic() value)."""
    out, err, res = (workdir / "stdout", workdir / "stderr",
                     workdir / "result.json")
    res.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(res), "1" if trace else "0", "--"]
    with open(out, "wb") as fo, open(err, "wb") as fe:
        proc = subprocess.Popen(cmd + argv, stdout=fo, stderr=fe, env=env,
                                cwd=ROOT)
        try:
            code = proc.wait(timeout=None if deadline is None
                             else max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None
    if not res.exists():
        raise SystemExit(f"error: {' '.join(argv)} crashed (exit {code}):\n"
                         + err.read_text(errors="replace")[-2000:])
    result = json.loads(res.read_text())
    result.update(exit=code, sha256=file_sha256(out),
                  bytes=out.stat().st_size)
    return result


def run_pass(commands, trace, workdir, env, deadline, expected):
    """All commands of one pass, each marked ok when its exit code and
    output digest match the frozen ones; None when the deadline passed."""
    results = []
    for argv in commands:
        r = run_command(argv, trace, workdir, env, deadline)
        if r is None:
            return None
        want = expected.get(expectation_key(argv))
        r["ok"] = (want is not None and
                   (r["exit"], r["sha256"]) == (want["exit"], want["sha256"]))
        r["argv"] = argv
        results.append(r)
    return results


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(results: list) -> dict:
    """Per-layer metrics of one traced pass, summed over its commands."""
    c, s, n = defaultdict(int), defaultdict(float), defaultdict(int)
    max_keys = ("laurent.max_abs_coeff", "laurent.exp_span")
    for r in results:
        for key, st in r["layers"]["stats"].items():
            c[key] += st["calls"]
            s[key] += st["secs"]
        for key, v in r["layers"]["counts"].items():
            n[key] = max(n[key], v) if key in max_keys else n[key] + v
    return {
        "canonical.solve_s": s["canonical.solve"],
        "canonical.intermediate_s": s["canonical.intermediate"],
        "canonical.validate_s": s["canonical.validate"],
        "canonical.reduce_s": (s["canonical.solve"] - s["canonical.intermediate"]
                               - s["canonical.validate"]),
        "canonical.columns": n["canonical.columns"],
        "canonical.nnz": n["canonical.nnz"],
        "canonical.reduction_useful_ratio": ratio(
            n["canonical.useful_reductions"], c["canonical.symmetrize_tail"]),
        "canonical.serialize_s": s["canonical.serialize"],
        "fock.apply_f_divided.calls": c["fock.apply_f_divided"],
        "fock.label_applications": n["fock.label_applications"],
        "fock.divided_power_distinct_ratio": ratio(
            n["fock.divided_power_distinct"], n["fock.label_applications"]),
        "fock.apply_f.calls": c["fock.apply_f"],
        "fock.straighten.calls": c["fock.straighten"],
        "fock.straighten_s": s["fock.straighten"],
        "fock.vector_ops.calls": c["fock.vector_ops"],
        "fock.vector_ops_s": s["fock.vector_ops"],
        "laurent.mul.calls": c["laurent.mul"],
        "laurent.mul_s": s["laurent.mul"],
        "laurent.add.calls": c["laurent.add"],
        "laurent.add_s": s["laurent.add"],
        "laurent.exact_div.calls": c["laurent.exact_div"],
        "laurent.exact_div_s": s["laurent.exact_div"],
        "laurent.max_abs_coeff": n["laurent.max_abs_coeff"],
        "laurent.exp_span": n["laurent.exp_span"],
        "partitions.residue_content.calls": c["partitions.residue_content"],
        "partitions.residue_content_s": s["partitions.residue_content"],
        "partitions.residue_content_distinct_ratio": ratio(
            n["partitions.residue_content_distinct"],
            c["partitions.residue_content"]),
        "partitions.dominance_leq.calls": c["partitions.dominance_leq"],
        "partitions.dominance_leq_s": s["partitions.dominance_leq"],
        "partitions.ladders_s": s["partitions.ladders"],
        "partitions.enumerate_s": s["partitions.enumerate"],
        "modular.character_image.calls": c["modular.character_image"],
        "modular.reduce_s": (s["modular.reduced_matrix"]
                             - n["modular.inner_solve_s"]),
        "modular.serialize_s": s["modular.serialize"],
        "crystal.component_s": s["crystal.component"],
        "crystal.ftilde.calls": c["crystal.ftilde"],
        "crystal.ftilde_useful_ratio": ratio(
            n["crystal.useful_ftilde"], c["crystal.ftilde"]),
        "crystal.vertices": n["crystal.vertices"],
        "crystal.serialize_s": s["crystal.serialize"],
        "verify.suite_s": s["verify.suite"],
        "verify.checks": n["verify.checks"],
        "verify.checks_failed": n["verify.checks_failed"],
        "cli.emit_s": s["cli.emit"],
        "cli.bytes_out": sum(r["bytes"] for r in results),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "spinfock").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_context() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "git_rev": rev,
        "src_sha256": source_digest(),
    }


def wall(results: list) -> float:
    return sum(r["run_s"] for r in results)


def run_passes(args, commands, expected, env, workdir, deadline):
    """Passes until the next would end after --seconds.  With --trace 1
    each untraced pass is followed by a traced one.  With --trace 0 a
    bracket of calibrations and set-up samples comes before the first pass
    and after every pass.  Returns the completed untraced and traced
    passes, the brackets (one more than the untraced passes with
    --trace 0) and the command tallies."""
    modes = (False, True) if args.trace else (False,)
    passes = {False: [], True: []}
    brackets = [] if args.trace else [measure_bracket(env, SETUP_PER_PASS)]
    attempted = failed = rounds = 0
    start = time.monotonic()
    while True:
        for traced in modes:
            results = run_pass(commands, traced, workdir, env, deadline,
                               expected)
            if results is None:                 # overran the run budget
                return passes, brackets, attempted + 1, failed + 1
            attempted += len(results)
            failed += sum(not r["ok"] for r in results)
            passes[traced].append(results)
        if not args.trace:
            brackets.append(measure_bracket(env, SETUP_PER_PASS))
        rounds += 1
        elapsed = time.monotonic() - start
        pass_s = elapsed / rounds
        if (elapsed + pass_s > args.seconds
                or time.monotonic() + pass_s > deadline):
            return passes, brackets, attempted, failed


def end_to_end_metrics(plain: list, brackets: list) -> dict:
    samples = {
        "wall_ref_s": [at_ref(wall(p), (b0["calib_s"] + b1["calib_s"]) / 2)
                       for p, b0, b1 in zip(plain, brackets, brackets[1:])],
        "peak_rss_mb": [max(r["maxrss_kb"] for r in p) / 1024 for p in plain],
        "setup_s": [at_ref(s, b["calib_s"])
                    for b in brackets for s in b["setup_s"]],
    }
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(plain: list, traced: list) -> dict:
    per_pass = [layer_metrics(p) for p in traced]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        # counts repeat exactly, so keep them whole numbers
        metrics[name] = (statistics.median_low(values)
                         if isinstance(values[0], int)
                         else statistics.median(values))
    metrics["trace.overhead_s"] = (statistics.median(wall(p) for p in traced)
                                   - statistics.median(wall(p) for p in plain))
    return {name: {"value": v, "unit": layer_unit(name)}
            for name, v in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env()
    check_program(env)
    context = machine_context()
    expected = json.loads(EXPECTED.read_text())["commands"]
    commands = workload_commands(args.workload, args.seed, args.size)

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        passes, brackets, attempted, failed = run_passes(
            args, commands, expected, env, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain, traced = passes[False], passes[True]
    if not plain or (args.trace and not traced):
        raise SystemExit(f"error: no pass of {args.workload} finished "
                         f"within {RUN_BUDGET_S:.0f} s")

    if args.trace:
        metrics = per_layer_metrics(plain, traced)
    else:
        metrics = end_to_end_metrics(plain, brackets)
    detail = {
        "args": vars(args), "context": context, "brackets": brackets,
        "passes": plain + traced,
        "metrics": metrics,
    }
    (WORK / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print("# context " + json.dumps(context))
    print(f"# {args.workload} seed={args.seed} passes={len(plain)} "
          f"commands={attempted} failed={failed} "
          f"ops_failed_frac={failed / attempted:.4f} "
          f"wall_s={[round(wall(p), 3) for p in plain]} "
          f"calib_s={[round(b['calib_s'], 3) for b in brackets]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
