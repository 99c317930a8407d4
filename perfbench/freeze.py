"""Freeze the expected output of every benchmark command.

    python3 perfbench/freeze.py        # rewrites perfbench/expected.json

Runs every command that a workload can run, for both sizes and for every
start in the seed pools, through child.py (the route run.py times) and
records the sha256 of its standard output and its exit code.  Before it
writes anything it cross-checks what it freezes:

- the start pools in run.py equal highest_weight_vertices(h, 12);
- canonical-deep's output equals the --slow (vacuum-route) output;
- every canonical matrix output, read back, passes check_basis_matrix;
- verify exits 0, reports ok, and prints the same bytes for seeds 0..3.

The digests are a regression check of this commit's behaviour, not ground
truth; the paper fixtures inside `verify` remain the ground truth.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))

from spinfock.canonical import BasisMatrix, check_basis_matrix  # noqa: E402
from spinfock.crystal import highest_weight_vertices  # noqa: E402
from spinfock.fock import FockVector  # noqa: E402
from spinfock.laurent import LaurentPoly  # noqa: E402

VERIFY_SEEDS = range(4)


class FreezeError(RuntimeError):
    """A cross-check failed; nothing is written."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise FreezeError(what)


def basis_matrix_from_json(obj: dict) -> BasisMatrix:
    labels = tuple(tuple(col["label"]) for col in obj["columns"])
    columns = {
        tuple(col["label"]): FockVector({
            tuple(e["row"]): LaurentPoly.from_json(e["poly"])
            for e in col["entries"]})
        for col in obj["columns"]}
    return BasisMatrix(obj["h"], obj["m"], labels, columns)


def all_commands(size: str) -> list:
    cmds = run.workload_commands("canonical-deep", 0, size)
    cmds += run.workload_commands("crystal-verify", 0, size)[:1]
    for h, pool in run.START_POOL.items():
        cmds += [run.component_command(h, start, size) for start in pool]
    cmds += [["verify", "--suite", "all", "--seed", str(s)]
             for s in VERIFY_SEEDS]
    return cmds


def check_output(argv: list, workdir, env) -> None:
    """Cross-check the output of argv, just written to workdir/stdout."""
    text = (workdir / "stdout").read_text(encoding="utf-8")
    if argv[0] == "canonical":
        M = basis_matrix_from_json(json.loads(text))
        rep = check_basis_matrix(M)
        require(rep.ok, str(rep))
        if argv == run.workload_commands("canonical-deep", 0, "full")[0]:
            fast = hashlib.sha256(text.encode()).hexdigest()
            slow = run.run_command(argv + ["--slow"], False, workdir, env)
            require(slow["exit"] == 0 and slow["sha256"] == fast,
                    "canonical-deep: fast and --slow outputs differ")
    elif argv[0] == "verify":
        require(json.loads(text)["ok"], f"{argv}: verify reports a failure")


def main() -> int:
    for h, pool in run.START_POOL.items():
        require(list(pool) == highest_weight_vertices(h, 12),
                f"start pool for h={h} differs from highest_weight_vertices")
    env = run.child_env()
    run.check_program(env)
    workdir = run.WORK / "freeze"
    workdir.mkdir(parents=True, exist_ok=True)
    frozen = {}
    try:
        for size in run.SIZES:
            for argv in all_commands(size):
                r = run.run_command(argv, False, workdir, env)
                require(r["exit"] == 0, f"{argv} exited {r['exit']}")
                entry = {"sha256": r["sha256"], "exit": r["exit"]}
                key = run.expectation_key(argv)
                require(frozen.setdefault(key, entry) == entry,
                        f"{key}: output differs between seeds")
                check_output(argv, workdir, env)
                print(f"{r['run_s']:8.2f}s  {key}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps({
        "src_sha256": run.source_digest(),
        "commands": dict(sorted(frozen.items())),
    }, indent=1) + "\n")
    print(f"wrote {len(frozen)} expectations to "
          f"{run.EXPECTED.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
