"""Command-line surface: crystal, canonical, decomp, ladders, verify.

main(argv) returns the exit code: 0 success, 1 verification failure, 2
usage error (a ValueError), 3 internal error (a broken engine invariant),
141 when the reader closes stdout early.  Output is deterministic; README's
"Output formats" describes it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import partitions as pt
from . import crystal
from . import modular
from .canonical import CanonicalBasis, CanonicalBasisError
from .fock import UncoveredDisorderError
from .laurent import CoefficientBoundError, ExactDivisionError

USAGE_ERROR = 2
INTERNAL_ERROR = 3
CLOSED_PIPE = 141       # 128 + SIGPIPE, as a shell reports a piped-to head
_INTERNAL_ERRORS = (CanonicalBasisError, CoefficientBoundError,
                    ExactDivisionError, UncoveredDisorderError,
                    pt.InvariantError)


def _add_modulus_args(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="rank n (modulus h = 2n+1)")
    group.add_argument("--p", "--h", dest="p", type=int,
                       help="odd modulus h = p directly")


def _modulus(args) -> int:
    if args.n is None:
        return pt.check_h(args.p)
    if args.n < 1:
        raise ValueError(f"rank n must be >= 1, got {args.n}")
    return 2 * args.n + 1


def _write(chunks):
    """Write the pieces to stdout joined into blocks of at least
    io.DEFAULT_BUFFER_SIZE characters, the last block excepted; a piece that
    long on its own is written as it is.  Unbuffered stdout (python -u) thus
    makes one syscall per block, not one per piece.  Its text layer drops
    the rest of a write that a closed pipe cut short, unseen, so there the
    last character goes alone: a pipe takes a write that small whole or
    refuses it, and a reader that closed early still raises BrokenPipeError."""
    write, block, size = sys.stdout.write, [], 0
    for chunk in chunks:
        if block and (size >= io.DEFAULT_BUFFER_SIZE
                      or len(chunk) >= io.DEFAULT_BUFFER_SIZE):
            write("".join(block))
            block, size = [], 0
        block.append(chunk)
        size += len(chunk)
    text = "".join(block)
    if len(text) > 1 and isinstance(getattr(sys.stdout, "buffer", None),
                                    io.RawIOBase):
        write(text[:-1])
        text = text[-1:]
    if text:
        write(text)


def _emit_json(obj):
    """Print json.dumps(obj, indent=2) for a dict with str keys, one piece
    per item of each of its lists (pt.json_document)."""
    def text(v, pad):
        return json.dumps(v, indent=2).replace("\n", pad)
    _write(pt.json_document({
        k: (text(v, "\n    ") for v in val) if isinstance(val, list)
        else text(val, "\n  ") for k, val in obj.items()}))


def cmd_crystal(args) -> int:
    h = _modulus(args)
    graph = crystal.component(h, pt.parse_partition(args.start),
                              args.max_degree)
    _write([graph.to_dot()] if args.format == "dot" else graph.json_chunks())
    return 0


def cmd_canonical(args) -> int:
    h = _modulus(args)
    # no name holds the solver, so its lower degrees are freed before writing
    M = CanonicalBasis(h, fast=not args.slow).matrix(args.m)
    _write(M.json_chunks() if args.format == "json" else M.lines(args.format))
    return 0


def cmd_decomp(args) -> int:
    p = _modulus(args)
    R = modular.reduced_matrix(p, args.m)
    if args.format == "json":
        _emit_json(R.to_json())
    else:
        _write(R.lines(args.format))
    negative = R.negative_entries()
    if negative:
        lam, mu = negative[0]
        noun = "entry" if len(negative) == 1 else "entries"
        print(f"note: {len(negative)} negative {noun} at p={p} m={args.m}; "
              f"first at row {pt.format_partition(lam)}, "
              f"column {pt.format_partition(mu)}", file=sys.stderr)
    return 0


def cmd_ladders(args) -> int:
    h = _modulus(args)
    lam = pt.parse_partition(args.partition)
    if not lam:
        raise ValueError("empty partition has no ladders")
    dec = pt.ladders(h, lam)
    if args.format == "json":
        _emit_json({
            "h": h,
            "partition": list(lam),
            "ladders": [{"index": i, "residue": r, "cells": c}
                        for i, (r, c) in zip(dec.indices, dec.steps)],
        })
        return 0
    # residue-and-ladder diagram, shortest row on top
    lines = [" ".join(f"{pt.residue(h, c)}_{pt.ladder_index(h, k, c)}".ljust(5)
                      for c in range(lam[k - 1])).rstrip() + "\n"
             for k in range(len(lam), 0, -1)]
    _write(lines + [f"monomial: {dec.monomial()} |0>\n"])
    return 0


def cmd_verify(args) -> int:
    from . import verify as vf      # the other commands never load it
    report = vf.run_suite(args.suite, max_degree=args.max_degree,
                          seed=args.seed)
    _emit_json(report.to_json())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfock",
        description="exact twisted Fock-space engine: crystal graphs, "
                    "canonical bases, reduced decomposition matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crystal", help="emit a crystal graph component")
    _add_modulus_args(p)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--start", type=str, default="", help="start vertex, "
                   "e.g. 3, 11,7,7,4 or (11 7 7 4) (default: empty)")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_crystal)

    p = sub.add_parser("canonical", help="print a canonical basis matrix")
    _add_modulus_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("table", "json", "csv"),
                   default="table")
    p.add_argument("--slow", action="store_true",
                   help="rebuild every intermediate vector from the vacuum")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("decomp", help="print a reduced decomposition matrix")
    _add_modulus_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("table", "json", "csv"),
                   default="table")
    p.set_defaults(func=cmd_decomp)

    p = sub.add_parser("ladders", help="show the ladder diagram and monomial")
    _add_modulus_args(p)
    p.add_argument("--partition", type=str, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_ladders)

    p = sub.add_parser("verify", help="run embedded fixture/property suites")
    p.add_argument("--suite", choices=("paper", "properties", "all"),
                   default="all")
    p.add_argument("--max-degree", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()              # so a closed pipe raises in here
        return code
    except BrokenPipeError:     # the interpreter's last flush goes nowhere
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return CLOSED_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _INTERNAL_ERRORS as exc:
        where = ""
        if args.command in ("canonical", "decomp"):
            where = f" at h={_modulus(args)} m={args.m}"
        print(f"internal error{where}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
