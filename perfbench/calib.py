"""A fixed pure-Python reference load that measures how fast this host runs
Python right now.

    python3 perfbench/calib.py

Prints the seconds the load took, timed inside the process so that
interpreter start is excluded, and a check value.  The load mixes what
the spinfock engine spends its time on: products and sums of sparse dict
polynomials with int coefficients, in a small working set and in a heap
of tens of thousands of tuple-keyed entries, plus partition enumeration,
sorting and JSON encoding.  It runs no spinfock code, so a change to the
program never changes it.  run.py runs it around every pass and divides
it out of the pass times, which cancels the host's slow and fast phases.
"""

from __future__ import annotations

import json
import random
import sys
import time


def poly_product(a: dict, b: dict) -> dict:
    prod = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = prod.get(e, 0) + ca * cb
            if v:
                prod[e] = v
            else:
                prod.pop(e, None)
    return prod


def small_heap(rng: random.Random) -> int:
    """Products of a few dozen dense polynomials, summed into one."""
    polys = []
    for _ in range(60):
        lo = rng.randrange(-12, 4)
        polys.append({e: rng.randrange(-9, 10) or 1
                      for e in range(lo, lo + rng.randrange(3, 14))})
    acc = {}
    for _ in range(10):
        for a in polys:
            for b in polys[::7]:
                for e, c in poly_product(a, b).items():
                    v = acc.get(e, 0) + c
                    if v:
                        acc[e] = v
                    else:
                        acc.pop(e, None)
    return len(acc)


def large_heap(rng: random.Random) -> int:
    """A vector of sparse polynomials keyed by partition-like tuples, built
    and then squared entry by entry in random order."""
    vec = {}
    for _ in range(30000):
        key = tuple(sorted((rng.randrange(1, 12)
                            for _ in range(rng.randrange(2, 9))), reverse=True))
        poly = vec.setdefault(key, {})
        e = rng.randrange(-8, 8)
        v = poly.get(e, 0) + rng.randrange(-5, 6)
        if v:
            poly[e] = v
        else:
            poly.pop(e, None)
    order = list(vec)
    rng.shuffle(order)
    return sum(len(poly_product(vec[k], vec[k])) for k in order)


def partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def partition_table() -> int:
    """Residue contents of every partition of 16 to 20, sorted and encoded."""
    vec = {}
    for n in range(16, 21):
        for lam in partitions(n, n):
            content = tuple(sorted((j - i) % 3 for i, row in enumerate(lam)
                                   for j in range(row)))
            key = (lam, content[:4])
            vec[key] = vec.get(key, 0) + len(lam)
    items = sorted(vec.items(), reverse=True)
    return len(json.dumps([[list(k[0]), v] for k, v in items[:4000]]))


def main() -> int:
    rng = random.Random(20240601)
    start = time.perf_counter()
    check = small_heap(rng) + large_heap(rng) + partition_table()
    elapsed = time.perf_counter() - start
    print(f"{elapsed!r} {check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
