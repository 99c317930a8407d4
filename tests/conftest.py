"""Shared oracles: independent brute-force routes the tests check against.

Everything here is deliberately written from the defining conditions, not by
calling the package, so a bug cannot hide on both sides of a comparison.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import pytest


def brute_partitions(m, smallest=1):
    """All partitions of m as increasing tuples, smallest part chosen first."""
    if m == 0:
        yield ()
        return
    for small in range(smallest, m + 1):
        for rest in brute_partitions(m - small, small):
            yield (small,) + rest


def oracle_is_dp_h(h, lam):
    mult = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    return all(v <= 1 for k, v in mult.items() if k % h != 0)


def oracle_is_dpr_h(h, lam):
    padded = list(lam) + [0]
    for i in range(len(lam)):
        gap = padded[i] - padded[i + 1]
        if padded[i] % h == 0:
            if gap < 0 or gap >= h:
                return False
        else:
            if gap <= 0 or gap > h:
                return False
    return True


def oracle_residue(h, column):
    n = (h - 1) // 2
    hits = [i for i in range(n + 1)
            if column % h in ((n + i) % h, (n - i) % h)]
    assert len(hits) == 1, (h, column, hits)
    return hits[0]


def oracle_plane_ladders(h, lam):
    """Partition the cells of lam into plane ladders by union-find.

    Links: (row, c) with (row+1, c-h), and the adjacent pair (row, c),
    (row, c+1) when c = -1 mod h (the two short-residue columns).
    """
    if not lam:
        return []
    depth = len(lam)
    width = lam[0] + h * depth + 1
    cells = [(k, c) for k in range(1, depth + 1) for c in range(width)]
    parent = {cell: cell for cell in cells}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for k, c in cells:
        if k + 1 <= depth and c - h >= 0:
            union((k, c), (k + 1, c - h))
        if c % h == h - 1 and c + 1 < width:
            union((k, c), (k, c + 1))
    groups = {}
    for k, part in enumerate(lam, start=1):
        for c in range(part):
            groups.setdefault(find((k, c)), []).append((k, c))
    return sorted(sorted(g) for g in groups.values())


def oracle_bar_removals(h, lam):
    """All strict partitions reachable from strict lam by one h-bar removal.

    Moves: lower a part by h when the result is 0 (drop it) or unused;
    delete a pair of parts summing to h.  Listed once each, in move order.
    """
    have = set(lam)
    out = []
    for x in lam:
        y = x - h
        if y == 0 or (y > 0 and y not in have):
            rest = [p for p in lam if p != x] + ([y] if y else [])
            out.append(tuple(sorted(rest, reverse=True)))
    for j, x in enumerate(lam):
        for y in lam[j + 1:]:
            if x + y == h:
                out.append(tuple(p for p in lam if p not in (x, y)))
    return list(dict.fromkeys(out))


def oracle_hbar_core(h, lam):
    """h-bar core of a DP_h partition, the block-purity oracle.

    Every part value occurring more than once is removed entirely (all
    copies); bar removals are then applied to the strict remainder until
    none is possible.  The result does not depend on the removal order.
    Two labels lie in one block (one residue content) iff their cores agree:
    Morris's conjecture on spin blocks, proved by Humphreys (J. LMS 1986).
    """
    cur = tuple(p for p in lam if lam.count(p) == 1)
    while True:
        nxt = oracle_bar_removals(h, cur)
        if not nxt:
            return cur
        cur = nxt[0]


def oracle_count_odd_parts(p, m):
    """Partitions of m into odd parts not divisible by p, counted directly."""
    def count(rem, largest):
        if rem == 0:
            return 1
        total = 0
        for part in range(min(rem, largest), 0, -1):
            if part % 2 == 1 and part % p != 0:
                total += count(rem - part, part)
        return total
    return count(m, m)


def _power_sum_product(f, g):
    """Product of two {odd-part partition: Fraction} power-sum expansions."""
    out = {}
    for a, x in f.items():
        for b, y in g.items():
            key = tuple(sorted(a + b))
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


@functools.cache
def _schur_q_row(r):
    """q_r = sum over odd-part partitions pi of r of 2^len(pi) / z_pi p_pi
    (Macdonald III.8), keyed by pi as an increasing tuple."""
    out = {}
    for pi in brute_partitions(r):
        if all(part % 2 for part in pi):
            z = 1
            for part in set(pi):
                k = pi.count(part)
                z *= part ** k * math.factorial(k)
            out[pi] = Fraction(2 ** len(pi), z)
    return out


@functools.cache
def _schur_q_pair(r, s):
    """Q_(r,s) = q_r q_s + 2 sum_{i=1..s} (-1)^i q_(r+i) q_(s-i), r > s."""
    out = _power_sum_product(_schur_q_row(r), _schur_q_row(s))
    for i in range(1, s + 1):
        term = _power_sum_product(_schur_q_row(r + i), _schur_q_row(s - i))
        for k, v in term.items():
            out[k] = out.get(k, 0) + 2 * (-1) ** i * v
    return {k: v for k, v in out.items() if v}


def _pfaffian(parts):
    """Pfaffian of [Q_(parts_i, parts_j)], expanded along the first row."""
    if not parts:
        return {(): Fraction(1)}
    out = {}
    for j in range(1, len(parts)):
        rest = parts[1:j] + parts[j + 1:]
        term = _power_sum_product(_schur_q_pair(parts[0], parts[j]),
                                  _pfaffian(rest))
        for k, v in term.items():
            out[k] = out.get(k, 0) + (-1) ** (j + 1) * v
    return {k: v for k, v in out.items() if v}


@functools.cache
def oracle_schur_p(lam):
    """Schur's P_lam in odd power sums, exactly over Fraction: the Pfaffian
    Q_lam of Q_(lam_i, lam_j), lam strict and padded to even length with 0,
    then P_lam = 2^-len(lam) Q_lam (Macdonald, Symmetric Functions, III.8)."""
    parts = tuple(lam) + (0,) * (len(lam) % 2)
    return {k: v / 2 ** len(lam) for k, v in _pfaffian(parts).items()}


@pytest.fixture
def rng():
    import random
    return random.Random(20240901)
