"""Partition combinatorics underlying the twisted Fock machinery.

Partitions are plain tuples of weakly decreasing positive ints; () is the
empty partition.  Enumerations always list partitions in decreasing
lexicographic order, the package-wide output convention.  Columns of Young
diagrams are 0-indexed, rows 1-indexed from the longest part.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from itertools import accumulate, zip_longest


class InvariantError(RuntimeError):
    """An internal combinatorial invariant broke; never caused by input."""


def check_h(h: int) -> int:
    if h < 3 or h % 2 == 0:
        raise ValueError(f"modulus h must be odd and >= 3, got {h}")
    return h


def rank(h: int) -> int:
    """The index n with h = 2n+1."""
    check_h(h)
    return (h - 1) // 2


def check_degree(m: int) -> int:
    """Refuse a negative degree, under which an answer would be vacuous."""
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    return m


def check_color(h: int, i: int) -> int:
    """Reject a color outside 0..n; returns the rank n."""
    n = rank(h)
    if not 0 <= i <= n:
        raise ValueError(f"color {i} out of range 0..{n}")
    return n


def check_partition(parts) -> tuple:
    """Canonicalize to a tuple, dropping trailing zeros; reject bad shapes."""
    ps = tuple(int(p) for p in parts)
    while ps and ps[-1] == 0:
        ps = ps[:-1]
    if any(p <= 0 for p in ps):
        raise ValueError(f"parts must be positive: {parts}")
    if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return ps


def is_strict(lam) -> bool:
    """All parts distinct."""
    return len(set(lam)) == len(lam)


def check_dp_h(h: int, lam) -> tuple:
    """Return lam as a tuple if it is a DP_h partition as written, else raise.

    The one DP_h check of the package: every public function taking a label
    calls it once, at entry.  Unlike check_partition nothing is
    canonicalized: an unsorted label or a zero part is refused.
    """
    check_h(h)
    lam = tuple(lam)
    if ((lam and lam[-1] <= 0)
            or any(a < b or (a == b and a % h) for a, b in zip(lam, lam[1:]))):
        raise ValueError(f"{lam} is not a DP_{h} partition")
    return lam


def in_dpr_h(h: int, lam) -> bool:
    """The h-regularity condition on consecutive gaps (last part against 0)."""
    check_h(h)
    padded = tuple(lam) + (0,)
    for i in range(len(lam)):
        gap = padded[i] - padded[i + 1]
        if padded[i] % h == 0:
            if not 0 <= gap < h:
                return False
        elif not 0 < gap <= h:
            return False
    return True


def partitions(m: int):
    """All partitions of m, decreasing lex order: DP_1, every part may repeat."""
    return _dp_h_gen(1, check_degree(m), m)


def _dp_h_gen(h, rem, bound):
    if rem == 0:
        yield ()
        return
    for v in range(min(rem, bound), 0, -1):
        nxt = v if v % h == 0 else v - 1
        for rest in _dp_h_gen(h, rem - v, nxt):
            yield (v,) + rest


def enumerate_dp(m: int) -> list:
    """Strict partitions of m, decreasing lex: DP_(m+1), no part repeats."""
    return list(_dp_h_gen(m + 1, check_degree(m), m))


def enumerate_dp_h(h: int, m: int) -> list:
    """Partitions of m with repeats only at multiples of h, decreasing lex."""
    check_h(h)
    return list(_dp_h_gen(h, check_degree(m), m))


def enumerate_dpr_h(h: int, m: int) -> list:
    """h-regular partitions of m, decreasing lex: DP_h(m) through in_dpr_h."""
    return [lam for lam in enumerate_dp_h(h, m) if in_dpr_h(h, lam)]


@functools.cache
def residue(h: int, column: int) -> int:
    """Color i in 0..n of a column or letter: column = n+i or n-i mod h.

    This is the one color rule of the package.  An i-arrow of the Fock,
    crystal and classical actions leaves letter j exactly when
    residue(h, j) == i (so i = n covers j = 0, -1 mod h).  The short node n
    adds the factor q + 1/q when the moved letter is a multiple of h, and
    t_i moves a letter's weight by q^(+-4) at node 0, q^(+-2) elsewhere.
    """
    n = rank(h)
    r = column % h
    return n - r if r <= n else r - n


def residue_content(h: int, lam) -> tuple:
    """Vector (n_0, ..., n_n) counting cells of each residue."""
    n = rank(h)
    counts = [0] * (n + 1)
    for part in lam:
        for c in range(part):
            counts[residue(h, c)] += 1
    return tuple(counts)


def ladder_index(h: int, row: int, column: int) -> int:
    """Index of the ladder through cell (row, column); rows count from 1.

    Within a row the index grows by one per column except across the
    boundary column c = kh, where the two adjacent n-cells share a ladder;
    dropping a row shifts the whole numbering by h-1.
    """
    g = column - column // h
    return g + (row - 1) * (h - 1) + 1


class LadderDecomposition(namedtuple("LadderDecomposition",
                                     "partition indices steps")):
    """Occupied ladders of a partition, in peeling (increasing index) order:
    indices are the occupied ladder indices, increasing, and steps the
    parallel (residue, cell_count) pairs."""

    __slots__ = ()

    def monomial(self) -> str:
        """The ladder monomial's word, outermost ladder first, as in
        f_1 f_0 f_1^(2) f_0 (A(partition) is this word applied to |0>)."""
        return " ".join(f"f_{res}" + (f"^({cnt})" if cnt > 1 else "")
                        for res, cnt in reversed(self.steps))


def ladders(h: int, lam) -> LadderDecomposition:
    """Peel a DP_h partition into its ladders."""
    lam = check_dp_h(h, lam)
    found = {}
    for k, part in enumerate(lam, start=1):
        for c in range(part):
            idx = ladder_index(h, k, c)
            res = residue(h, c)
            if idx in found:
                prev_res, cnt = found[idx]
                if prev_res != res:
                    raise InvariantError(
                        f"ladder {idx} of {lam} mixes residues "
                        f"{prev_res} and {res}")
                found[idx] = (res, cnt + 1)
            else:
                found[idx] = (res, 1)
    indices = tuple(sorted(found))
    steps = tuple(found[i] for i in indices)
    return LadderDecomposition(lam, indices, steps)


def remove_outer_ladder(h: int, lam) -> tuple:
    """Strip the last ladder; returns (smaller partition, residue, count).

    The last ladder is the one of largest index.  ladder_index never
    decreases along a row, so its cells end their rows: each row just
    loses its cells on that ladder.
    """
    dec = ladders(h, lam)
    lam = dec.partition
    if not lam:
        raise ValueError("empty partition has no ladders")
    top = dec.indices[-1]
    res, count = dec.steps[-1]
    nu = check_partition([sum(ladder_index(h, k, c) != top for c in range(part))
                          for k, part in enumerate(lam, start=1)])
    return nu, res, count


def a_h(h: int, lam) -> int:
    """Sum of floor((part-1)/h) over the parts."""
    check_h(h)
    return sum((p - 1) // h for p in lam)


def b_exponent(lam) -> int:
    """floor((m - length)/2) for a partition of m."""
    return (sum(lam) - len(lam)) // 2


def dominance_leq(lam, mu) -> bool:
    """Partial-sum order: lam <= mu in dominance.  Degrees must agree, so
    past its last part a partial sum stays at the degree."""
    m = sum(lam)
    if m != sum(mu):
        raise ValueError(f"dominance needs equal degree: {lam} vs {mu}")
    return all(a <= b for a, b in zip_longest(accumulate(lam), accumulate(mu),
                                              fillvalue=m))


def shift_by_multiple(h: int, lam, mu) -> tuple:
    """Componentwise lam_i + h*mu_i, zero-padding the shorter argument."""
    check_h(h)
    return check_partition([a + h * b
                            for a, b in zip_longest(lam, mu, fillvalue=0)])


def parse_partition(text: str) -> tuple:
    """Parse the printed '(5 4 1)', '5,4,1' or compact single-digit '541';
    '', '()' and '0' mean ().

    A zero part in printed or comma form, as in '3,0', raises ValueError."""
    s = text.strip()
    if s in ("", "()", "0"):
        return ()
    printed = s[0] + s[-1] == "()"
    listed = printed or "," in s
    try:
        parts = tuple(int(x) for x in (s[1:-1].split() if printed else
                                       s.split(",") if listed else s))
    except ValueError:
        raise ValueError(f"cannot read {text!r} as a partition: give the "
                         "printed form (11 7 7 4), comma-separated parts "
                         "(11,7,7,4) or single digits (3321)") from None
    if listed:
        if 0 in parts:
            raise ValueError(f"{text!r} has a zero part")
        return check_partition(parts)
    if 0 in parts or any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        return check_partition([int(s)])
    return check_partition(parts)


def format_partition(lam) -> str:
    """Render like (5 4 1); the empty partition prints as ()."""
    return "(" + " ".join(str(p) for p in lam) + ")"


def json_block(items, pad, brackets="[]") -> str:
    """Indent-2 JSON of a list (or object) of item texts, opened at `pad`."""
    ipad = "," + pad + "  "
    body = ipad.join(items)
    if not body:
        return brackets
    return brackets[0] + ipad[1:] + body + pad + brackets[1]


def json_document(fields):
    """json.dumps(fields, indent=2) + "\\n" in pieces, from text: a str value
    is JSON already, any other an iterable of list item texts at indent 4,
    each item its own piece.  Nothing is yielded before the first item is
    rendered, so a writer that fails on it prints nothing."""
    from json import dumps      # the CLI has loaded it
    text, sep = "", "{"         # text waits for the next item or the end
    for key, value in fields.items():
        text += sep + "\n  " + dumps(key) + ": "
        sep = ","
        if isinstance(value, str):
            text += value
            continue
        opener = "["
        for item in value:
            yield text + opener + "\n    "
            yield item
            text, opener = "", ","
        text += "[]" if opener == "[" else "\n  ]"
    yield text + ("\n}\n" if sep == "," else "{}\n")
