"""Kashiwara operators on DP_h labels and the colored crystal graph.

The single-letter graph has vertices j in Z with an i-arrow j -> j+1 exactly
when residue(h, j) == i, the color rule of `partitions.residue`.  A
partition behaves like the tensor product of its letters with the vacuum on
the right; string statistics combine by the usual two-factor rules
    phi(head, tail) = phi(head) + max(0, phi(tail) - eps(head)),
    eps(head, tail) = eps(tail) + max(0, eps(head) - phi(tail)),
and the lowering operator moves the head iff eps(head) >= phi(tail).
A letter's (eps_i, phi_i) depends only on its residue class mod h, so it is
read from one cached row per (h, i), built once by `_walk`.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from . import partitions as pt


def _walk(h, i, start, step):
    """Length of the run of letters start, start + step, ... of residue i:
    phi of a letter j walks up from j, eps of j walks down from j - 1."""
    count, j = 0, start
    while pt.residue(h, j) == i:
        count += 1
        if count > h:
            raise pt.InvariantError(
                f"{i}-string through {start} is longer than h={h}")
        j += step
    return count


@functools.cache
def _letter_stats(h, i):
    """Per residue j mod h: (eps, phi) of a letter j for color i."""
    return tuple((_walk(h, i, j - 1, -1), _walk(h, i, j, 1)) for j in range(h))


def _suffix_stats(h, i, lam, n):
    """(eps, phi, low, up) of the checked label lam for the checked color i
    of rank n, in one pass from the vacuum leftward: eps and phi of the whole
    label, and the first letter k that ftilde (eps_k >= phi of lam[k+1:]) and
    etilde (eps_k > phi of lam[k+1:]) act on, len(lam) when none does.
    ftilde kills lam exactly when phi is 0."""
    table = _letter_stats(h, i)
    et, ft = 0, 1 if i == n else 0      # the vacuum slot
    low = up = len(lam)
    for k in range(len(lam) - 1, -1, -1):
        ea, pa = table[lam[k] % h]
        if ea >= ft:
            low = k
        if ea > ft:
            et, ft, up = et + ea - ft, pa, k
        else:
            ft += pa - ea
    return et, ft, low, up


def _lower(h, i, lam, n):
    """ftilde on a checked label and color: the one lowering of the package."""
    _, ft, k, _ = _suffix_stats(h, i, lam, n)
    if not ft:
        return None
    if k == len(lam):                   # the vacuum slot, so i == n
        return lam + (1,)
    return lam[:k] + (lam[k] + 1,) + lam[k + 1:]


def _checked(h, i, lam):
    """Check the label, then the color, as every public operator does."""
    lam = pt.check_dp_h(h, lam)
    return lam, pt.check_color(h, i)


def eps(h: int, i: int, lam) -> int:
    """Length of the backward i-string through a vertex."""
    lam, n = _checked(h, i, lam)
    return _suffix_stats(h, i, lam, n)[0]


def phi(h: int, i: int, lam) -> int:
    """Length of the forward i-string through a vertex."""
    lam, n = _checked(h, i, lam)
    return _suffix_stats(h, i, lam, n)[1]


def ftilde(h: int, i: int, lam):
    """Lowering crystal operator; None when it kills the vertex."""
    lam, n = _checked(h, i, lam)
    return _lower(h, i, lam, n)


def etilde(h: int, i: int, lam):
    """Raising crystal operator, the partial inverse of ftilde."""
    lam, n = _checked(h, i, lam)
    k = _suffix_stats(h, i, lam, n)[3]
    if k == len(lam):
        return None
    return pt.check_partition(lam[:k] + (lam[k] - 1,) + lam[k + 1:])


_P4, _P6 = "\n" + " " * 4, "\n" + " " * 6
_EDGE = '{%s"from": %%s,%s"color": %%d,%s"to": %%s\n    }' % ((_P6,) * 3)


class CrystalGraph(namedtuple("CrystalGraph", "h max_degree vertices edges")):
    """Finite piece of a colored crystal: degree-raising edges only, as
    (source, color, target) triples."""

    __slots__ = ()

    def vertices_of_degree(self, m: int) -> list:
        return [v for v in self.vertices if sum(v) == m]

    def degree_counts(self) -> dict:
        out = {}
        for v in self.vertices:
            out[sum(v)] = out.get(sum(v), 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "max_degree": self.max_degree,
            "vertices": [list(v) for v in self.vertices],
            "edges": [
                {"from": list(a), "color": i, "to": list(b)}
                for a, i, b in self.edges
            ],
        }

    def json_chunks(self):
        """json.dumps(self.to_json(), indent=2) + "\\n" in pieces, one per
        vertex and per edge (pt.json_document); each edge end's label is
        rendered once per call."""
        end = functools.cache(lambda v: pt.json_block(map(str, v), _P6))
        return pt.json_document({
            "h": str(self.h), "max_degree": str(self.max_degree),
            "vertices": (pt.json_block(map(str, v), _P4)
                         for v in self.vertices),
            "edges": (_EDGE % (end(a), i, end(b)) for a, i, b in self.edges)})

    def to_dot(self) -> str:
        def name(v):
            return ",".join(map(str, v)) if v else "()"

        lines = ["digraph crystal {"]
        for v in self.vertices:
            lines.append(f'  "{name(v)}";')
        for a, i, b in self.edges:
            lines.append(f'  "{name(a)}" -> "{name(b)}" [label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def component(h: int, start, max_degree: int) -> CrystalGraph:
    """All vertices reachable from `start` by lowering, up to max_degree.

    Every lowering step raises the degree by one, so each breadth-first
    layer is one degree: emitting the layers in decreasing lex order lists
    vertices and edges by degree, then source (decreasing lex), then color.
    """
    pt.check_degree(max_degree)
    start = pt.check_dp_h(h, start)
    degree = sum(start)
    if degree > max_degree:
        raise ValueError(f"start {start} has degree {degree}, above "
                         f"max degree {max_degree}")
    n = pt.rank(h)
    vertices = []
    edges = []
    layer = [start]
    while layer:
        vertices += layer
        if degree == max_degree:
            break
        nxt = set()
        for v in layer:
            for i in range(n + 1):
                w = _lower(h, i, v, n)
                if w is not None:
                    edges.append((v, i, w))
                    nxt.add(w)
        layer = sorted(nxt, reverse=True)
        degree += 1
    return CrystalGraph(h, max_degree, tuple(vertices), tuple(edges))


def highest_weight_vertices(h: int, max_m: int) -> list:
    """Vertices killed by every raising operator: all parts divisible by h.

    Listed by increasing degree, decreasing lex inside a degree.
    """
    pt.check_h(h)
    return [tuple(h * x for x in mu)
            for k in range(pt.check_degree(max_m) // h + 1)
            for mu in pt.partitions(k)]
