"""Integer-indexed arithmetic for the symmetric group Sym({0..d-1}).

A permutation is a tuple mapping position to image.  Composition is read
left to right: ``compose(p, q)`` applies ``p`` first, then ``q``.  The
hot loops of hom counting never touch tuples; they work with indices
into a cached ``PermTable`` whose multiplication and inverse tables turn
word evaluation into plain list lookups.

The multiplication table is built a row at a time.  Row ``g`` lists the
products ``g h`` over all ``h``, and since ``(a g) h = a (g h)``, the
row of ``a g`` is the row of ``a`` read at the positions the row of
``g`` lists: one C-level ``itemgetter`` call per row.  Two rows, of a
d-cycle and of a transposition, are composed directly; every other row
is reached from them along a breadth-first walk of the Cayley graph.
The table also lists the conjugacy classes, one per cycle type.
"""

import itertools
from functools import cached_property, lru_cache
from operator import itemgetter


def compose(p, q):
    """Apply ``p`` first, then ``q``."""
    return tuple(q[x] for x in p)


def invert(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def identity(d):
    return tuple(range(d))


def _cycle_type(p):
    """The cycle lengths of ``p``, longest first."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        k, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            k += 1
        if k:
            lengths.append(k)
    return tuple(sorted(lengths, reverse=True))


class PermTable:
    """Full multiplication/inverse tables for Sym(d)."""

    def __init__(self, d):
        self.degree = d
        self.perms = tuple(itertools.permutations(range(d)))
        self.index = {p: i for i, p in enumerate(self.perms)}
        self.size = len(self.perms)
        self.identity = self.index[identity(d)]
        self.inv = tuple(self.index[invert(p)] for p in self.perms)
        if d < 2:
            self.mul = ((self.identity,),)
            return
        # compose(p, q) == itemgetter(*p)(q) once d >= 2
        at = self.index.__getitem__

        def composed(p):
            return tuple(map(at, map(itemgetter(*p), self.perms)))

        gens = [self.index[tuple(range(1, d)) + (0,)],
                self.index[(1, 0) + tuple(range(2, d))]]
        steps = [(g, itemgetter(*composed(self.perms[g]))) for g in gens]
        rows = [None] * self.size
        rows[self.identity] = tuple(range(self.size))
        frontier = [self.identity]
        while frontier:
            nxt = []
            for a in frontier:
                row = rows[a]
                for g, step in steps:
                    ag = row[g]
                    if rows[ag] is None:
                        rows[ag] = step(row)
                        nxt.append(ag)
            frontier = nxt
        self.mul = tuple(rows)

    @cached_property
    def classes(self):
        """The conjugacy classes, one per cycle type, as ``(representative,
        class size)`` pairs in order of first occurrence; a representative
        is the class's first element in ``perms``."""
        first, sizes = {}, {}
        for i, p in enumerate(self.perms):
            t = _cycle_type(p)
            first.setdefault(t, i)
            sizes[t] = sizes.get(t, 0) + 1
        return tuple((first[t], sizes[t]) for t in first)


@lru_cache(maxsize=None)
def table(d):
    return PermTable(d)
