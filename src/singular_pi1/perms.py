"""Integer-indexed arithmetic for the symmetric group Sym({0..d-1}).

A permutation is a tuple mapping position to image.  Composition is read
left to right: ``compose(p, q)`` applies ``p`` first, then ``q``.  The
hot loops of hom counting never touch tuples; they work with indices
into a cached ``PermTable`` whose multiplication and inverse tables turn
word evaluation into plain list lookups.
"""

import itertools
from functools import lru_cache
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


class PermTable:
    """Full multiplication/inverse tables for Sym(d)."""

    def __init__(self, d):
        self.degree = d
        self.perms = tuple(itertools.permutations(range(d)))
        self.index = {p: i for i, p in enumerate(self.perms)}
        self.size = len(self.perms)
        self.identity = self.index[identity(d)]
        # compose(p, q) == itemgetter(*p)(q) once d >= 2; below that
        # itemgetter returns no tuple, and Sym(d) has one element
        at = self.index.__getitem__
        self.mul = tuple(
            tuple(map(at, map(itemgetter(*p), self.perms)))
            for p in self.perms
        ) if d > 1 else ((self.identity,),)
        self.inv = tuple(self.index[invert(p)] for p in self.perms)


@lru_cache(maxsize=None)
def table(d):
    return PermTable(d)
