"""Permutation arithmetic, and integer-indexed arithmetic for the
symmetric group Sym({0..d-1}).

A permutation is a tuple mapping position to image.  Composition is read
left to right: ``compose(p, q)`` applies ``p`` first, then ``q``.
``order_of`` gives a permutation's order, the lcm of its cycle lengths,
and ``evaluate`` the value of a word at given permutations, each
syllable by repeated squaring; ``GroupSpec`` and ``Homo`` call both.
The hot loops of hom counting never touch tuples; they work with
indices into a cached ``PermTable`` whose multiplication, inverse and
order tables turn word evaluation into plain lookups.

The table is built in one breadth-first walk of the Cayley graph of two
generators, a d-cycle and a transposition, whose rows are the only ones
composed directly.  Row ``g`` lists the products ``g h`` over all ``h``,
and since ``(a g) h = a (g h)``, the row of ``a g`` is the row of ``a``
read at the positions the row of ``g`` lists.  While Sym(d) has at most
256 elements (``d <= 5``) a row is ``bytes``, and that read is one
``translate`` of the row of ``g`` through the row of ``a``; past that an
index no longer fits a byte, and a row is a tuple read by one C-level
``itemgetter`` call.  The walk gives the inverses too, since
``(a g)^-1 = g^-1 a^-1`` is the row of ``g^-1`` read at ``a^-1``, and the
row of ``g^-1`` is the row of ``g`` inverted as a bijection.

Conjugation by a generator, ``x -> g^-1 x g``, is the row of ``g^-1``
read through the column of ``g``: one more read per generator.  One pass
labels the orbits of those two maps, the conjugacy classes, each listed
with its least element and its size, and gives every element the order
of its class's least element, the lcm of its cycle lengths.  Every order
divides ``exponent``, the least common multiple of ``1..d``, so ``x^e``
depends only on ``e`` modulo it (``reduce_exponent``), and the solutions
of ``x^e = 1`` are the elements whose order divides ``gcd(e, exponent)``
(``dividing``).
"""

import itertools
from functools import lru_cache
from math import gcd, lcm
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


def order_of(p):
    """The order of the permutation ``p``: the lcm of its cycle lengths."""
    seen, out = bytearray(len(p)), 1
    for x in p:
        length = 0
        while not seen[x]:
            seen[x] = 1
            x, length = p[x], length + 1
        if length:
            out = lcm(out, length)
    return out


def evaluate(word, images, ident):
    """The permutation ``word`` evaluates to with generator ``s`` at the
    permutation ``images[s]``; ``ident`` is the identity.  Each syllable
    ``g^e`` is multiplied in by repeated squaring, since the powers of
    ``g`` commute, so an exponent of any size costs ``O(log |e|)``
    products."""
    acc = ident
    for s, e in word:
        g = images[s] if e > 0 else invert(images[s])
        n = abs(e)
        while n:
            if n & 1:
                acc = compose(acc, g)
            n >>= 1
            if n:
                g = compose(g, g)
    return acc


class PermTable:
    """Sym(d) as indices into ``perms``, which lists it in lexicographic
    order.  ``mul[a][b]`` is the index of ``a b`` and ``inv[a]`` that of
    ``a^-1``; ``conjugations`` holds the maps ``x -> g^-1 x g`` for the
    walk's two generators, as rows like those of ``mul``; ``classes``
    lists the conjugacy classes as ``(least element, class size)`` pairs
    in index order; ``order[x]`` is the order of ``x``."""

    def __init__(self, d):
        self.degree = d
        self.perms = tuple(itertools.permutations(range(d)))
        self.index = at = {p: i for i, p in enumerate(self.perms)}
        self.size = n = len(self.perms)
        self.identity = ident = at[identity(d)]
        self.exponent = lcm(*range(1, d + 1))
        self._dividing = {}
        # reader(positions)(row + pad) lists row[positions[h]] over h
        if n <= 256:
            kind, pad = bytes, bytes(256 - n)

            def reader(positions):
                return positions.translate
        else:
            kind, pad = tuple, ()

            def reader(positions):
                return itemgetter(*positions)
        # (g, step to the row of a g, row of g^-1) for the generators g,
        # a d-cycle and a transposition; compose(p, q) == itemgetter(*p)(q)
        # once d >= 2
        gens = (tuple(range(1, d)) + (0,), (1, 0) + tuple(range(2, d)))
        steps = []
        for p in gens if d >= 2 else ():
            row = kind(map(at.__getitem__, map(itemgetter(*p), self.perms)))
            steps.append((at[p], reader(row), kind(invert(row))))
        rows = [None] * n
        inv = [None] * n
        rows[ident] = kind(range(n))
        inv[ident] = ident
        frontier = [ident]
        while frontier:
            nxt = []
            for a in frontier:
                row = rows[a]
                padded = row + pad
                for g, step, row_g_inv in steps:
                    ag = row[g]
                    if rows[ag] is None:
                        rows[ag] = step(padded)
                        inv[ag] = row_g_inv[inv[a]]
                        nxt.append(ag)
            frontier = nxt
        self.mul = tuple(rows)
        self.inv = tuple(inv)
        # x -> g^-1 x g: the row of g^-1 read through the column of g
        self.conjugations = tuple(
            reader(row_g_inv)(kind(map(itemgetter(g), rows)) + pad)
            for g, _, row_g_inv in steps)
        # the classes are the orbits of the conjugations, each met first
        # at its least element
        label = [None] * n
        classes, orders = [], []
        for x in range(n):
            if label[x] is not None:
                continue
            label[x] = k = len(classes)
            orbit = [x]
            for y in orbit:
                for conj in self.conjugations:
                    z = conj[y]
                    if label[z] is None:
                        label[z] = k
                        orbit.append(z)
            classes.append((x, len(orbit)))
            orders.append(order_of(self.perms[x]))
        self.classes = tuple(classes)
        self.order = tuple(map(orders.__getitem__, label))

    def dividing(self, e):
        """The elements ``x`` with ``x^e`` the identity, in index order:
        those whose order divides ``gcd(e, exponent)``, so ``e = 0``
        keeps them all.  Each list is built once per table."""
        e = gcd(e, self.exponent)
        if e not in self._dividing:
            self._dividing[e] = tuple(range(self.size)) \
                if e == self.exponent \
                else tuple([x for x, k in enumerate(self.order) if not e % k])
        return self._dividing[e]

    def reduce_exponent(self, e):
        """The exponent ``f`` with ``x^f == x^e`` for every ``x`` and
        ``-exponent/2 < f <= exponent/2``: the fewest multiplications,
        counting an inverse as free."""
        f = e % self.exponent
        return f - self.exponent if 2 * f > self.exponent else f


@lru_cache(maxsize=None)
def table(d):
    return PermTable(d)
