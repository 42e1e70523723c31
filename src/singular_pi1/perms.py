"""Integer-indexed arithmetic for the symmetric group Sym({0..d-1}).

A permutation is a tuple mapping position to image.  Composition is read
left to right: ``compose(p, q)`` applies ``p`` first, then ``q``.  The
hot loops of hom counting never touch tuples; they work with indices
into a cached ``PermTable`` whose multiplication, inverse and order
tables turn word evaluation into plain list lookups.

The multiplication table is built a row at a time.  Row ``g`` lists the
products ``g h`` over all ``h``, and since ``(a g) h = a (g h)``, the
row of ``a g`` is the row of ``a`` read at the positions the row of
``g`` lists: one C-level ``itemgetter`` call per row.  Two rows, of a
d-cycle and of a transposition, are composed directly; every other row
is reached from them along a breadth-first walk of the Cayley graph.
The same walk gives the inverses, since ``(a g)^-1 = g^-1 a^-1`` is the
row of ``g^-1`` read at ``a^-1``.

The conjugacy classes are the cycle types, the partitions of ``d``; each
is listed with its least element and its size in closed form, with no
pass over the group.  An element's order is the length of its walk of
powers back to the identity.  Every order divides ``exponent``, the
least common multiple of ``1..d``, so ``x^e`` depends only on ``e``
modulo it (``reduce_exponent``), and the solutions of ``x^e = 1`` are
the elements whose order divides ``gcd(e, exponent)`` (``dividing``).
"""

import itertools
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm
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


def _partitions(d, most=None):
    """The partitions of ``d`` into parts of at most ``most``, largest
    part first, each as a tuple of parts in decreasing order."""
    if d == 0:
        yield ()
        return
    for k in range(min(d, most or d), 0, -1):
        for rest in _partitions(d - k, k):
            yield (k,) + rest


def _least_of_type(parts):
    """The least permutation, as a tuple, of cycle type ``parts``: the
    cycles, shortest first, on consecutive points, each sending a point
    to the next.  Greedily, position ``i`` takes the least image that
    still leaves the rest completable, which closes the current cycle
    as soon as a cycle of its length is left."""
    out, start = [], 0
    for k in sorted(parts):
        out += range(start + 1, start + k)
        out.append(start)
        start += k
    return tuple(out)


class PermTable:
    """Full multiplication/inverse tables for Sym(d)."""

    def __init__(self, d):
        self.degree = d
        self.perms = tuple(itertools.permutations(range(d)))
        self.index = {p: i for i, p in enumerate(self.perms)}
        self.size = len(self.perms)
        self.identity = self.index[identity(d)]
        self.exponent = lcm(*range(1, d + 1))
        self._dividing = {}
        if d < 2:
            self.mul = ((self.identity,),)
            self.inv = (self.identity,)
            return
        # compose(p, q) == itemgetter(*p)(q) once d >= 2
        at = self.index.__getitem__

        def composed(p):
            return tuple(map(at, map(itemgetter(*p), self.perms)))

        cycle = tuple(range(1, d)) + (0,)
        swap = (1, 0) + tuple(range(2, d))
        # (step to the row of a g, row of g^-1) for the two generators g
        steps = []
        for g, g_inv in ((cycle, invert(cycle)), (swap, swap)):
            steps.append((self.index[g], itemgetter(*composed(g)),
                          composed(g_inv)))
        rows = [None] * self.size
        inv = [None] * self.size
        rows[self.identity] = tuple(range(self.size))
        inv[self.identity] = self.identity
        frontier = [self.identity]
        while frontier:
            nxt = []
            for a in frontier:
                row = rows[a]
                for g, step, row_g_inv in steps:
                    ag = row[g]
                    if rows[ag] is None:
                        rows[ag] = step(row)
                        inv[ag] = row_g_inv[inv[a]]
                        nxt.append(ag)
            frontier = nxt
        self.mul = tuple(rows)
        self.inv = tuple(inv)

    @cached_property
    def classes(self):
        """The conjugacy classes, one per cycle type, as ``(representative,
        class size)`` pairs in order of first occurrence; a representative
        is the class's first element in ``perms``.  A class of cycle type
        with ``m_k`` cycles of length ``k`` has ``d! / prod(k^m_k m_k!)``
        elements."""
        d = self.degree
        out = []
        for parts in _partitions(d):
            centralizer = 1
            for k, same in itertools.groupby(parts):
                m = len(tuple(same))
                centralizer *= k ** m * factorial(m)
            out.append((self.index[_least_of_type(parts)],
                        factorial(d) // centralizer))
        return tuple(sorted(out))

    @cached_property
    def order(self):
        """The order of each element.  The walk of the powers of ``x``
        also gives the order of each power, ``x^j`` having order
        ``k / gcd(j, k)`` when ``x`` has order ``k``."""
        order = [0] * self.size
        ident = self.identity
        for x, row in enumerate(self.mul):
            if order[x]:
                continue
            powers = [x]
            while powers[-1] != ident:
                powers.append(row[powers[-1]])
            k = len(powers)
            for j, y in enumerate(powers, start=1):
                order[y] = k // gcd(j, k)
        return tuple(order)

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
