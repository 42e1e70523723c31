"""Finite presentations and the constructions that combine them.

A presentation is a tuple of generator names plus a tuple of relators,
words over the generator indices ``0..n-1`` (see ``words``).  Relators
are stored cyclically reduced; empty relators are dropped.  A
presentation with no relators denotes the free group on its generators.

The one way to combine presentations is ``append``: it copies a group
into the generator and relator lists of a growing presentation and
returns the offset of its block, so that generator ``i`` of the group
is generator ``offset + i`` of the lists, named ``tag.name``.  A free
product is a loop over ``append``; the assemblies of the higher layers
append to one pair of lists and keep track of where an ingredient ended
up by these offsets.

Names are checked where they enter: by the public constructor, and by
the JSON parser.  The constructions here start from checked
presentations and build through ``Presentation._trusted``, which checks
nothing.
"""

import heapq
from collections import Counter, defaultdict

from .errors import InputError
from .words import (check_name, cyclic_key, cyclically_reduce,
                    inverse, reduce, render, shift, substitute)


class Presentation:
    """Generator names and relators.  ``simplified`` is true on the
    output of ``tietze_eliminations``, to which no Tietze move applies,
    so a counter need not simplify it again.  Simplifying it again is
    one scan when no two of its relators share a shape, and the indexed
    pass when two do (``tietze_eliminations``)."""

    __slots__ = ("generators", "relators", "simplified")

    def __init__(self, generators, relators=()):
        gens = []
        for g in generators:
            if not isinstance(g, str):
                raise InputError(f"not a generator symbol: {g!r}")
            gens.append(check_name(g))
        if len(set(gens)) != len(gens):
            raise InputError("duplicate generator symbols in presentation")
        n = len(gens)
        rels = []
        for r in relators:
            r = tuple(r)
            bad = {g for g, _ in r
                   if not (type(g) is int and 0 <= g < n)}
            if bad:
                raise InputError(
                    f"relator uses undeclared generators: "
                    f"{sorted(map(str, bad))}")
            if not all(type(e) is int and e for _, e in r):
                raise InputError(
                    f"relator exponents must be non-zero integers: {r}")
            rels.append(reduce(r))
        self.generators = tuple(gens)
        self.relators = cyclic_relators(rels)
        self.simplified = False

    @classmethod
    def _trusted(cls, generators, relators, simplified=False):
        """A presentation of checked parts: distinct checked names, and
        cyclically reduced non-trivial relators over their indices."""
        p = cls.__new__(cls)
        p.generators = tuple(generators)
        p.relators = tuple(relators)
        p.simplified = simplified
        return p

    def key(self):
        """Canonical name-independent fingerprint (for caching)."""
        return (len(self.generators), tuple(sorted(self.relators)))

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.generators == other.generators
                and self.relators == other.relators)

    def __hash__(self):
        return hash((self.generators, self.relators))

    def __repr__(self):
        gens = ", ".join(self.generators)
        rels = ", ".join(render(r, self.generators) for r in self.relators)
        return f"<{gens} | {rels}>"


def cyclic_relators(words):
    """The cyclic reductions of the freely reduced ``words``, without
    the trivial ones."""
    return tuple(r for r in map(cyclically_reduce, words) if r)


def free_presentation(rank, prefix="x"):
    """The free group of the given rank on ``prefix1 .. prefixN``."""
    if rank < 0:
        raise InputError("rank must be non-negative")
    return Presentation([f"{prefix}{i + 1}" for i in range(rank)], ())


def append(gens, rels, p, tag):
    """Copy ``p`` into the lists ``gens`` and ``rels``, its generators
    named ``tag.name``; returns the offset of its first generator."""
    offset = len(gens)
    gens.extend(f"{tag}.{g}" for g in p.generators)
    rels.extend(shift(r, offset) for r in p.relators)
    return offset


def quotient_by_relations(p, pairs):
    """Impose ``lhs = rhs`` for each pair of words over ``p``'s generators."""
    n = len(p.generators)
    new_relators = []
    for lhs, rhs in pairs:
        bad = {g for g, _ in lhs + rhs if not 0 <= g < n}
        if bad:
            raise InputError(
                f"relation uses undeclared generators: {sorted(bad)}")
        new_relators.append(reduce(lhs + inverse(rhs)))
    return Presentation._trusted(p.generators,
                                 p.relators + cyclic_relators(new_relators))


def _eliminable_syllable(relator, where):
    """Find a syllable ``(g, ±1)`` whose generator occurs once in the
    relator.

    Of those syllables, takes the one whose generator occurs in the
    fewest relators (``len(where[g])``), the first on ties.  Returns
    ``(generator, replacement word)``, so that the relator is equivalent
    to ``generator = replacement``, or ``None``.
    """
    gens = [g for g, _ in relator]
    if len(set(gens)) == len(gens):
        # no generator repeats: every syllable of exponent ±1 qualifies.
        # Two calls in three on the S3/C2 families' dévissage raw
        # presentations; skipping the Counter halves their cost
        eliminable = [pos for pos, (_, e) in enumerate(relator)
                      if e == 1 or e == -1]
    else:
        counts = Counter(gens)
        eliminable = [pos for pos, (g, e) in enumerate(relator)
                      if abs(e) == 1 and counts[g] == 1]
    if not eliminable:
        return None
    # min() keeps the first of equal counts
    pos = min(eliminable, key=lambda i: len(where[relator[i][0]]))
    g, e = relator[pos]
    # rotate so the syllable sits first: relator ~ g^e * w; w is freely
    # reduced, since the relator is cyclically reduced
    w = relator[pos + 1:] + relator[:pos]
    return g, (inverse(w) if e == 1 else w)


def _is_fixed_point(relators):
    """Whether one scan proves that no Tietze move applies to
    ``relators``: each is non-empty and cyclically reduced, none has an
    eliminable syllable (see ``_eliminable_syllable``), and no two share
    a shape, their syllable count and generator set.  Rotation and
    inversion keep the shape, so no two are duplicates.  The test is
    sufficient, not necessary: relators of one shape may still differ."""
    shapes = set()
    for r in relators:
        if len(r) == 1:
            (g, e), = r
            if e == 1 or e == -1:
                return False
            shape = g                 # stands for (1, {g})
        else:
            if not r or r[0][0] == r[-1][0]:
                return False
            gens = [g for g, _ in r]
            for g, e in r:
                if (e == 1 or e == -1) and gens.count(g) == 1:
                    return False
            shape = (len(r), frozenset(gens))
        if shape in shapes:
            return False
        shapes.add(shape)
    return True


def tietze_eliminations(p):
    """Apply hom-count-preserving cleanup moves until none applies.

    Moves: free/cyclic reduction (done by the constructor), deletion of
    trivial and duplicate relators, and elimination of a generator that
    some relator expresses as a word in the others.  Generators not
    subject to elimination are kept even when unused; removing them
    would change hom counts.

    A first scan (``_is_fixed_point``) returns a presentation to which
    it proves no move applies as it is, marked simplified, with no
    eliminations; the default route's raw presentations on the corpus
    and the S3/C2 families are such fixed points.  Every other
    presentation takes the indexed pass below, whose result is the same
    on a fixed point.

    The order is fixed: of relators equal up to rotation and inversion
    the first in list order is kept, and each step eliminates through
    the first eliminable relator in list order, at the eliminable
    syllable whose generator occurs in the fewest relators, the first
    such syllable on ties.  Relators keep their list positions, and
    three indexes stand in for rescanning the list (G. Havas, P. E.
    Kenne, J. S. Richardson and E. F. Robertson, "A Tietze
    transformation program", 1984): generator to the positions it
    occurs in, so a step rewrites only those relators; cyclic key to
    position, so a rewritten relator finds the one it duplicates; and a
    heap of positions, checked when popped, for the next eliminable
    relator.  A step thus costs time linear in the syllables of the
    relators it rewrites, plus a logarithm per heap entry, except that
    a relator's cyclic key costs its syllable count times the number of
    times its least syllable occurs (``words.cyclic_key``).  A step
    rewrites every relator that uses the generator it eliminates;
    choosing the least used one keeps a hub generator, shared by the
    relators of many pieces, from being renamed piece by piece, so the
    rewrites on chain, star and theta dual graphs grow linearly with
    the number of pieces.

    Returns the simplified presentation, whose generators are the
    survivors renumbered in order, and the ``(generator, word)`` pairs
    eliminated, in elimination order, over ``p``'s generator indices.
    Each word is over the generators left at its step, so evaluating the
    words in reverse order extends a map of the surviving generators to
    all of ``p``'s.

    Exponents must be bounded: a step raises the word it substitutes to
    the exponent of each syllable it replaces, and ``words.power``
    writes a power of a word of two or more cyclic syllables out in
    full, or raises ``ResourceError`` when it cannot.  On the CLI every exponent is bounded by work already done: a
    presented group's relators are gated at ``--ceiling`` before its
    coset closure writes them out letter by letter, a group's order is
    gated at ``--bound-order`` before its generators are written as
    permutations, and a branch map's exponents are reduced modulo their
    generator's order when the map is built (``homomorphism``).
    """
    if _is_fixed_point(p.relators):
        return Presentation._trusted(p.generators, p.relators, True), []
    relators = list(p.relators)       # None once a relator is dropped
    keys = [None] * len(relators)
    first = {}                        # cyclic key -> position holding it
    where = defaultdict(set)          # generator -> positions using it

    def keep(j, r):
        """Store ``r`` at ``j`` unless an earlier relator equals it;
        drop a later one that does."""
        if not r:
            relators[j] = None
            return
        k = cyclic_key(r)
        i = first.get(k)
        if i is not None:
            if i < j:
                relators[j] = None
                return
            drop(i)
        relators[j], keys[j], first[k] = r, k, j
        for g, _ in r:
            where[g].add(j)
        heapq.heappush(candidates, j)

    def drop(j):
        del first[keys[j]]
        for g, _ in relators[j]:
            where[g].discard(j)
        relators[j] = None

    candidates = []
    for j, r in enumerate(p.relators):
        keep(j, r)
    eliminations = []
    while candidates:
        idx = heapq.heappop(candidates)
        found = relators[idx] and _eliminable_syllable(relators[idx], where)
        if not found:
            continue
        target, repl = found
        drop(idx)
        # a rewritten relator lacks target and every relator left to
        # rewrite has it, so keep() never meets one of the latter
        for j in where.pop(target):
            old = relators[j]
            drop(j)
            keep(j, cyclically_reduce(substitute(old, {target: repl})))
        eliminations.append((target, repl))
    rels = [r for r in relators if r is not None]
    if not eliminations:
        return Presentation._trusted(p.generators, rels, True), eliminations
    gone = {g for g, _ in eliminations}
    kept = [g for g in range(len(p.generators)) if g not in gone]
    number = {g: i for i, g in enumerate(kept)}
    return Presentation._trusted(
        [p.generators[g] for g in kept],
        [tuple((number[g], e) for g, e in r) for r in rels],
        True), eliminations


def tietze_simplify(p):
    """The presentation of ``tietze_eliminations(p)``."""
    return tietze_eliminations(p)[0]
