"""Finite presentations and the constructions that combine them.

A presentation is an ordered generator list plus a list of relators.
Relators are stored cyclically reduced; empty relators are dropped.  A
presentation with no relators denotes the free group on its generators.

The combination operations (free products, quotients by relations,
fibred coproducts) are the algebraic backbone of the whole package.
Free products and fibred coproducts return the symbol renamings with
the result (``*_with_maps``), which the higher layers need to keep
track of where a generator of an ingredient ended up inside an
assembly.
"""

import heapq
from collections import Counter, defaultdict

from .errors import InputError
from .words import (GeneratorSymbol, Word, check_symbol, check_tag,
                    cyclic_key, rename, retag_symbol, substitute)


class Presentation:
    __slots__ = ("generators", "relators")

    def __init__(self, generators, relators=()):
        gens = tuple(check_symbol(g) for g in generators)
        if len(set(gens)) != len(gens):
            raise InputError("duplicate generator symbols in presentation")
        declared = set(gens)
        rels = []
        for r in relators:
            if not isinstance(r, Word):
                r = Word(tuple(r))
            bad = r.symbols() - declared
            if bad:
                raise InputError(
                    f"relator uses undeclared generators: {sorted(map(str, bad))}")
            r = r.cyclically_reduced()
            if not r.is_identity():
                rels.append(r)
        self.generators = gens
        self.relators = tuple(rels)

    def key(self):
        """Canonical namespace-independent fingerprint (for caching)."""
        index = {g: i for i, g in enumerate(self.generators)}
        rels = sorted(tuple((index[s], e) for s, e in r.letters)
                      for r in self.relators)
        return (len(self.generators), tuple(rels))

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.generators == other.generators
                and self.relators == other.relators)

    def __hash__(self):
        return hash((self.generators, self.relators))

    def __repr__(self):
        gens = ", ".join(g.qualified() for g in self.generators)
        rels = ", ".join(repr(r) for r in self.relators)
        return f"<{gens} | {rels}>"


def free_presentation(rank, prefix="x", namespace=""):
    """The free group of the given rank on ``prefix1 .. prefixN``."""
    if rank < 0:
        raise InputError("rank must be non-negative")
    gens = [GeneratorSymbol(namespace, f"{prefix}{i + 1}") for i in range(rank)]
    return Presentation(gens, ())


def retag(p, tag):
    """Copy ``p`` into the fresh namespace ``tag``; return (copy, symbol map)."""
    check_tag(tag)
    mapping = {g: retag_symbol(g, tag) for g in p.generators}
    gens = tuple(mapping[g] for g in p.generators)
    rels = tuple(rename(r, mapping) for r in p.relators)
    return Presentation(gens, rels), mapping


def free_product_with_maps(parts, tags=None):
    """Free product of several presentations on disjoint namespaced copies.

    Returns the product and one symbol map per ingredient.
    """
    if tags is None:
        tags = [f"c{i + 1}" for i in range(len(parts))]
    if len(tags) != len(parts) or len(set(tags)) != len(tags):
        raise InputError("one distinct namespace tag per factor is required")
    gens, rels, maps = [], [], []
    for p, tag in zip(parts, tags):
        copy, mapping = retag(p, tag)
        gens.extend(copy.generators)
        rels.extend(copy.relators)
        maps.append(mapping)
    # fresh tags make collisions impossible; a failure here is a bug
    assert len(set(gens)) == len(gens), "namespace collision after re-tagging"
    return Presentation(gens, rels), maps


def quotient_by_relations(p, pairs):
    """Impose ``lhs = rhs`` for each pair of words over ``p``'s generators."""
    declared = set(p.generators)
    new_relators = []
    for lhs, rhs in pairs:
        bad = (lhs.symbols() | rhs.symbols()) - declared
        if bad:
            raise InputError(
                f"relation uses undeclared generators: {sorted(map(str, bad))}")
        new_relators.append(lhs * rhs.inverse())
    return Presentation(p.generators, p.relators + tuple(new_relators))


def fibered_coproduct_with_maps(p1, p2, amalgam_pairs):
    """Free product of ``p1`` and ``p2`` glued along a list of word pairs.

    ``amalgam_pairs`` holds ``(word over p1, word over p2)`` images of a
    generating set of the amalgamating group; imposing the relation on
    generators suffices to impose it on the subgroup they generate.
    """
    prod, (m1, m2) = free_product_with_maps([p1, p2])
    pairs = [(rename(w1, m1), rename(w2, m2)) for w1, w2 in amalgam_pairs]
    return quotient_by_relations(prod, pairs), m1, m2


def _eliminable_syllable(relator, where):
    """Find a syllable ``(sym, ±1)`` whose symbol occurs once in the relator.

    Of those syllables, takes the one whose symbol occurs in the fewest
    relators (``len(where[sym])``), the first on ties.  Returns
    ``(symbol, replacement word)``, so that the relator is equivalent to
    ``symbol = replacement``, or ``None``.
    """
    letters = relator.letters
    counts = Counter(s for s, _ in letters)
    eliminable = [pos for pos, (s, e) in enumerate(letters)
                  if abs(e) == 1 and counts[s] == 1]
    if not eliminable:
        return None
    # min() keeps the first of equal counts
    pos = min(eliminable, key=lambda i: len(where[letters[i][0]]))
    s, e = letters[pos]
    # rotate so the syllable sits first: relator ~ s^e * w
    w = Word(letters[pos + 1:] + letters[:pos])
    return s, (w.inverse() if e == 1 else w)


def tietze_eliminations(p):
    """Apply hom-count-preserving cleanup moves until none applies.

    Moves: free/cyclic reduction (done by the constructor), deletion of
    trivial and duplicate relators, and elimination of a generator that
    some relator expresses as a word in the others.  Generators not
    subject to elimination are kept even when unused; removing them
    would change hom counts.

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
    a relator's cyclic key is quadratic in its syllable count.  A step
    rewrites every relator that uses the generator it eliminates;
    choosing the least used one keeps a hub generator, shared by the
    relators of many pieces, from being renamed piece by piece, so the
    rewrites on chain, star and theta dual graphs grow linearly with
    the number of pieces.

    Returns the simplified presentation and the ``(generator, word)``
    pairs eliminated, in elimination order.  Each word is over the
    generators left at its step, so evaluating the words in reverse
    order extends a map of the simplified generators to all of ``p``'s.
    """
    relators = list(p.relators)       # None once a relator is dropped
    keys = [None] * len(relators)
    first = {}                        # cyclic key -> position holding it
    where = defaultdict(set)          # generator -> positions using it

    def keep(j, r):
        """Store ``r`` at ``j`` unless an earlier relator equals it;
        drop a later one that does."""
        if r.is_identity():
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
        for s in r.symbols():
            where[s].add(j)
        heapq.heappush(candidates, j)

    def drop(j):
        del first[keys[j]]
        for s in relators[j].symbols():
            where[s].discard(j)
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
            keep(j, substitute(old, {target: repl}).cyclically_reduced())
        eliminations.append((target, repl))
    gone = {g for g, _ in eliminations}
    return Presentation(tuple(g for g in p.generators if g not in gone),
                        tuple(r for r in relators if r is not None)), \
        eliminations


def tietze_simplify(p):
    """The presentation of ``tietze_eliminations(p)``."""
    return tietze_eliminations(p)[0]
