"""Shared helpers: independent brute-force oracles, test references and
config builders.

The oracles here deliberately avoid the library's counting machinery:
they enumerate full assignment tuples with direct permutation algebra
(``search_count_homs`` prunes, but never simplifies or eliminates), so
a bug in the counting engine cannot hide behind itself.  The same holds
for the descent-data reference (``iter_descent_data``,
``descent_count``): it visits every tuple of piece actions, where the
library's oracle sums over conjugacy classes and eliminates variables,
and ``branch_table_scan`` counts a branch's intertwiners by scanning
Sym(d), where the oracle compares canonical forms, and
``elimination_order_reference`` is the greedy scan, with every
candidate's size recomputed at every step, whose order and work the
oracle's heap must reproduce.
The van Kampen forms check (``check_vk_forms``) tests the assembly, not
the counter, and counts with ``count_homs``.  ``tietze_reference`` is
the plain restart-from-the-first-relator Tietze loop that the library's
indexed pass must reproduce exactly; ``power_reference`` and
``cyclically_reduced_reference`` are the syllable-by-syllable loops
that ``words.power`` and ``words.cyclically_reduce`` must reproduce,
``cyclic_key_reference`` is the rotation list that ``cyclic_key``
must reproduce, ``evaluate_reference`` is the letter-by-letter
loop that ``GroupSpec.evaluate`` must reproduce, and ``plan_reference``
is the greedy loop, with every candidate bucket rebuilt at every step,
whose buckets and estimate the hom counter's plan must reproduce.
``devissage_order_reference`` and ``connected_order_reference`` are the
id-based greedy dévissage order and prefix check, over patches rebuilt
as configurations, whose orders and messages the slot walk
``scheme.devissage_splits`` must reproduce.  ``argparse_reference``
is the ``argparse`` parser whose outcomes ``cli.parse_args`` must
reproduce.  Words are tuples of ``(generator index, exponent)``
syllables, as in the package.
"""

import argparse
import itertools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import factorial, gcd, prod

from singular_pi1 import (Branch, Component, GroupSpec, Homo, InputError,
                          Presentation, SchemeConfig, Singular, count_homs,
                          devissage_splits, free_presentation,
                          parse_scheme_config, quotient_by_relations)
from singular_pi1.groups import _cayley
from singular_pi1.perms import compose, identity, invert, table
from singular_pi1.presentation import append
from singular_pi1.vk import FORMS, vk_glue
from singular_pi1.words import (cyclic_key, cyclically_reduce, inverse,
                                reduce, shift, substitute)


def _reference_syllable(relator, relators):
    """The eliminable syllable of ``relator`` whose generator occurs in
    the fewest of ``relators``, the first on ties."""
    best = None
    for pos, (s, e) in enumerate(relator):
        if abs(e) != 1:
            continue
        if any(s2 == s for p2, (s2, _) in enumerate(relator) if p2 != pos):
            continue
        uses = sum(1 for r in relators if any(g == s for g, _ in r))
        if best is None or uses < best[0]:
            best = uses, pos
    if best is None:
        return None
    pos = best[1]
    s, e = relator[pos]
    w = reduce(relator[pos + 1:] + relator[:pos])
    repl = inverse(w) if e == 1 else w
    return s, repl


def tietze_reference(p):
    """``presentation.tietze_eliminations`` as a plain loop: after each
    elimination, drop trivial and duplicate relators from the whole list
    and search for the next eliminable relator from the first; eliminate
    at its syllable whose generator occurs in the fewest relators.  The
    survivors are renumbered in order at the end."""
    gens = list(range(len(p.generators)))
    relators = list(p.relators)
    eliminations = []
    while True:
        seen = set()
        kept = []
        for r in relators:
            r = cyclically_reduce(r)
            if not r:
                continue
            k = cyclic_key(r)
            if k in seen:
                continue
            seen.add(k)
            kept.append(r)
        relators = kept

        eliminated = False
        for idx, r in enumerate(relators):
            found = _reference_syllable(r, relators)
            if found is None:
                continue
            target, repl = found
            mapping = {target: repl}
            relators = [cyclically_reduce(substitute(other, mapping))
                        for j, other in enumerate(relators) if j != idx]
            gens.remove(target)
            eliminations.append((target, repl))
            eliminated = True
            break
        if not eliminated:
            break
    number = {g: i for i, g in enumerate(gens)}
    return Presentation([p.generators[g] for g in gens],
                        [tuple((number[g], e) for g, e in r)
                         for r in relators]), eliminations


def power_reference(word, n):
    """``words.power`` as a loop of ``n`` multiplications."""
    if n < 0:
        return power_reference(inverse(word), -n)
    out = ()
    for _ in range(n):
        out = reduce(out + word)
    return out


def evaluate_reference(group, word):
    """``GroupSpec.evaluate`` as one composition per unit of exponent."""
    images = group.generator_elements
    acc = group.identity_element
    for s, e in word:
        g = images[s] if e > 0 else invert(images[s])
        for _ in range(abs(e)):
            acc = compose(acc, g)
    return acc


def cyclic_key_reference(word):
    """``words.cyclic_key`` as the least of all syllable rotations of the
    cyclically reduced word and of its inverse, each cyclically reduced
    on its own."""
    def rotations(w):
        if not w:
            return [()]
        return [w[i:] + w[:i] for i in range(len(w))]

    w = cyclically_reduce(word)
    return min(rotations(w) + rotations(cyclically_reduce(inverse(w))))


def cyclically_reduced_reference(word):
    """``words.cyclically_reduce`` as a loop that peels one matching
    pair of end syllables at a time and freely reduces what is left."""
    while len(word) >= 2 and word[0][0] == word[-1][0]:
        s, e1 = word[0]
        e = e1 + word[-1][1]
        middle = word[1:-1]
        word = reduce((((s, e),) + middle) if e else middle)
    return word


def all_perms(d):
    return list(itertools.permutations(range(d)))


def eval_word_brute(word, assignment, d):
    """``word`` under ``assignment[generator]``, by permutation algebra."""
    acc = identity(d)
    for s, e in word:
        p = assignment[s]
        if e < 0:
            p, e = invert(p), -e
        for _ in range(e):
            acc = compose(acc, p)
    return acc


def brute_count_homs(p, d):
    """Full product scan over all generator images; no pruning."""
    perms = all_perms(d)
    ident = identity(d)
    total = 0
    for images in itertools.product(perms, repeat=len(p.generators)):
        if all(eval_word_brute(r, images, d) == ident for r in p.relators):
            total += 1
    return total


def search_count_homs(p, d):
    """``brute_count_homs`` by depth-first search over the generators in
    declared order, over an integer multiplication table: each relator
    is checked as soon as its last generator is bound."""
    perms = all_perms(d)
    index = {x: i for i, x in enumerate(perms)}
    mul = [[index[compose(x, y)] for y in perms] for x in perms]
    inv = [index[invert(x)] for x in perms]
    one = index[identity(d)]
    checks = [[] for _ in p.generators]
    for r in p.relators:
        checks[max(i for i, _ in r)].append(r)
    asg = [0] * len(p.generators)

    def holds(letters):
        acc = one
        for i, e in letters:
            x = asg[i] if e > 0 else inv[asg[i]]
            for _ in range(abs(e)):
                acc = mul[acc][x]
        return acc == one

    def walk(i):
        if i == len(asg):
            return 1
        total = 0
        for x in range(len(perms)):
            asg[i] = x
            if all(holds(r) for r in checks[i]):
                total += walk(i + 1)
        return total

    return walk(0)


def plan_reference(n, relators, d):
    """The bucket plan of one component that ``homcount._Elimination``
    must reproduce, by the greedy loop that builds the candidate bucket
    of every remaining generator at every step: ``(buckets, estimate)``,
    one ``(order, scope, cost, power)`` per bucket.  ``n`` and
    ``relators`` are a component key of ``homcount``; domains are
    filtered by powering each element letter by letter.

    Twins are compared pair by pair: ``u`` and ``v`` are twins when the
    gcds of the exponent sums of their one-generator relators are equal
    and so are their other relators, each written with ``u``
    (respectively ``v``) as -1.  A class of twins, less the hub and
    unless a relator joins it to a class already summed out, is summed
    out first by one bucket on its lowest generator, whose power is the
    class size; the others' relators are dropped, and the rest is
    planned as a component without twins."""
    T = table(d)

    def holds(x, e):
        acc, p = T.identity, x if e > 0 else T.inv[x]
        for _ in range(abs(e)):
            acc = T.mul[acc][p]
        return acc == T.identity

    unary = [[] for _ in range(n)]
    rels, wide = [], []
    for rel in relators:
        scope = frozenset(s for s, _ in rel)
        if len(scope) == 1:
            unary[rel[0][0]].append(sum(e for _, e in rel))
        else:
            rels.append(scope)
            wide.append(rel)
    domains = [[x for x in range(T.size) if all(holds(x, e) for e in es)]
               for es in unary]
    links = Counter(v for scope in rels for v in scope)
    hub = max(range(n), key=lambda v: (links[v], len(domains[v]), -v))
    domains[hub] = sorted(x for x, _ in T.classes if x in domains[hub])

    def written(v):
        return sorted(tuple((-1 if s == v else s, e) for s, e in rel)
                      for rel in wide if any(s == v for s, _ in rel))

    def twins(u, v):
        return gcd(*unary[u]) == gcd(*unary[v]) and written(u) == written(v)

    classes = []
    for v in range(n):
        for cls in classes:
            if twins(cls[0], v):
                cls.append(v)
                break
        else:
            classes.append([v])

    def bucket(elim, rels, msgs):
        inside = set(elim)
        touching = [sc for sc in rels + msgs if inside & set(sc)]
        weight = Counter(v for sc in touching for v in sc)
        scope = inside.union(*touching)
        order = tuple(sorted(scope, key=lambda v: (-weight[v],
                                                   len(domains[v]), v)))
        return (order, tuple(sorted(scope - inside)),
                prod(len(domains[v]) for v in order), 1)

    def size(v, rels, msgs):
        _, scope, cost, _ = bucket((v,), rels, msgs)
        return cost + prod(len(domains[u]) for u in scope), v

    summed, taken = [], set()
    for cls in classes:
        members = [v for v in cls if v != hub]
        if len(members) > 1 and not any(sc & taken and sc & set(members)
                                         for sc in rels):
            summed.append(members)
            taken |= set(members)
    rels = [sc for sc in rels
            if not any(sc & set(members[1:]) for members in summed)]
    msgs, first = [(hub,)], []
    for members in summed:
        order, scope, cost, _ = bucket(members[:1], rels, [])
        first.append((order, scope, cost, len(members)))
        rels = [sc for sc in rels if members[0] not in sc]
        msgs.append(scope)

    remaining = set(range(n)) - taken
    one = bucket(remaining, rels, msgs)
    greedy = []
    while remaining:
        x = min(remaining, key=lambda v: size(v, rels, msgs))
        b = bucket((x,), rels, msgs)
        remaining.discard(x)
        rels = [sc for sc in rels if x not in sc]
        msgs = [sc for sc in msgs if x not in sc]
        greedy.append(b)
        if b[1]:
            msgs.append(b[1])
    cost = sum(b[2] for b in greedy)
    return first + ([one] if one[2] <= cost else greedy), \
        sum(b[2] for b in first) + min(one[2], cost)


def count_classes(n_points, edges):
    """Connected components of the graph on ``0..n_points-1``."""
    parent = list(range(n_points))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    classes = n_points
    for x, y in edges:
        a, b = find(x), find(y)
        if a != b:
            parent[a] = b
            classes -= 1
    return classes


def is_transitive(images, d):
    return count_classes(d, [(i, p[i]) for p in images for i in range(d)]) == 1


def brute_count_transitive_homs(p, d):
    perms = all_perms(d)
    ident = identity(d)
    total = 0
    for images in itertools.product(perms, repeat=len(p.generators)):
        if not all(eval_word_brute(r, images, d) == ident
                   for r in p.relators):
            continue
        if is_transitive(images, d):
            total += 1
    return total


def count_order_dividing(d, k):
    """Number of elements of Sym(d) whose k-th power is the identity."""
    ident = identity(d)
    total = 0
    for p in all_perms(d):
        acc = ident
        for _ in range(k):
            acc = compose(acc, p)
        if acc == ident:
            total += 1
    return total


def closed_family_homs(family, n, d):
    """#Hom(pi_1, Sym(d)) of the non-trivial ``family_config(family, n)``.

    For an involution x of Sym(d) let e(x) count the involutions b with
    (xb)^3 = 1, i.e. the homs S3 -> Sym(d) sending s1 to x, and C(x) be
    its centraliser.  Chain and star amalgamate n + 1 copies of S3 along
    <s1>: sum_x e(x)^(n+1).  Theta amalgamates two copies and adds n - 1
    stable letters centralising s1: sum_x e(x)^2 |C(x)|^(n-1).
    """
    perms = all_perms(d)
    ident = identity(d)
    invols = [x for x in perms if compose(x, x) == ident]
    total = 0
    for x in invols:
        e = sum(1 for b in invols
                if compose(compose(compose(x, b), compose(x, b)),
                           compose(x, b)) == ident)
        if family == "theta":
            centraliser = sum(1 for c in perms
                              if compose(x, c) == compose(c, x))
            total += e * e * centraliser ** (n - 1)
        else:
            total += e ** (n + 1)
    return total


# -- the descent-data reference: every rigidified datum, one by one ------

@dataclass
class DescentDatum:
    degree: int
    component_actions: dict      # component id -> tuple of permutations
    singular_actions: dict       # singular id -> tuple of permutations
    branch_bijections: dict      # branch id -> permutation


def group_actions(group, d):
    """Every action of ``group`` on ``0..d-1``: the tuples of images of
    its canonical generators that kill every relator, by brute force."""
    pres = group.canonical_presentation
    ident = identity(d)
    out = []
    for images in itertools.product(all_perms(d),
                                    repeat=len(pres.generators)):
        if all(eval_word_brute(r, images, d) == ident
               for r in pres.relators):
            out.append(images)
    return out


class _Descent:
    """The actions of every piece and the intertwiners of every branch of
    one configuration at degree ``d``."""

    def __init__(self, cfg, d):
        self.d = d
        self.comp_ids = [c.id for c in cfg.components]
        self.sing_ids = [s.id for s in cfg.singulars]
        self.comp_actions = [group_actions(c.group, d)
                             for c in cfg.components]
        self.sing_actions = [group_actions(s.group, d)
                             for s in cfg.singulars]
        comp = {c.id: (k, c.group) for k, c in enumerate(cfg.components)}
        sing = {s.id: (k, s.group) for k, s in enumerate(cfg.singulars)}
        self.branches = []
        for b in cfg.branches:
            ci, comp_group = comp[b.component]
            si, sing_group = sing[b.singular]
            self.branches.append((b.id, ci, si, comp_group, sing_group,
                                  leg_pairs(b.group, b.psi, b.phi)))
        self._memo = {}

    def intertwiners(self, k, rho, tau):
        """The ``lam`` with ``lam . rho(psi(a)) = tau(phi(a)) . lam`` for
        every generator ``a`` of branch ``k``'s group."""
        key = (k, rho, tau)
        if key not in self._memo:
            _, _, _, comp_group, sing_group, legs = self.branches[k]
            d = self.d
            pairs = [(eval_word_brute(psi, rho, d),
                      eval_word_brute(phi, tau, d)) for psi, phi in legs]
            self._memo[key] = [lam for lam in all_perms(d)
                               if all(compose(p, lam) == compose(lam, q)
                                      for p, q in pairs)]
        return self._memo[key]

    def tuples(self):
        """Every ``(rho, tau)`` tuple of piece actions, with the
        intertwiner lists of the branches."""
        for rho in itertools.product(*self.comp_actions):
            for tau in itertools.product(*self.sing_actions):
                yield rho, tau, [self.intertwiners(k, rho[ci], tau[si])
                                 for k, (_, ci, si, *_) in
                                 enumerate(self.branches)]


def descent_count(cfg, d):
    """The rigid count as a product loop: over every tuple of piece
    actions, the product of the branches' intertwiner counts."""
    total = 0
    for _, _, lams in _Descent(cfg, d).tuples():
        term = 1
        for options in lams:
            term *= len(options)
        total += term
    return total


def branch_table_scan(T, psi_words, phi_words, comp_classes, sing_classes):
    """The oracle's branch table by a scan of Sym(d): for each pair of
    representatives, the number of ``lam`` with
    ``lam . rho(psi(a)) = tau(phi(a)) . lam`` for every generator ``a``
    of the branch group.  A word is ``(slot, exponent)`` pairs over a
    representative, which lists generator images as indices into
    ``T.perms``."""
    d = T.degree

    def value(word, rep):
        acc = identity(d)
        for slot, e in word:
            p = T.perms[rep[slot]]
            if e < 0:
                p, e = invert(p), -e
            for _ in range(e):
                acc = compose(acc, p)
        return acc

    out = {}
    for i, (rho, _) in enumerate(comp_classes):
        ps = [value(w, rho) for w in psi_words]
        for j, (tau, _) in enumerate(sing_classes):
            qs = [value(w, tau) for w in phi_words]
            out[i, j] = sum(1 for lam in all_perms(d)
                            if all(compose(p, lam) == compose(lam, q)
                                   for p, q in zip(ps, qs)))
    return out


def elimination_order_reference(n, ends, domains):
    """The oracle's elimination order by the plain greedy scan: the
    singular pieces ``n..`` in turn, then at each step the first of the
    remaining components whose table, its domain times its neighbours',
    is smallest, every size recomputed; and the total size of the
    tables."""
    nbrs = [set() for _ in domains]
    for c, s in ends:
        nbrs[c].add(s)
        nbrs[s].add(c)

    def size(v):
        return domains[v] * prod(domains[u] for u in nbrs[v])

    order, work = [], 0

    def eliminate(v):
        nonlocal work
        work += size(v)
        for u in nbrs[v]:
            nbrs[u] |= nbrs[v]
            nbrs[u] -= {u, v}
        order.append(v)

    for v in range(n, len(domains)):
        eliminate(v)
    left = list(range(n))
    while left:
        v = min(left, key=size)
        left.remove(v)
        eliminate(v)
    return order, work


def iter_descent_data(cfg, d):
    """Stream every rigidified descent datum as a ``DescentDatum``."""
    ref = _Descent(cfg, d)
    for rho, tau, lams in ref.tuples():
        for choice in itertools.product(*lams):
            yield DescentDatum(
                d, dict(zip(ref.comp_ids, rho)), dict(zip(ref.sing_ids, tau)),
                {b[0]: lam for b, lam in zip(ref.branches, choice)})


def brute_connected_count(cfg, d):
    """Rigid descent data whose glued total space is connected.

    The total space has one fiber of ``d`` points per component and per
    singular piece.  Each group action joins points within its fiber,
    and each branch bijection ``lam`` joins point ``x`` of its
    component's fiber to point ``lam[x]`` of its singular piece's fiber.
    """
    pieces = [("c", c.id) for c in cfg.components] \
        + [("s", s.id) for s in cfg.singulars]
    offset = {piece: k * d for k, piece in enumerate(pieces)}
    total = 0
    for datum in iter_descent_data(cfg, d):
        edges = []
        for kind, actions in (("c", datum.component_actions),
                              ("s", datum.singular_actions)):
            for pid, images in actions.items():
                off = offset[kind, pid]
                edges += [(off + x, off + p[x]) for p in images
                          for x in range(d)]
        for b in cfg.branches:
            lam = datum.branch_bijections[b.id]
            coff, soff = offset["c", b.component], offset["s", b.singular]
            edges += [(coff + x, soff + lam[x]) for x in range(d)]
        total += count_classes(len(pieces) * d, edges) == 1
    return total


# -- homomorphisms between concrete groups ------------------------------

def group_elements(group):
    """Every element of ``group``, as the closure of its generator
    permutations from the identity, in breadth-first order."""
    gens = group.generator_elements
    if not gens:
        return (group.identity_element,)
    return _cayley(gens, group.order)[0]


def element_words(group):
    """A word over ``group``'s canonical generators for every element,
    by breadth-first search from the identity."""
    gens = group.generator_elements
    words = {group.identity_element: ()}
    queue = [group.identity_element]
    while queue:
        nxt = []
        for el in queue:
            for s, g in enumerate(gens):
                for target, exp in ((compose(el, g), 1),
                                    (compose(el, invert(g)), -1)):
                    if target not in words:
                        words[target] = reduce(words[el] + ((s, exp),))
                        nxt.append(target)
        queue = nxt
    return words


def element_order(group, a):
    e = group.identity_element
    x, n = a, 1
    while x != e:
        x = compose(x, a)
        n += 1
    return n


def iter_homs_between(source, target):
    """All homomorphisms between two concrete groups, by brute force."""
    gens = source.canonical_presentation.generators
    words = element_words(target)
    for elements in itertools.product(group_elements(target),
                                      repeat=len(gens)):
        images = tuple(words[el] for el in elements)
        try:
            hom = Homo(source, target, images)
        except InputError:
            continue
        yield hom


def standard_hom(source, target):
    """A deterministic pick among all homomorphisms source -> target.

    Prefers images of large order (so the map is as non-trivial as the
    groups allow), breaking ties by element position.  The trivial map
    always exists, so there is always a pick.
    """
    element_pos = {el: i for i, el in enumerate(group_elements(target))}

    def score(hom):
        els = [target.evaluate(w) for w in hom.images]
        return (sum(element_order(target, el) for el in els),
                tuple(-element_pos[el] for el in els))

    return max(iter_homs_between(source, target), key=score)


# -- the van Kampen forms ------------------------------------------------

def leg_pairs(group, psi, phi):
    """The ``(psi word, phi word)`` images of the generators of ``group``."""
    assert len(psi.images) == len(group.canonical_presentation.generators)
    return list(zip(psi.images, phi.images))


def words_trivial(p, words, degrees):
    """Whether every word is trivial under every hom of ``p`` into Sym(d)
    at each degree: exactly when adding the words as relators keeps the
    count."""
    quotient = Presentation(p.generators, p.relators + tuple(words))
    return all(count_homs(quotient, d) == count_homs(p, d) for d in degrees)


def glue(left, right, legs, form="i"):
    """``right`` glued onto ``left``, named ``L`` at offset 0, along
    ``legs`` by ``vk_glue``: the presentation, the offsets of the copies
    of ``right`` and the offset of the shift letters."""
    gens, rels = [], []
    append(gens, rels, left, "L")
    rights, o_shift = vk_glue(gens, rels, 0, right, legs, form, "")
    return Presentation._trusted(gens, rels), rights, o_shift


def check_vk_forms(left, right, legs, degrees, forms=FORMS):
    """Hom counts ``{form: {d: count}}`` of the van Kampen assembly of
    ``left`` and ``right`` along ``legs`` in each of ``forms``, and a flag:
    the forms agree at every degree, and the explicit generator maps
    between forms i and ii are mutually inverse homomorphisms."""
    asm = {f: glue(left, right, legs, f) for f in {*forms, "i", "ii"}}
    counts = {f: {d: count_homs(asm[f][0], d) for d in degrees}
              for f in forms}
    (p1, (r1,), v1), (p2, copies, v2) = asm["i"], asm["ii"]

    def gen(g):
        return ((g, 1),)

    # left sits at offset 0 in both; copy i of form ii is form i's right
    # conjugated by v_i, v_1 = e
    to_2 = {x: gen(x) for x in range(len(left.generators))}
    to_1 = dict(to_2)
    shifts = [()] + [gen(v1 + j) for j in range(len(legs) - 1)]
    for y in range(len(right.generators)):
        to_2[r1 + y] = gen(copies[0] + y)
        for copy, v in zip(copies, shifts):
            to_1[copy + y] = reduce(inverse(v) + gen(r1 + y) + v)
    for j in range(len(legs) - 1):
        to_2[v1 + j] = gen(v2 + j)
        to_1[v2 + j] = gen(v1 + j)

    def inverse_homs(a, b, there, back):
        """``there`` maps a's relators to b's identity, and ``back``
        undoes it on a's generators."""
        # every generator is mapped: substitute keeps an unmapped one
        assert sorted(there) == list(range(len(a.generators)))
        relators = [substitute(r, there) for r in a.relators]
        round_trip = [reduce(((g, -1),) + substitute(there[g], back))
                      for g in range(len(a.generators))]
        return (words_trivial(b, relators, degrees)
                and words_trivial(a, round_trip, degrees))

    agree = len({tuple(c.values()) for c in counts.values()}) == 1
    return counts, (agree and inverse_homs(p1, p2, to_2, to_1)
                    and inverse_homs(p2, p1, to_1, to_2))


# -- explicit orbit enumeration for the groupoid cardinality ------------

def _datum_key(datum):
    return (tuple(sorted((k, v) for k, v in datum.component_actions.items())),
            tuple(sorted((k, v) for k, v in datum.singular_actions.items())),
            tuple(sorted(datum.branch_bijections.items())))


def orbit_groupoid_cardinality(cfg, d):
    """Sum of 1/|Aut| over isomorphism classes, by explicit orbits.

    The relabeling group Sym(d)^(n+m) acts on rigid data; orbits are
    isomorphism classes and the stabilizer of a representative is its
    automorphism group.
    """
    data = {}
    for datum in iter_descent_data(cfg, d):
        data[_datum_key(datum)] = datum
    comp_ids = [c.id for c in cfg.components]
    sing_ids = [s.id for s in cfg.singulars]
    branch_info = [(b.id, b.component, b.singular) for b in cfg.branches]
    perms = all_perms(d)
    group_order = factorial(d) ** (len(comp_ids) + len(sing_ids))

    def act(labels, datum):
        comp_g = dict(zip(comp_ids, labels[:len(comp_ids)]))
        sing_g = dict(zip(sing_ids, labels[len(comp_ids):]))

        def conj(p, g):
            return compose(compose(invert(g), p), g)

        new_comp = {cid: tuple(conj(p, comp_g[cid]) for p in ps)
                    for cid, ps in datum.component_actions.items()}
        new_sing = {sid: tuple(conj(p, sing_g[sid]) for p in ps)
                    for sid, ps in datum.singular_actions.items()}
        new_branch = {}
        for bid, cid, sid in branch_info:
            lam = datum.branch_bijections[bid]
            new_branch[bid] = compose(compose(invert(comp_g[cid]), lam),
                                      sing_g[sid])
        return (tuple(sorted(new_comp.items())),
                tuple(sorted(new_sing.items())),
                tuple(sorted(new_branch.items())))

    remaining = set(data)
    total = Fraction(0)
    labels_space = list(itertools.product(perms,
                                          repeat=len(comp_ids) + len(sing_ids)))
    while remaining:
        seed = next(iter(remaining))
        datum = data[seed]
        orbit = set()
        stab = 0
        for labels in labels_space:
            image = act(labels, datum)
            orbit.add(image)
            if image == seed:
                stab += 1
        assert orbit <= set(data), "action left the enumerated set"
        remaining -= orbit
        assert len(orbit) * stab == group_order
        total += Fraction(1, stab)
    return total


# -- configuration builders ---------------------------------------------

TRIV = GroupSpec.trivial()


def trivial_branch(bid, cid, sid, comp_group=TRIV, sing_group=TRIV):
    return Branch(bid, cid, sid, TRIV,
                  Homo.trivial(TRIV, comp_group),
                  Homo.trivial(TRIV, sing_group))


def nodal_config():
    return SchemeConfig(
        [Component("A", TRIV)], [Singular("P", TRIV)],
        [trivial_branch("b1", "A", "P"), trivial_branch("b2", "A", "P")])


def theta_config():
    return SchemeConfig(
        [Component("A", TRIV), Component("B", TRIV)],
        [Singular("P", TRIV), Singular("Q", TRIV)],
        [trivial_branch("p1", "A", "P"), trivial_branch("p2", "B", "P"),
         trivial_branch("q1", "A", "Q"), trivial_branch("q2", "B", "Q")])


def chain_config():
    return SchemeConfig(
        [Component("A", TRIV), Component("B", TRIV), Component("C", TRIV)],
        [Singular("P", TRIV), Singular("Q", TRIV)],
        [trivial_branch("pa", "A", "P"), trivial_branch("pb", "B", "P"),
         trivial_branch("qb", "B", "Q"), trivial_branch("qc", "C", "Q")])


def family_config(family, n, nontrivial=True):
    """A chain, star or theta dual graph with ``n`` singular pieces.

    chain: components C0..Cn, piece Pi joins C(i-1) and Ci; star: a hub
    and leaves L1..Ln, Pi joins the hub and Li; theta: every Pi joins A
    and B.  Non-trivial: S3 components, C2 pieces and branches with
    psi: g -> s1 and phi: g -> g.  Otherwise every group is trivial.
    """
    if family == "chain":
        comps = [f"C{i}" for i in range(n + 1)]
        ends = [(f"C{i - 1}", f"C{i}") for i in range(1, n + 1)]
    elif family == "star":
        comps = ["hub"] + [f"L{i}" for i in range(1, n + 1)]
        ends = [("hub", f"L{i}") for i in range(1, n + 1)]
    else:
        comps = ["A", "B"]
        ends = [("A", "B")] * n
    if not nontrivial:
        return SchemeConfig(
            [Component(c, TRIV) for c in comps],
            [Singular(f"P{i}", TRIV) for i in range(1, n + 1)],
            [trivial_branch(f"P{i}.{k}", c, f"P{i}")
             for i, pair in enumerate(ends, start=1)
             for k, c in enumerate(pair)])
    s3, c2 = GroupSpec.symmetric(3), GroupSpec.cyclic(2)
    first = (((0, 1),),)          # g -> the first generator of the target
    branches = [Branch(f"P{i}.{k}", c, f"P{i}", c2,
                       Homo(c2, s3, first), Homo(c2, c2, first))
                for i, pair in enumerate(ends, start=1)
                for k, c in enumerate(pair)]
    return SchemeConfig([Component(c, s3) for c in comps],
                        [Singular(f"P{i}", c2) for i in range(1, n + 1)],
                        branches)


def free_product(parts):
    """The free product of ``parts``, the ``i``-th factor named under
    ``c{i}``, and the offset of each factor's generators."""
    gens, rels = [], []
    offsets = [append(gens, rels, p, f"c{i}")
               for i, p in enumerate(parts, start=1)]
    return Presentation._trusted(gens, rels), offsets


def unmerged_graph_of_groups(cfg):
    """The graph-of-groups presentation of ``cfg`` with every leg a
    relator, tree legs included: the free product of the component and
    piece groups and one stable letter per branch off the spanning tree,
    quotiented by ``psi_b(a) = t_b phi_b(a) t_b^-1``, ``t_b = 1`` on the
    tree.  On a hub-shaped dual graph every piece's generator is tied to
    its neighbours' by relators that Tietze has to eliminate, where
    ``pi1_graph_of_groups`` merges the generators instead."""
    off = set(off_forest_reference(cfg))
    stable = [b for b in cfg.branches if b.id in off]
    vertices = list(cfg.components) + list(cfg.singulars)
    prod, offsets = free_product(
        [v.group.canonical_presentation for v in vertices]
        + [free_presentation(len(stable))])
    offset = dict(zip([v.id for v in vertices], offsets))
    letter = {b.id: ((offsets[-1] + k, 1),) for k, b in enumerate(stable)}
    pairs = []
    for b in cfg.branches:
        t = letter.get(b.id, ())
        for psi, phi in zip(b.psi.images, b.phi.images):
            pairs.append((shift(psi, offset[b.component]),
                          reduce(t + shift(phi, offset[b.singular])
                                 + inverse(t))))
    return quotient_by_relations(prod, pairs)


def connected_reference(cfg):
    """Whether the incidence graph of ``cfg`` is connected, by a
    breadth-first search from its first vertex over ``("c", id)`` and
    ``("s", id)`` vertices."""
    vertices = [("c", c.id) for c in cfg.components] \
        + [("s", s.id) for s in cfg.singulars]
    adjacent = {v: [] for v in vertices}
    for b in cfg.branches:
        adjacent["c", b.component].append(("s", b.singular))
        adjacent["s", b.singular].append(("c", b.component))
    seen, queue = set(vertices[:1]), vertices[:1]
    for v in queue:
        for w in adjacent[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(vertices)


def off_forest_reference(cfg):
    """The ids of the branches of ``cfg`` whose ends the branches
    declared before them already join, each of which closes a cycle: a
    union-find over ``("c", id)`` and ``("s", id)`` vertices, each class
    led by the last vertex joined to it."""
    leader = {}

    def find(v):
        while v in leader:
            v = leader[v]
        return v

    out = []
    for b in cfg.branches:
        x, y = find(("c", b.component)), find(("s", b.singular))
        if x == y:
            out.append(b.id)
        else:
            leader[x] = y
    return out


def build_union(cfg, singular_ids):
    """The union of the patches of the given singular pieces."""
    branches = [b for b in cfg.branches if b.singular in singular_ids]
    comps = {b.component for b in branches}
    return SchemeConfig([c for c in cfg.components if c.id in comps],
                        [s for s in cfg.singulars if s.id in singular_ids],
                        branches)


def _patch_components_reference(cfg):
    """Singular id -> the ids of the components of its patch, in
    declaration order."""
    return {s.id: [c.id for c in build_union(cfg, [s.id]).components]
            for s in cfg.singulars}


def devissage_order_reference(cfg):
    """The greedy dévissage order by ids: the first declared piece, then
    repeatedly the earliest declared piece whose patch shares a
    component with the union built so far, scanning the remaining
    pieces from the start at every step."""
    patches = _patch_components_reference(cfg)
    remaining = [s.id for s in cfg.singulars]
    order = [remaining.pop(0)]
    covered = set(patches[order[0]])
    while remaining:
        pick = next(sid for sid in remaining
                    if not covered.isdisjoint(patches[sid]))
        remaining.remove(pick)
        order.append(pick)
        covered.update(patches[pick])
    return tuple(order)


def connected_order_reference(cfg, order):
    """``order`` as a tuple when it is a permutation of the singular ids
    whose every prefix has a connected patch union; raises the
    ``InputError`` of the first failure otherwise."""
    patches = _patch_components_reference(cfg)
    if sorted(order) != sorted(s.id for s in cfg.singulars):
        raise InputError("order must be a permutation of the singular ids")
    covered = set()
    for r, sid in enumerate(order, start=1):
        if covered and covered.isdisjoint(patches[sid]):
            raise InputError(
                f"prefix {list(order[:r])} of the given order is disconnected")
        covered.update(patches[sid])
    return tuple(order)


def walk(cfg, order=None):
    """``devissage_splits(cfg, order)`` with the id prefix of the order
    up to each split."""
    prefix = ()
    for split in devissage_splits(cfg, order):
        prefix += (cfg.singulars[split.piece - cfg.n].id,)
        yield prefix, split


def split_unions(cfg, prefix, split):
    """The scope, the patch and the complement of one split of
    ``devissage_splits(cfg, ...)``, built as the unions of the patches
    of ``prefix``, of its last piece and of ``prefix[:-1]``, after
    checking the split's slots against them."""
    scope = build_union(cfg, prefix)
    patch = build_union(cfg, prefix[-1:])
    rest = build_union(cfg, prefix[:-1])

    def ids(part):
        return tuple(c.id for c in part.components)

    comp_ids = [c.id for c in cfg.components]
    assert (cfg.singulars[split.piece - cfg.n],) == patch.singulars
    assert tuple(comp_ids[c] for c in split.comps) == ids(patch)
    assert tuple(cfg.branches[k] for k in split.branches) == patch.branches
    assert split.s2 == len(ids(rest))
    assert tuple(comp_ids[c] for c in split.overlap) \
        == tuple(c for c in ids(patch) if c in ids(rest))
    assert split.m_tilde_2 == len(rest.branches)
    return scope, patch, rest


def count_calls(monkeypatch, module, *names):
    """Wrap the functions ``names`` of ``module`` to record their calls;
    returns ``{name: list of argument tuples}``.  A module that imported
    a function by name keeps calling the unwrapped one."""
    calls = {}
    for name in names:
        real, seen = getattr(module, name), []
        calls[name] = seen
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, seen=seen:
                            seen.append(a) or real(*a))
    return calls


def load_corpus():
    """All bundled configurations, keyed by file stem."""
    out = {}
    root = resources.files("singular_pi1") / "configs"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            doc = json.loads(entry.read_text(encoding="utf-8"))
            out[entry.name[:-5]] = parse_scheme_config(doc)
    return out


def random_trivial_config(rng, max_components=4, max_singulars=4,
                          max_branches=7, vertex_groups=None):
    """A random valid configuration with trivial singular/branch groups.

    Builds a random bipartite spanning tree and sprinkles extra edges.
    """
    if vertex_groups is None:
        vertex_groups = [GroupSpec.trivial(), GroupSpec.cyclic(2),
                         GroupSpec.cyclic(3)]
    n = rng.randint(1, max_components)
    if n == 1 and rng.random() < 0.2:
        m = 0
    else:
        m = rng.randint(1, max_singulars)
    comps = [Component(f"X{i}", rng.choice(vertex_groups)) for i in range(n)]
    sings = [Singular(f"Z{j}", TRIV) for j in range(m)]
    branches = []
    if m > 0:
        # spanning tree over all n + m vertices, alternating sides
        count = 0

        def add_branch(ci, sj):
            nonlocal count
            comp = comps[ci]
            branches.append(trivial_branch(f"b{count}", comp.id,
                                           sings[sj].id, comp.group, TRIV))
            count += 1

        placed_c = [0]
        placed_s = []
        order = (["c"] * (n - 1) + ["s"] * m)
        rng.shuffle(order)
        for side in order:
            if side == "s" or not placed_s:
                # must attach a singular first if none placed yet
                if len(placed_s) < m:
                    sj = len(placed_s)
                    ci = rng.choice(placed_c)
                    add_branch(ci, sj)
                    placed_s.append(sj)
                    continue
            ci = len(placed_c)
            sj = rng.choice(placed_s)
            add_branch(ci, sj)
            placed_c.append(ci)
        extra = rng.randint(0, max(0, max_branches - len(branches)))
        for _ in range(extra):
            add_branch(rng.randrange(n), rng.randrange(m))
    cfg = SchemeConfig(comps, sings, branches)
    return cfg


def random_general_config(rng, max_components=3, max_singulars=3,
                          max_branches=6):
    """A random valid configuration with possibly non-trivial singular
    and branch groups and non-trivial attaching maps."""
    comp_groups = [GroupSpec.trivial(), GroupSpec.cyclic(2),
                   GroupSpec.cyclic(3), GroupSpec.symmetric(3)]
    sing_groups = [GroupSpec.trivial(), GroupSpec.cyclic(2)]
    branch_groups = [GroupSpec.trivial(), GroupSpec.cyclic(2)]
    n = rng.randint(1, max_components)
    m = rng.randint(1, max_singulars) if n > 1 or rng.random() > 0.1 else 0
    comps = [Component(f"X{i}", rng.choice(comp_groups)) for i in range(n)]
    sings = [Singular(f"Z{j}", rng.choice(sing_groups)) for j in range(m)]
    branches = []

    def add(ci, sj):
        group = rng.choice(branch_groups)
        psi = standard_hom(group, comps[ci].group) if rng.random() < 0.7 \
            else Homo.trivial(group, comps[ci].group)
        phi = standard_hom(group, sings[sj].group) if rng.random() < 0.7 \
            else Homo.trivial(group, sings[sj].group)
        branches.append(Branch(f"b{len(branches)}", comps[ci].id,
                               sings[sj].id, group, psi, phi))

    if m:
        placed_c, placed_s = [0], []
        order = ["c"] * (n - 1) + ["s"] * m
        rng.shuffle(order)
        for side in order:
            if (side == "s" or not placed_s) and len(placed_s) < m:
                sj = len(placed_s)
                add(rng.choice(placed_c), sj)
                placed_s.append(sj)
            else:
                ci = len(placed_c)
                add(ci, rng.choice(placed_s))
                placed_c.append(ci)
        room = max_branches - len(branches)
        for _ in range(rng.randint(0, room) if room > 0 else 0):
            add(rng.randrange(n), rng.randrange(m))
    return SchemeConfig(comps, sings, branches)


def random_presentation(rng, max_gens=4, max_relators=4, max_len=6):
    n = rng.randint(1, max_gens)
    relators = []
    for _ in range(rng.randint(0, max_relators)):
        length = rng.randint(1, max_len)
        relators.append([(rng.choice(range(n)), rng.choice((1, -1)))
                         for _ in range(length)])
    return Presentation("abcde"[:n], relators)


# -- the command line ----------------------------------------------------

def _reference_common(sub):
    sub.add_argument("path", help="configuration JSON file")
    sub.add_argument("--bound-order", type=int, default=None,
                     help="largest allowed finite group order")
    sub.add_argument("--bound-degree", type=int, default=None,
                     help="largest symmetric-group degree")
    sub.add_argument("--ceiling", type=int, default=None,
                     help="largest admissible estimated work")
    sub.add_argument("--output", default=None,
                     help="write JSON here instead of stdout")


def argparse_reference():
    """The argparse parser the CLI used before its flag table, kept
    unchanged as the reference that ``cli.parse_args`` must agree with."""
    parser = argparse.ArgumentParser(
        prog="singular-pi1",
        description="Fundamental-group presentations of singular schemes "
                    "from dual-graph gluing data, with oracle verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a configuration")
    _reference_common(p)

    p = subs.add_parser("present", help="compute the fundamental group")
    _reference_common(p)
    p.add_argument("--route", choices=("auto", "devissage"), default="auto")
    p.add_argument("--form", choices=("i", "ii", "iii", "iv"), default="i",
                   help="van Kampen form used by the devissage route")
    p.add_argument("--simplify", choices=("true", "false"), default="true",
                   help="emit the simplified (default) or raw presentation")
    p.add_argument("--degrees", default=None,
                   help="comma-separated degrees to append hom counts for")

    p = subs.add_parser("verify", help="compare against the cover oracle")
    _reference_common(p)
    p.add_argument("--degree-max", type=int, default=3)
    p.add_argument("--connected", action="store_true",
                   help="also compare connected covers against transitive "
                        "hom counts")

    p = subs.add_parser("plan", help="show the dévissage plan")
    _reference_common(p)

    p = subs.add_parser("rank", help="show the free-rank arithmetic")
    _reference_common(p)
    return parser
