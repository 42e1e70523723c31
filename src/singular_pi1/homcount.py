"""Exact counting of maps into symmetric groups.

``count_homs(p, d)`` is the semantic evaluator of the package: the
number of assignments of ``p``'s generators to elements of Sym(d) under
which every relator evaluates to the identity.  Two presentations are
considered to describe the same group exactly when these counts agree
at every tested degree.

The presentation is Tietze-simplified first
(``presentation.tietze_eliminations``), which preserves every count,
so no relator left determines one of its generators from the others; a
presentation that Tietze produced is already simplified and is counted
as it is.  The count is then a sum over assignments of a product of
relator constraints, computed exactly by bucket elimination over the
relator graph (R. Dechter, *Bucket elimination*, 1999), whose cost grows
with the width of that graph rather than with the number of generators
(V. Dalmau and P. Jonsson 2004):

* generators appearing in no relator contribute an exact ``d!`` factor;
* the remaining generators split into components linked by shared
  relators, each keyed by a namespace-independent fingerprint; each
  distinct fingerprint is planned and counted once per call, and its
  count is raised to the number of components that share it.  No count
  or plan is kept from one call to the next;
* a relator on a single generator ``x`` says that the order of ``x``
  divides its exponent, so the relators on ``x`` filter its domain to
  the elements whose order divides the gcd of their exponents
  (``PermTable.dividing``), and a presentation with no relator left
  builds no table of Sym(d) at all.  A component on one generator is
  that domain alone, so its count is the domain's size, with no plan;
* every other relator is a factor, stored as its shortest root ``w``
  with ``relator = w^k`` syllable by syllable, and checked as ``k``
  being a multiple of the order of ``w``'s value: ``(s1 s2)^3`` costs
  two products, not six;
* Sym(d) acts on a component's solutions by conjugation, and every
  domain is a union of conjugacy classes, so one generator of each
  component, its hub, ranges over the class representatives in its
  domain only, each weighted by its class size;
* eliminating a generator enumerates its bucket, the assignments of
  every generator that shares a factor with it, and passes the sums
  over its values on as a table (a message) over the others;
* twins, generators with equal unary exponents whose factors are equal
  once each is written with the generator itself as a placeholder, such
  as the leaves around the hub of a chain or a star or the stable
  letters of a theta, are summed out first, each class by the bucket
  of one representative whose message is raised to the class size
  (lifted variable elimination: R. de Salvo Braz, E. Amir and D. Roth,
  *Lifted first-order probabilistic inference*, 2005), so ``N``
  identical pieces cost one bucket, not ``N``;
* each bucket is enumerated by a forward-checking search over integer
  slots that checks every relator and looks up every incoming message
  as soon as its generators are bound.  A generator whose domain is the
  identity alone, its order dividing an exponent prime to
  ``lcm(1..d)``, is set before the search starts and drops out of every
  relator, so the search goes only as deep as the generators with a
  choice;
* the elimination order is chosen greedily, by the size of the bucket
  each step would enumerate plus the most its message could hold (a
  cheap bucket whose message is wide makes every later bucket that
  receives it wide), and is compared with the order that eliminates
  every generator left after the twins in one bucket, a plain
  forward-checking search; the cheaper is used.  The greedy reads only
  the domain sizes and the neighbour sets of the generators, so it runs
  on integers, and buckets are built for the chosen order alone;
* at degree 0 and 1 Sym(d) is trivial, so the count is 1, with no table
  and no plan.

The degree-free part of a component's plan, its relator scopes, roots
and powers, unary exponents, neighbour sets and twin classes
(``_Skeleton``), is built with the split, which is kept for the last
presentation counted; each degree adds the domains and the elimination
order.  Exponents are reduced modulo the exponent of Sym(d),
``lcm(1..d)``, when a relator is compiled into a search, so an exponent
of any size costs at most ``lcm(1..d) / 2`` products.

The estimate gated against the ceiling (``Limits.charge``) is the sum,
over the buckets of every distinct component of the simplified
presentation, of the product of the domain sizes each enumerates, the
hub's domain counting its classes, so a component on one generator is
charged the classes in its domain.  A repeated component is counted once
and its count raised to its multiplicity, so it is charged once too, and
so is the bucket that sums out a class of twins.  The estimate is known
before any counting starts.
"""

from collections import Counter
from functools import lru_cache
from heapq import heappop, heappush
from math import comb, factorial, gcd, prod
from operator import itemgetter

from .errors import InputError
from .limits import DEFAULT_LIMITS
from .perms import table
from .presentation import tietze_simplify


def _split_components(n_gens, relators):
    """Group generators linked through shared relators, in one pass.

    Returns ``(keys, free)``: ``keys`` counts each component's key, its
    number of generators and its relators, sorted, over local slots
    numbered in generator order; ``free`` is the number of generators
    in no relator.
    """
    parent = list(range(n_gens))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rel in relators:
        syms = [s for s, _ in rel]
        for a, b in zip(syms, syms[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

    groups = {}
    for rel in relators:
        if rel:
            groups.setdefault(find(rel[0][0]), []).append(rel)
    keys, used = Counter(), 0
    for rels in groups.values():
        slot = {g: i for i, g in
                enumerate(sorted({s for rel in rels for s, _ in rel}))}
        keys[len(slot), tuple(sorted(
            tuple((slot[s], e) for s, e in rel) for rel in rels))] += 1
        used += len(slot)
    return keys, n_gens - used


def _root(rel):
    """``(w, k)`` with ``rel`` equal to ``w`` repeated ``k`` times, syllable
    by syllable, and ``w`` the shortest such word."""
    n = len(rel)
    for length in range(1, n // 2 + 1):
        if n % length == 0 and rel[:length] * (n // length) == rel:
            return rel[:length], n // length
    return rel, 1


class _Skeleton:
    """The degree-free part of the plan of one component with ``n``
    generators: ``unary[v]``, the gcd of the exponent sums of the
    relators on ``v`` alone (0 when there is none); ``factors``, the
    other relators as ``(scope, root, power)``; ``nbrs[v]``, the
    generators sharing a factor with ``v``; ``links[v]``, the number
    of factors on ``v``; and ``twins``, the classes of two or more
    twin generators in slot order, each in slot order.

    Generators are twins when their ``unary`` is equal and so are their
    factors once each is written with the generator itself as a
    placeholder (-1), so twins share no factor and have the same
    neighbours."""

    __slots__ = ("n", "unary", "factors", "nbrs", "links", "twins")

    def __init__(self, n, relators):
        self.n = n
        self.unary = [0] * n
        self.factors = []
        for rel in relators:
            scope = frozenset(s for s, _ in rel)
            if len(scope) == 1:
                v, = scope
                self.unary[v] = gcd(self.unary[v], sum(e for _, e in rel))
            else:
                self.factors.append((scope, *_root(rel)))
        self.nbrs = [set() for _ in range(n)]
        own = [[] for _ in range(n)]
        for scope, root, k in self.factors:
            for v in scope:
                self.nbrs[v] |= scope
                own[v].append((tuple((-1 if s == v else s, e)
                                     for s, e in root), k))
        for v, near in enumerate(self.nbrs):
            near.discard(v)
        self.links = [len(mine) for mine in own]
        classes = {}
        for v, mine in enumerate(own):
            mine.sort()
            classes.setdefault((self.unary[v], tuple(mine)), []).append(v)
        self.twins = [tuple(c) for c in classes.values() if len(c) > 1]


class _Bucket:
    """One elimination step and the forward-checking search that
    enumerates it.

    The generators ``elim`` are summed out of the factors that contain
    them, relators ``(scope, root, power)`` and messages ``(scope, table
    index)``, which leaves a message over ``scope``.  ``order`` is the
    assignment order of the search over ``elim`` and ``scope``, the
    generator in most of those factors first and the smaller domain
    first on ties; ``cost`` is the product of the domains it
    enumerates.

    The search's slots hold the generators of ``order``, those whose
    domain is the identity alone first: the first ``fixed`` slots are
    set once, before the search, which then goes only as deep as the
    generators with a choice.  At every depth the relators and messages
    whose last generator was just assigned are checked, a relator
    ``w^k`` as ``k`` being a multiple of the order of ``w``'s value.
    ``w`` is compiled into letters, one per unit of its exponents
    reduced modulo the exponent of Sym(d), a fixed generator having
    none: slot ``i`` for the value at ``i`` and ``~i`` for its inverse.
    A root without letters holds at every assignment and is dropped.
    ``out`` holds the slots of the scope, and the message is raised to
    ``power``, the number of twins the bucket sums out.
    """

    __slots__ = ("scope", "order", "cost", "power", "fixed", "cands",
                 "checks", "lookups", "out")

    def __init__(self, elim, rels, msgs, domains, T, power=1):
        inside = set(elim)
        rels = [f for f in rels if not inside.isdisjoint(f[0])]
        msgs = [f for f in msgs if not inside.isdisjoint(f[0])]
        weight = dict.fromkeys(inside, 0)
        for f in rels + msgs:
            for v in f[0]:
                weight[v] = weight.get(v, 0) + 1
        self.scope = tuple(sorted(weight.keys() - inside))
        self.order = order = tuple(sorted(
            weight, key=lambda v: (-weight[v], len(domains[v]), v)))
        self.cost = prod(len(domains[v]) for v in order)
        self.power = power

        layout, one = order, (T.identity,)
        self.cands = [domains[v] for v in layout]
        self.fixed = fixed = self.cands.count(one)
        if fixed:
            layout = sorted(order, key=lambda v: domains[v] != one)
            self.cands = [domains[v] for v in layout]
        slot = {v: i for i, v in enumerate(layout)}
        self.checks = [[] for _ in order]
        self.lookups = [[] for _ in order]
        for scope, root, k in rels:
            letters = []
            for s, e in root:
                i = slot[s]
                if i >= fixed:
                    e = T.reduce_exponent(e)
                    letters += [i if e > 0 else ~i] * abs(e)
            if letters:
                self.checks[max(slot[s] for s in scope)].append(
                    (letters[0], tuple(letters[1:]), k % T.exponent))
        for scope, j in msgs:
            slots = tuple(slot[v] for v in scope)
            self.lookups[max(slots)].append((slots, j))
        self.out = tuple(slot[v] for v in self.scope)

    def run(self, T, tables, asg, leaf):
        """Call ``leaf(weight)`` for every consistent assignment, with
        ``asg`` holding it; ``weight`` is the product of the messages."""
        mul, inv, ident, order = T.mul, T.inv, T.identity, T.order
        n = len(self.cands)
        cands, checks = self.cands, self.checks
        lookups = [[(itemgetter(*slots), tables[j]) for slots, j in looks]
                   for looks in self.lookups]

        def ok_at(depth):
            for first, rest, k in checks[depth]:
                acc = asg[first] if first >= 0 else inv[asg[~first]]
                for i in rest:
                    acc = mul[acc][asg[i] if i >= 0 else inv[asg[~i]]]
                if acc != ident and k % order[acc]:
                    return False
            return True

        def dfs(depth, w):
            if depth == n:
                leaf(w)
                return
            looks = lookups[depth]
            for c in cands[depth]:
                asg[depth] = c
                if not ok_at(depth):
                    continue
                v = w
                for key, tab in looks:
                    v *= tab.get(key(asg), 0)
                    if not v:
                        break
                else:
                    dfs(depth + 1, v)

        w = 1
        for depth in range(self.fixed):
            asg[depth] = ident
            for key, tab in lookups[depth]:
                w *= tab.get(key(asg), 0)
        if w:
            dfs(self.fixed, w)


class _Elimination:
    """Bucket-elimination schedule for one relator-connected component
    at one degree, from its ``_Skeleton``.

    Sym(d) acts on the component's solutions by conjugating every
    generator at once, and a unary relator holds on all of a conjugacy
    class or on none of it, so every domain is a union of classes.  One
    generator, the hub, therefore ranges over the class representatives
    in its domain only, and a weight message over the hub multiplies
    each representative by its class size.  The hub is the generator in
    the most relators on two or more generators, the larger domain
    first on ties, so that fixing it constrains the most.

    Twins (``_Skeleton.twins``) are summed out first, one bucket per
    class: given their neighbours, the sums over ``k`` twins are equal
    and independent, so the bucket of one representative, which holds
    only its own relators, has its message raised to ``k``, and the
    other twins' relators are dropped (lifted variable elimination:
    R. de Salvo Braz, E. Amir and D. Roth, 2005).  The hub leaves its
    class, since its domain is weighted representatives.  A class next
    to one already summed out, in slot order, is left to the rest of the
    plan: both buckets would need the relators that join them, and
    each keeps only one representative's.
    """

    __slots__ = ("buckets", "estimate", "weights")

    def __init__(self, sk, T):
        n = sk.n
        domains = [T.dividing(e) for e in sk.unary]

        links = sk.links
        hub = max(range(n), key=lambda v: (links[v], len(domains[v]), -v))
        inside = set(domains[hub])
        self.weights = {x: size for x, size in T.classes if x in inside}
        domains[hub] = tuple(sorted(self.weights))

        # the plan on integers: eliminating v enumerates its domain
        # times those of its neighbours, and leaves a message over the
        # neighbours, who then neighbour each other
        sizes = [len(dom) for dom in domains]
        nbrs = [set(near) for near in sk.nbrs]

        # the twin classes summed out first, each by its lowest member
        twins, taken = [], set()
        for members in sk.twins:
            members = [v for v in members if v != hub]
            if len(members) > 1 and taken.isdisjoint(nbrs[members[0]]):
                twins.append(members)
                taken.update(members)
        cost = 0
        for members in twins:
            near = nbrs[members[0]]
            cost += sizes[members[0]] * prod(sizes[u] for u in near)
            for u in near:
                nbrs[u].difference_update(members)
                nbrs[u] |= near
                nbrs[u].discard(u)

        # then the greedy order of the rest
        def size(v):
            """The bucket of ``v`` plus its message, and ``v`` on ties."""
            return (sizes[v] + 1) * prod(sizes[u] for u in nbrs[v]), v

        # each generator waits in a heap under its latest size, and an
        # entry that no longer matches is skipped when popped
        rest = sorted(set(range(n)) - taken)
        latest = {v: size(v) for v in rest}
        heap = sorted(latest.values())
        picks, greedy = [], 0
        while heap:
            entry = heappop(heap)
            x = entry[1]
            if latest.get(x) != entry:
                continue
            del latest[x]
            near = nbrs[x]
            greedy += sizes[x] * prod(sizes[u] for u in near)
            # only the buckets of the generators next to x change
            for u in near:
                nbrs[u] |= near
                nbrs[u] -= {u, x}
                latest[u] = size(u)
                heappush(heap, latest[u])
            picks.append(x)

        # each representative's bucket holds its own relators alone
        mine = {members[0]: [] for members in twins}
        rels = []
        for f in sk.factors:
            for v in f[0]:
                if v in mine:
                    mine[v].append(f)
            if taken.isdisjoint(f[0]):
                rels.append(f)
        msgs, self.buckets = [((hub,), 0)], []
        for members in twins:
            b = _Bucket(members[:1], mine[members[0]], [], domains, T,
                        len(members))
            self.buckets.append(b)
            msgs.append((b.scope, len(self.buckets)))

        whole = prod(sizes[v] for v in rest)
        self.estimate = cost + min(whole, greedy)
        if whole <= greedy:
            self.buckets.append(_Bucket(rest, rels, msgs, domains, T))
        else:
            for x in picks:
                b = _Bucket((x,), rels, msgs, domains, T)
                rels = [f for f in rels if x not in f[0]]
                msgs = [f for f in msgs if x not in f[0]]
                self.buckets.append(b)
                if b.scope:
                    msgs.append((b.scope, len(self.buckets)))

    def forward(self, T):
        """Tabulate every bucket in elimination order and return the
        count.  Each bucket's message is a table over its scope (an int
        when the scope is empty); table 0 is the hub's weights."""
        tables = [self.weights]
        count = 1
        for b in self.buckets:
            asg = [0] * len(b.order)
            message = {}
            get = message.get
            key = itemgetter(*b.out) if b.out else (lambda _: ())

            def leaf(w):
                k = key(asg)
                message[k] = get(k, 0) + w

            b.run(T, tables, asg, leaf)
            if not b.out:
                message = message.get((), 0) ** b.power
                count *= message
            elif b.power > 1:
                message = {k: w ** b.power for k, w in message.items()}
            tables.append(message)
        return count


class _Cyclic:
    """A component on one generator ``x``: its relators say that the
    order of ``x`` divides the gcd ``e`` of their exponent sums, so it
    counts the elements of those orders, and it is charged the classes
    among them, as the bucket of a hub over its representatives is."""

    __slots__ = ("estimate", "count")

    def __init__(self, e, T):
        e = gcd(e, T.exponent)
        self.count = len(T.dividing(e))
        self.estimate = sum(1 for x, _ in T.classes if not e % T.order[x])

    def forward(self, T):
        return self.count


@lru_cache(maxsize=1)
def _components(p):
    """The degree-free part of a count: the ``_Skeleton`` of each
    distinct component of ``p`` simplified, with its multiplicity, and
    the number of its generators in no relator.  ``present --degrees``
    and ``verify`` count one presentation at each degree in turn, so the
    last one is kept."""
    if not p.simplified:
        p = tietze_simplify(p)
    keys, free = _split_components(len(p.generators), p.relators)
    return tuple((_Skeleton(*key), k) for key, k in keys.items()), free


def count_homs(p, d, limits=DEFAULT_LIMITS):
    """Exact number of maps of ``p``'s generators into Sym(d) killing
    every relator."""
    if not isinstance(d, int) or d < 0:
        raise InputError(f"degree must be a non-negative integer, got {d!r}")
    limits.check_degree(d, "homcount")
    if d <= 1:
        # Sym(0) and Sym(1) are trivial: one map, which kills everything
        return 1
    parts, free = _components(p)
    # a presentation without relators needs no table of Sym(d)
    T = table(d) if parts else None
    plans = [(_Cyclic(sk.unary[0], T) if sk.n == 1 else _Elimination(sk, T),
              k) for sk, k in parts]
    cost = sum(plan.estimate for plan, _ in plans)
    limits.charge(cost, "hom search space", "homcount")
    total = 1
    for plan, k in plans:
        total *= plan.forward(T) ** k
    return total * factorial(d) ** free


def transitive_counts(counts):
    """Transitive counts ``t_1..t_D`` from all-action counts ``h_1..h_D``.

    Every finite action splits uniquely into orbits, which gives Hall's
    exponential formula ``h_d = sum_{k=1..d} C(d-1, k-1) t_k h_{d-k}``
    with ``h_0 = 1`` (M. Hall 1949).  Only ``+ - *`` are used, so the
    counts may be integers or ``Fraction``s.
    """
    h = [1] + list(counts)
    t = [0]
    for d in range(1, len(h)):
        t.append(h[d] - sum(comb(d - 1, k - 1) * t[k] * h[d - k]
                            for k in range(1, d)))
    return t[1:]
