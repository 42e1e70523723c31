"""Exact counting of maps into symmetric groups.

``count_homs(p, d)`` is the semantic evaluator of the package: the
number of assignments of ``p``'s generators to elements of Sym(d) under
which every relator evaluates to the identity.  Two presentations are
considered to describe the same group exactly when these counts agree
at every tested degree.

The presentation is Tietze-simplified first
(``presentation.tietze_eliminations``), which preserves every count,
so no relator left determines one of its generators from the others.
The count is then a sum over assignments of a product of relator
constraints, computed exactly by bucket elimination over the relator
graph (R. Dechter, *Bucket elimination*, 1999), whose cost grows with
the width of that graph rather than with the number of generators
(V. Dalmau and P. Jonsson 2004):

* generators appearing in no relator contribute an exact ``d!`` factor;
* the remaining generators split into components linked by shared
  relators; each is counted independently, and its count is memoised
  on a namespace-independent fingerprint;
* a relator on a single generator filters that generator's domain, and
  every other relator is a factor;
* Sym(d) acts on a component's solutions by conjugation, and every
  domain is a union of conjugacy classes, so one generator of each
  component, its hub, ranges over the class representatives in its
  domain only, each weighted by its class size;
* eliminating a generator enumerates its bucket, the assignments of
  every generator that shares a factor with it, and passes the sums
  over its values on as a table (a message) over the others;
* each bucket is enumerated by a forward-checking search over integer
  slots that checks every relator and looks up every incoming message
  as soon as its generators are bound;
* the elimination order is chosen greedily, by the size of the bucket
  each step would enumerate plus the most its message could hold (a
  cheap bucket whose message is wide makes every later bucket that
  receives it wide), and is compared with the order that eliminates
  every generator in one bucket, a plain forward-checking search of
  the whole component; the cheaper is used.

The estimate gated against the ceiling is the sum, over the buckets of
every component of the simplified presentation, of the product of the
domain sizes each enumerates, the hub's domain counting its classes.  It
is known before any counting starts.
"""

from collections import Counter
from functools import lru_cache
from math import comb, prod
from operator import itemgetter

from .errors import InputError, ResourceError
from .limits import DEFAULT_LIMITS
from .perms import table
from .presentation import tietze_simplify

_component_cache = {}


def _split_components(n_gens, relators):
    """Group generators linked through shared relators.

    Returns ``(components, free)`` where each component is a pair
    ``(gen index tuple, relator tuple)`` and ``free`` is the number of
    generators in no relator.
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

    in_relator = set()
    for rel in relators:
        in_relator.update(s for s, _ in rel)

    groups = {}
    for g in sorted(in_relator):
        groups.setdefault(find(g), []).append(g)
    components = []
    for root in sorted(groups):
        gens = tuple(groups[root])
        gen_set = set(gens)
        rels = tuple(r for r in relators if r and r[0][0] in gen_set)
        components.append((gens, rels))
    return components, n_gens - len(in_relator)


def _value(rel, asg, T):
    """The product of the letters of ``rel`` under ``asg[slot]``."""
    mul, inv = T.mul, T.inv
    acc = T.identity
    for slot, e in rel:
        p = asg[slot]
        if e < 0:
            p, e = inv[p], -e
        for _ in range(e):
            acc = mul[acc][p]
    return acc


def _schedule(free, rels, msgs, domains):
    """Assignment order of the generators ``free`` of one bucket: the
    generator in most factors first, the smaller domain first on ties.
    ``rels`` and ``msgs`` hold ``(scope, relator or index)`` pairs."""
    weight = Counter()
    for scope, _ in rels + msgs:
        weight.update(scope)
    return tuple(sorted(free, key=lambda v: (-weight[v], len(domains[v]),
                                             v)))


class _Bucket:
    """One elimination step: the generators ``elim`` are summed out of
    the factors that contain them, relators ``rels`` and messages
    ``msgs``, which leaves a message over ``scope``.  ``order`` is the
    assignment order of the bucket's search over ``elim`` and ``scope``;
    ``cost`` is the product of the domains it enumerates.
    """

    __slots__ = ("scope", "rels", "msgs", "order", "cost", "search")

    def __init__(self, elim, rels, msgs, domains):
        inside = set(elim)
        self.rels = [f for f in rels if f[0] & inside]
        self.msgs = [f for f in msgs if inside.intersection(f[0])]
        scope = inside.union(*(sc for sc, _ in self.rels),
                             *(sc for sc, _ in self.msgs))
        self.scope = tuple(sorted(scope - inside))
        self.search = None
        self.order = _schedule(scope, self.rels, self.msgs, domains)
        self.cost = prod(len(domains[v]) for v in self.order)


class _Search:
    """Forward-checking search of one bucket over integer slots.

    Slot ``i`` holds ``order[i]``, taken from its domain.  At every
    depth the relators and messages whose last generator was just
    assigned are checked.  ``out`` holds the slots of the bucket's scope.
    """

    __slots__ = ("cands", "checks", "lookups", "out")

    def __init__(self, bucket, domains):
        order = bucket.order
        slot = {v: i for i, v in enumerate(order)}
        self.cands = [domains[v] for v in order]
        self.checks = [[] for _ in order]
        self.lookups = [[] for _ in order]
        for scope, rel in bucket.rels:
            self.checks[max(slot[s] for s in scope)].append(
                tuple((slot[s], e) for s, e in rel))
        for scope, j in bucket.msgs:
            slots = tuple(slot[v] for v in scope)
            self.lookups[max(slots)].append((slots, j))
        self.out = tuple(slot[v] for v in bucket.scope)

    def run(self, T, tables, asg, leaf):
        """Call ``leaf(weight)`` for every consistent assignment, with
        ``asg`` holding it; ``weight`` is the product of the messages."""
        mul, inv, ident = T.mul, T.inv, T.identity
        n = len(self.cands)
        cands, checks = self.cands, self.checks
        lookups = [[(itemgetter(*slots), tables[j]) for slots, j in looks]
                   for looks in self.lookups]

        def ok_at(depth):
            for rel in checks[depth]:
                acc = ident
                for slot, e in rel:
                    p = asg[slot]
                    if e < 0:
                        p, e = inv[p], -e
                    for _ in range(e):
                        acc = mul[acc][p]
                if acc != ident:
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

        dfs(0, 1)


class _Elimination:
    """Bucket-elimination schedule for one relator-connected component.

    Sym(d) acts on the component's solutions by conjugating every
    generator at once, and a unary relator holds on all of a conjugacy
    class or on none of it, so every domain is a union of classes.  One
    generator, the hub, therefore ranges over the class representatives
    in its domain only, and a weight message over the hub multiplies
    each representative by its class size.  The hub is the generator in
    the most relators on two or more generators, the larger domain
    first on ties, so that fixing it constrains the most.
    """

    __slots__ = ("buckets", "estimate", "count", "weights")

    def __init__(self, n, relators, T):
        unary = [[] for _ in range(n)]
        rels = []
        for rel in relators:
            scope = frozenset(s for s, _ in rel)
            if len(scope) == 1:
                unary[rel[0][0]].append(tuple(e for _, e in rel))
            else:
                rels.append((scope, rel))
        # generators with the same unary relators share one domain
        filtered, domains = {}, []
        for exponents in map(tuple, unary):
            if exponents not in filtered:
                filtered[exponents] = tuple(
                    x for x in range(T.size)
                    if all(_value([(0, e) for e in w], (x,), T)
                           == T.identity for w in exponents))
            domains.append(filtered[exponents])

        links = Counter(v for scope, _ in rels for v in scope)
        hub = max(range(n), key=lambda v: (links[v], len(domains[v]), -v))
        inside = set(domains[hub])
        self.weights = {x: size for x, size in T.classes if x in inside}
        domains[hub] = tuple(sorted(self.weights))
        msgs = [((hub,), 0)]
        one = _Bucket(tuple(range(n)), rels, msgs, domains)

        def size(v):
            b = cand[v]
            return b.cost + prod(len(domains[u]) for u in b.scope), v

        greedy, cand = [], {}
        remaining = set(range(n))
        while remaining:
            for v in remaining:
                if v not in cand:
                    cand[v] = _Bucket((v,), rels, msgs, domains)
            x = min(remaining, key=size)
            b = cand.pop(x)
            remaining.discard(x)
            # only the buckets of the generators next to x change
            for v in b.scope:
                cand.pop(v, None)
            rels = [f for f in rels if x not in f[0]]
            msgs = [f for f in msgs if x not in f[0]]
            greedy.append(b)
            if b.scope:
                msgs.append((b.scope, len(greedy)))

        cost = sum(b.cost for b in greedy)
        self.buckets = [one] if one.cost <= cost else greedy
        self.estimate = min(one.cost, cost)
        for b in self.buckets:
            b.search = _Search(b, domains)
        self.count = None

    def forward(self, T):
        """Tabulate every bucket in elimination order and return the
        count.  Each bucket's message is a table over its scope (an int
        when the scope is empty); table 0 is the hub's weights."""
        tables = [self.weights]
        count = 1
        for b in self.buckets:
            s = b.search
            asg = [0] * len(b.order)
            message = {}
            get = message.get
            key = itemgetter(*s.out) if s.out else (lambda _: ())

            def leaf(w):
                k = key(asg)
                message[k] = get(k, 0) + w

            s.run(T, tables, asg, leaf)
            if not s.out:
                message = message.get((), 0)
                count *= message
            tables.append(message)
            if not message:
                return 0
        return count


def _component_key(gens, relators):
    slot = {g: i for i, g in enumerate(gens)}
    rels = tuple(sorted(tuple((slot[s], e) for s, e in r) for r in relators))
    return (len(gens), rels)


def _check_degree(d, limits):
    if not isinstance(d, int) or d < 0:
        raise InputError(f"degree must be a non-negative integer, got {d!r}")
    if d > limits.degree_bound:
        raise ResourceError(
            f"degree {d} exceeds the configured bound {limits.degree_bound}",
            layer="homcount")


@lru_cache(maxsize=1)
def _components(p):
    """The degree-free part of a count: the keys of the components of
    ``p`` simplified, and the number of its generators in no relator.
    ``present --degrees`` and ``verify`` count one presentation at each
    degree in turn, so the last one is kept."""
    p = tietze_simplify(p)
    components, free = _split_components(len(p.generators), p.relators)
    keys = tuple(_component_key(gens, rels) for gens, rels in components)
    return keys, free


def _plan(p, d, limits):
    """Simplify ``p``, split it into components, plan each, and gate the
    estimated work."""
    keys, free = _components(p)
    T = table(d)
    plans = []
    for key in keys:
        plan = _component_cache.get((key, d))
        if plan is None:
            plan = _component_cache[key, d] = _Elimination(*key, T)
        plans.append(plan)
    cost = sum(plan.estimate for plan in plans)
    if cost > limits.ceiling:
        raise ResourceError(
            f"hom search space {cost} exceeds ceiling {limits.ceiling}",
            estimate=cost, ceiling=limits.ceiling, layer="homcount")
    return plans, free, T


def count_homs(p, d, limits=DEFAULT_LIMITS):
    """Exact number of maps of ``p``'s generators into Sym(d) killing
    every relator."""
    _check_degree(d, limits)
    plans, free, T = _plan(p, d, limits)
    total = 1
    for plan in plans:
        if plan.count is None:
            plan.count = plan.forward(T)
        total *= plan.count
        if total == 0:
            break
    return total * T.size ** free


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

