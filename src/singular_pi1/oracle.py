"""Ground truth by counting rigidified covers, contracted over classes.

A degree-``d`` cover of a configuration is a descent datum: one action
of each component group and of each singular group on the fiber
``{0..d-1}``, plus one bijection of fibers per branch that is
equivariant for the branch group acting through its two attaching maps.
All fibers are identified with ``{0..d-1}`` (rigidification), so the
relabeling group ``Sym(d)^(n+m)`` acts on the data and the groupoid
cardinality of covers is the rigid count divided by ``d!^(n+m)``.

The rigid count is a sum over the piece actions of a product over the
branches: branch ``b`` contributes its number of intertwiners ``lam``
with ``lam . rho(psi(a)) = tau(phi(a)) . lam``.  That number does not
change when one fiber is relabeled, so each piece ranges over the
Sym(d)-conjugacy classes of its actions (the isomorphism classes of
``d``-point G-sets), weighted by the class size, and each branch is one
table over (component class, singular class).  The intertwiners of a
branch are the isomorphisms between the two actions of the branch group,
through ``psi`` on the component's representative and through ``phi``
on the singular piece's, so a table entry is the number of automorphisms
of either action when their canonical forms agree and 0 otherwise
(``_canonical_form``); no bijection is ever tried.  Branches with the
same groups and maps share one table.  The sum is then a factor graph on
the incidence graph, pieces as variables and branches as pairwise
factors.  At ``d = 1`` there is one datum, counted with no table.  A
piece with one class, such as a trivial group, is evidence: it is fixed
at its class before anything is planned, and its weight and its
branches' entries there fold into a constant or into the weights of the
other end, so a configuration of trivial groups is a product of table
entries.  The other pieces are contracted by variable elimination
(Dechter 1999): the singular pieces first, then the components in a
greedy order, which a heap keeps and each step updates at the
eliminated variable's neighbours only, so a chain, star or theta of
``N`` pieces is contracted in time linear in ``N``.  The ``--ceiling``
gate (``Limits.charge``) estimates that work: the actions sorted into
classes, ``d * d`` labelling steps per representative of every distinct
restriction, the comparisons of every distinct table, one step of size
1 per fixed piece, and the table of every elimination step.
The actions themselves come from the oracle's own search over the
group's canonical presentation (``_actions``), gated by the candidates
it tries: each generator's order in the group, read off its permutation,
picks its candidates from the elements whose order divides it, and
every relator on two or more generators is evaluated.  A group with one
generator needs no search: it is cyclic and acts through one element,
and its classes are the cycle types of the orders that divide the
group's order.  ``perms`` supplies only the arithmetic of
Sym(d), and its table is built only at a piece or branch group with
generators, so a configuration of trivial groups never builds one.

The master comparison: groupoid cardinality times ``d!`` must equal the
number of homomorphisms of the computed fundamental-group presentation
into Sym(d), exactly; it is decided on integers, as the rigid count
against the hom count times ``d!^(n+m-1)``.  The two sides are
independent: the left side never sees a presentation of the result and
shares no counting code with the right side, which counts the result's
presentation with ``homcount.count_homs``.  The connected columns
follow from the plain ones at degrees ``1..d``: each side applies
Hall's formula to its own numbers.
"""

import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import groupby, product
from math import factorial, prod
from operator import itemgetter

from .errors import ResourceError
from .homcount import count_homs, transitive_counts
from .limits import DEFAULT_LIMITS
from .perms import table
from .scheme import incidence


def _debug(message, *args):
    """Log at DEBUG, through ``logging`` only if the host imported it: a
    host that configures logging has, and an unconfigured one drops the
    record, so the CLI need not pay for the import."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(message, *args)


class OracleReport:
    def __init__(self, degree, rigid_count, groupoid_cardinality,
                 presentation_count, verdict, connected=None):
        self.degree = degree
        self.rigid_count = rigid_count
        self.groupoid_cardinality = groupoid_cardinality   # a Fraction
        self.presentation_count = presentation_count
        self.verdict = verdict
        self.connected = connected   # a dict once attach_connected ran

    def to_json(self):
        out = {"degree": self.degree,
               "rigid_count": self.rigid_count,
               "groupoid_cardinality": {
                   "num": self.groupoid_cardinality.numerator,
                   "den": self.groupoid_cardinality.denominator},
               "presentation_count": self.presentation_count,
               "verdict": "pass" if self.verdict else "fail"}
        if self.connected is not None:
            out["connected"] = dict(self.connected)
        return out


def _actions(group, d, limits=DEFAULT_LIMITS):
    """Every action of ``group`` on ``{0..d-1}``: the images of its
    canonical generators, as indices into ``table(d)``, under which
    every relator is the identity.

    The generators are assigned in order and the partial actions kept
    level by level.  An action sends generator ``k`` to an element whose
    order divides the order of ``k`` in the group, so its candidates are
    those elements (``PermTable.dividing``), and a relator on ``k``
    alone, ``k^e`` with that order dividing ``e``, holds on every one of
    them.
    Every other relator is checked as soon as its last generator is
    assigned, and its verdict memoised on the images of the generators
    it contains (most relators contain two).  Each level's candidates,
    the partial actions times the domain, count towards the work gated
    against the ceiling.
    """
    T = table(d)
    pres = group.canonical_presentation
    checks = [[] for _ in pres.generators]
    for word in pres.relators:
        scope = sorted({k for k, _ in word})
        if len(scope) > 1:
            checks[scope[-1]].append((itemgetter(*scope), _compiled(T, word),
                                      {}))
    ident = T.identity

    def holds(check, a):
        key, word, memo = check
        images = key(a)
        if images not in memo:
            memo[images] = _evaluate(T, word, a) == ident
        return memo[images]

    partial, work = [()], 0
    for k in range(len(pres.generators)):
        domain = T.dividing(group.generator_order(k))
        work += len(partial) * len(domain)
        limits.charge(work, "action search estimate", "oracle")
        partial = [a for a in (b + (x,) for b in partial for x in domain)
                   if all(holds(check, a) for check in checks[k])]
    return partial


def _action_classes(group, d, limits):
    """The Sym(d)-conjugacy classes of the actions of ``group`` on
    ``{0..d-1}``, as ``(representative, class size)`` pairs; a
    representative lists the images of the canonical generators as
    indices into ``table(d)``.

    The classes are the orbits of ``_actions`` under conjugation, each
    walked with the conjugations by two generators of Sym(d), a d-cycle
    and a transposition (``PermTable.conjugations``), so every action is
    visited a bounded number of times.  A group without generators has
    the one empty action, and no table is built.
    A group with one generator is cyclic and acts through one element,
    whose order divides the group's order: its classes are the cycle
    types of those orders (``PermTable.classes``), with no search.
    """
    pres = group.canonical_presentation
    if not pres.generators:
        return [((), 1)]
    T = table(d)
    if len(pres.generators) == 1:
        return [((x,), size) for x, size in T.classes
                if not group.order % T.order[x]]
    actions = _actions(group, d, limits)
    seen, classes = set(), []
    for rep in actions:
        if rep in seen:
            continue
        orbit, frontier = {rep}, [rep]
        while frontier:
            x = frontier.pop()
            for conj in T.conjugations:
                y = tuple(conj[p] for p in x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        classes.append((rep, len(orbit)))
    return classes


def _compiled(T, word):
    """``word`` with each exponent reduced modulo the exponent of Sym(d)
    (``PermTable.reduce_exponent``), for ``_evaluate``."""
    out = []
    for slot, e in word:
        e = T.reduce_exponent(e)
        if e:
            out.append((slot, e))
    return tuple(out)


def _evaluate(T, word, images):
    """The value of ``word`` with generator ``slot`` at ``images[slot]``.
    It takes one product per unit of exponent, so callers pass words
    through ``_compiled`` first."""
    mul, inv = T.mul, T.inv
    acc = T.identity
    for slot, e in word:
        p = images[slot]
        if e < 0:
            p, e = inv[p], -e
        for _ in range(e):
            acc = mul[acc][p]
    return acc


def _canonical_form(gens, d):
    """Canonical form of ``{0..d-1}`` under the permutations ``gens``
    (tuples), and the number of its automorphisms: the bijections that
    commute with every one of them.

    Each orbit is labelled by a breadth-first walk from each of its
    points in turn, and keeps the least labelling; the form is the
    sorted list of the orbits' labellings.  An automorphism of an orbit
    is fixed by where it sends one point, so an orbit has as many as it
    has start points that reach the least labelling; ``m`` orbits of one
    type have that number to the ``m`` times ``m!``.
    """
    def labelled(start):
        label, order = {start: 0}, [start]
        for x in order:
            for g in gens:
                if g[x] not in label:
                    label[g[x]] = len(order)
                    order.append(g[x])
        return tuple(tuple(label[g[x]] for x in order) for g in gens), order

    seen, orbits = set(), []
    for x in range(d):
        if x in seen:
            continue
        best, orbit = labelled(x)
        seen.update(orbit)
        hits = 1
        for y in orbit[1:]:
            form = labelled(y)[0]
            if form < best:
                best, hits = form, 1
            elif form == best:
                hits += 1
        orbits.append((best, hits))
    orbits.sort()
    aut = 1
    for _, same in groupby(orbits):
        same = list(same)
        aut *= same[0][1] ** len(same) * factorial(len(same))
    return tuple(form for form, _ in orbits), aut


def _restrict(d, words, classes):
    """The canonical form and automorphism count of the branch group's
    action through ``words`` at each class representative.  A branch
    group without generators fixes every point, with no table built."""
    if not words:
        return [_canonical_form((), d)] * len(classes)
    T = table(d)
    words = [_compiled(T, w) for w in words]
    return [_canonical_form([T.perms[_evaluate(T, w, rep)] for w in words],
                            T.degree)
            for rep, _ in classes]


def _branch_table(comp_forms, sing_forms):
    """Intertwiner counts of one branch, keyed by (component class,
    singular class): the ``lam`` in Sym(d) with
    ``lam . rho(psi(a)) = tau(phi(a)) . lam`` for every generator ``a``
    of the branch group.  They are the isomorphisms between the branch
    group's two actions, as many as either has automorphisms when the
    canonical forms agree and none otherwise."""
    return {(i, j): aut if form == other else 0
            for i, (form, aut) in enumerate(comp_forms)
            for j, (other, _) in enumerate(sing_forms)}


def _elimination_order(n, ends, domains):
    """The singular pieces, then the components ``0..n-1``, each next one
    the component whose elimination builds the smallest table, the least
    slot on ties; and the total size of the tables the steps enumerate.

    A step's table is the variable's domain times those of its
    neighbours, and eliminating it changes only its neighbours' tables:
    each loses the variable and gains the others.  So every variable
    keeps the product of its neighbours' domains, updated by those
    factors alone, and the components wait in a heap keyed by (size,
    slot); a neighbour's new size is pushed as a new entry, and entries
    that no longer match are skipped when popped.
    """
    nbrs = [set() for _ in domains]
    for c, s in ends:
        nbrs[c].add(s)
        nbrs[s].add(c)
    around = [prod(domains[u] for u in near) for near in nbrs]
    gone = [False] * len(domains)
    order, work = [], 0

    def eliminate(v):
        nonlocal work
        near = nbrs[v]
        work += domains[v] * around[v]
        for u in near:
            mine = nbrs[u]
            mine.discard(v)
            around[u] //= domains[v]
            new = near - mine
            new.discard(u)
            if new:
                around[u] *= prod(domains[w] for w in new)
                mine |= new
        gone[v] = True
        order.append(v)

    for v in range(n, len(domains)):
        eliminate(v)
    heap = [(domains[v] * around[v], v) for v in range(n)]
    heapify(heap)
    while heap:
        size, v = heappop(heap)
        if gone[v] or size != domains[v] * around[v]:
            continue
        eliminate(v)
        for u in nbrs[v]:
            heappush(heap, (domains[u] * around[u], u))
    return order, work


def _contract(domains, factors, order):
    """Sum over all assignments of the product of the factors, each a
    ``(scope, table)`` pair, eliminating the variables in ``order``.

    A table is read at the values of its scope's variables: a tuple of
    them, or the one value when the scope has one variable.  Each
    variable lists the factors on it, so a step takes only those, and
    marks them used.  It enumerates the assignments of their other
    variables with the eliminated one appended, and reads each factor's
    key from that tuple with one ``itemgetter``; its message is a table
    of the same kind, or a number once no variable is left.
    """
    live, on, done = [], [[] for _ in domains], []

    def add(scope, f_table):
        for u in scope:
            on[u].append(len(live))
        live.append((scope, f_table))

    for scope, f_table in factors:
        add(scope, f_table)
    for v in order:
        touching = [live[i] for i in on[v] if live[i]]
        for i in on[v]:
            live[i] = None
        scope = sorted({u for f_scope, _ in touching for u in f_scope} - {v})
        at = {u: k for k, u in enumerate(scope)}
        at[v] = len(scope)
        reads = [(itemgetter(*(at[u] for u in f_scope)), f_table)
                 for f_scope, f_table in touching]
        values = range(domains[v])
        cells = list(product(*(range(domains[u]) for u in scope)))
        totals = []
        for asg in cells:
            total = 0
            for x in values:
                full = asg + (x,)
                term = 1
                for key, f_table in reads:
                    term *= f_table[key(full)]
                    if not term:
                        break
                total += term
            totals.append(total)
        if not scope:
            done.append(totals[0])
        else:
            add(tuple(scope), totals if len(scope) == 1
                else dict(zip(cells, totals)))
    return prod(done)


def enumerate_descent_data(cfg, d, limits=DEFAULT_LIMITS):
    """Exact number of rigidified degree-``d`` descent data of ``cfg``.

    Its variables are the slots of the configuration's
    ``scheme.Incidence``, ``0..n-1`` the components and ``n..n+m-1`` the
    singular pieces; a branch joins its two slots through the images of
    its maps, words over the canonical generators of the two pieces'
    groups."""
    ends = incidence(cfg).ends
    if d < 1:
        raise ResourceError("cover enumeration needs degree >= 1",
                            layer="oracle")
    limits.check_degree(d, "oracle")
    if d == 1:
        # Sym(1) is trivial: every action and bijection is the identity
        return 1
    groups = [p.group for p in (*cfg.components, *cfg.singulars)]
    by_group = {}
    for g in groups:
        if g.descriptor() not in by_group:
            by_group[g.descriptor()] = _action_classes(g, d, limits)
    classes = [by_group[g.descriptor()] for g in groups]
    domains = [len(cl) for cl in classes]
    # a piece with one class is fixed at it, and charged one step of
    # size 1; the others, renumbered in slot order, are eliminated
    live = [v for v, size in enumerate(domains) if size > 1]
    slot = dict(zip(live, range(len(live))))
    sizes = [domains[v] for v in live]
    pairs = [(slot[c], slot[s]) for c, s in ends
             if c in slot and s in slot]
    order, elimination = _elimination_order(
        sum(1 for v in live if v < cfg.n), pairs, sizes)
    elimination += len(domains) - len(live)
    # identical branches share their restrictions and their table
    keys = [((groups[c].descriptor(), b.psi.images),
             (groups[s].descriptor(), b.phi.images))
            for b, (c, s) in zip(cfg.branches, ends)]
    distinct = dict(zip(keys, ends))
    sides = dict.fromkeys(side for key in distinct for side in key)
    # every action is sorted into its class once, every restriction
    # labels each orbit of each representative from each of its points,
    # every distinct table compares each pair of forms once, and every
    # elimination step enumerates its table, a fixed piece's of size 1
    estimate = (sum(size for cl in by_group.values() for _, size in cl)
                + d * d * sum(len(by_group[g]) for g, _ in sides)
                + sum(domains[c] * domains[s] for c, s in distinct.values())
                + elimination)
    _debug("oracle degree %d: classes %s, estimate %d, ceiling %d",
           d, domains, estimate, limits.ceiling)
    limits.charge(estimate, "cover contraction estimate", "oracle")
    forms = {(g, words): _restrict(d, words, by_group[g])
             for g, words in sides}
    tables = {key: _branch_table(forms[key[0]], forms[key[1]])
              for key in distinct}
    # a fixed piece's branches' entries at its class fold into a
    # constant, or into the weights of the other end; its own weight is
    # 1, as its one class is the trivial action's
    constant = 1
    weights = [[size for _, size in classes[v]] for v in live]
    factors = []
    for key, (c, s) in zip(keys, ends):
        t = tables[key]
        if c in slot and s in slot:
            factors.append(((slot[c], slot[s]), t))
        elif c in slot:
            w = weights[slot[c]]
            for i in range(len(w)):
                w[i] *= t[i, 0]
        elif s in slot:
            w = weights[slot[s]]
            for j in range(len(w)):
                w[j] *= t[0, j]
        else:
            constant *= t[0, 0]
    if not live:
        return constant
    factors += [((i,), w) for i, w in enumerate(weights)]
    return constant * _contract(sizes, factors, order)


def groupoid_cardinality(cfg, d, limits=DEFAULT_LIMITS):
    """Rigid count over the order of the relabeling group, exactly."""
    rigid = enumerate_descent_data(cfg, d, limits)
    n_pieces = cfg.n + cfg.m
    return Fraction(rigid, factorial(d) ** n_pieces)


def compare(cfg, d, result, limits=DEFAULT_LIMITS):
    """Compare the oracle against a computed presentation at one degree:
    groupoid cardinality times ``d!`` equals the hom count exactly when
    the rigid count equals the hom count times ``d!^(n+m-1)``."""
    rigid = enumerate_descent_data(cfg, d, limits)
    pres_count = count_homs(result.presentation, d, limits)
    relabel = factorial(d) ** (cfg.n + cfg.m - 1)
    return OracleReport(d, rigid, Fraction(rigid, relabel * factorial(d)),
                        pres_count, rigid == pres_count * relabel)


def attach_connected(cfg, reports):
    """Fill in ``connected`` on the reports at degrees ``1..D``.

    A cover splits uniquely into connected covers, as an action into
    orbits, so Hall's formula turns each side's plain column into its
    connected one: hom counts into transitive hom counts, and
    ``groupoid cardinality * d!`` into the same for connected covers.
    The connected rigid count is the latter times ``d!^(n+m-1)``.
    """
    assert [r.degree for r in reports] == list(range(1, len(reports) + 1))
    transitive = transitive_counts([r.presentation_count for r in reports])
    connected = transitive_counts([r.groupoid_cardinality * factorial(r.degree)
                                   for r in reports])
    for r, t, c in zip(reports, transitive, connected):
        rigid = c * factorial(r.degree) ** (cfg.n + cfg.m - 1)
        assert rigid.denominator == 1, "connected rigid count is not whole"
        r.connected = {"rigid_count": rigid.numerator,
                       "transitive_homs": t,
                       "verdict": "pass" if c == t else "fail"}
    return reports
