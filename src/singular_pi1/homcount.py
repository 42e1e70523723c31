"""Exact counting and enumeration of maps into symmetric groups.

``count_homs(p, d)`` is the semantic evaluator of the package: the
number of assignments of ``p``'s generators to elements of Sym(d) under
which every relator evaluates to the identity.  Two presentations are
considered to describe the same group exactly when these counts agree
at every tested degree.

The search is exact but avoids the naive ``d!^(#generators)`` scan:

* generators appearing in no relator contribute an exact ``d!`` factor;
* the remaining generators split into connected components linked by
  shared relators, and each component is counted independently;
* inside a component a backtracking order is chosen so that a generator
  whose value is forced by an already-assigned relator is solved rather
  than enumerated, and every relator is checked as soon as its last
  symbol receives a value.

Component counts are memoised on a namespace-independent fingerprint,
which makes repeated counting over copies of the same building blocks
cheap.
"""

import itertools
from math import comb, factorial

from .errors import InputError, ResourceError
from .limits import DEFAULT_LIMITS
from .perms import table

_component_cache = {}


def _encode(p):
    index = {g: i for i, g in enumerate(p.generators)}
    relators = tuple(tuple((index[s], e) for s, e in r.letters)
                     for r in p.relators)
    return relators


def _split_components(n_gens, relators):
    """Group generators linked through shared relators.

    Returns ``(components, free_gens)`` where each component is a pair
    ``(gen index tuple, relator tuple)``.
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
    free_gens = tuple(g for g in range(n_gens) if g not in in_relator)
    return components, free_gens


class _Plan:
    """Backtracking schedule for one relator-connected component."""

    __slots__ = ("order", "determined", "checks")

    def __init__(self, gens, relators):
        # relators re-indexed by assignment slot
        remaining = list(gens)
        slot_of = {}
        order = []
        used_as_solver = {}

        def single_unknown(rel):
            unknown = {s for s, _ in rel if s not in slot_of}
            if len(unknown) != 1:
                return None
            g = unknown.pop()
            occurrences = [(i, e) for i, (s, e) in enumerate(rel) if s == g]
            if len(occurrences) == 1 and abs(occurrences[0][1]) == 1:
                return g, occurrences[0]
            return None

        relator_pool = list(enumerate(relators))
        while remaining:
            picked = None
            for ridx, rel in relator_pool:
                if ridx in used_as_solver:
                    continue
                found = single_unknown(rel)
                if found:
                    g, (pos, exp) = found
                    picked = (g, ridx, pos, exp)
                    break
            if picked is None:
                # most-constrained generator first
                def weight(g):
                    return -sum(1 for _, rel in relator_pool
                                if any(s == g for s, _ in rel))
                g = min(remaining, key=lambda x: (weight(x), x))
                slot = len(order)
                slot_of[g] = slot
                order.append(g)
                remaining.remove(g)
            else:
                g, ridx, pos, exp = picked
                slot = len(order)
                slot_of[g] = slot
                order.append(g)
                remaining.remove(g)
                used_as_solver[ridx] = (slot, pos, exp)

        n = len(order)
        self.order = tuple(order)
        self.determined = {}
        self.checks = [[] for _ in range(n)]
        for ridx, rel in relator_pool:
            slotted = tuple((slot_of[s], e) for s, e in rel)
            depth = max(s for s, _ in slotted)
            if ridx in used_as_solver:
                slot, pos, exp = used_as_solver[ridx]
                if slot == depth:
                    self.determined[slot] = (slotted, pos, exp)
                    continue
                # solver slot is not the last one assigned; fall back to check
            self.checks[depth].append(slotted)


def _count_component(plan, T, collect=None):
    """Count (or collect) valid assignments for one component."""
    mul, inv, ident, size = T.mul, T.inv, T.identity, T.size
    n = len(plan.order)
    asg = [0] * n
    determined = plan.determined
    checks = plan.checks
    out = 0

    def solve(det):
        rel, pos, exp = det
        a = ident
        for slot, e in rel[:pos]:
            p = asg[slot]
            if e < 0:
                p, e = inv[p], -e
            for _ in range(e):
                a = mul[a][p]
        b = ident
        for slot, e in rel[pos + 1:]:
            p = asg[slot]
            if e < 0:
                p, e = inv[p], -e
            for _ in range(e):
                b = mul[b][p]
        val = mul[inv[a]][inv[b]]
        return inv[val] if exp == -1 else val

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

    def dfs(depth):
        nonlocal out
        if depth == n:
            if collect is None:
                out += 1
            else:
                collect.append(tuple(asg))
            return
        det = determined.get(depth)
        candidates = (solve(det),) if det is not None else range(size)
        for c in candidates:
            asg[depth] = c
            if ok_at(depth):
                dfs(depth + 1)

    if n == 0:
        if collect is None:
            return 1
        collect.append(())
        return 1
    dfs(0)
    return out


def _component_key(gens, relators, d):
    slot = {g: i for i, g in enumerate(gens)}
    rels = tuple(sorted(tuple((slot[s], e) for s, e in r) for r in relators))
    return (len(gens), rels, d)


def _check_degree(p, d, limits):
    if not isinstance(d, int) or d < 0:
        raise InputError(f"degree must be a non-negative integer, got {d!r}")
    if d > limits.degree_bound:
        raise ResourceError(
            f"degree {d} exceeds the configured bound {limits.degree_bound}")


def _prepare(p, d, limits):
    """Split into components, build plans, and gate the search size.

    The estimate counts only the slots the backtracking actually
    enumerates; generators whose value is forced by a relator do not
    enlarge the search space.
    """
    relators = _encode(p)
    components, free_gens = _split_components(len(p.generators), relators)
    size = factorial(d)
    plans = [_Plan(gens, rels) for gens, rels in components]
    cost = 0
    for plan in plans:
        branching = 1
        for depth in range(len(plan.order)):
            if depth not in plan.determined:
                branching *= size
        cost += branching
    if cost > limits.ceiling:
        raise ResourceError(
            f"hom search space {cost} exceeds ceiling {limits.ceiling}",
            estimate=cost)
    return components, plans, free_gens, size


def count_homs(p, d, limits=DEFAULT_LIMITS):
    """Exact number of maps of ``p``'s generators into Sym(d) killing
    every relator."""
    _check_degree(p, d, limits)
    components, plans, free_gens, size = _prepare(p, d, limits)
    T = table(d)
    total = 1
    for (gens, rels), plan in zip(components, plans):
        key = _component_key(gens, rels, d)
        cached = _component_cache.get(key)
        if cached is None:
            cached = _count_component(plan, T)
            _component_cache[key] = cached
        total *= cached
        if total == 0:
            break
    return total * size ** len(free_gens)


def iter_homs(p, d, limits=DEFAULT_LIMITS):
    """Yield every valid assignment as a dict ``symbol -> permutation``.

    The total number of assignments is bounded against the ceiling
    before anything is yielded.
    """
    _check_degree(p, d, limits)
    components, plans, free_gens, size = _prepare(p, d, limits)
    T = table(d)
    perms = T.perms
    gen_list = p.generators

    # assignment tuples are aligned with each component plan's order
    collected = []
    total = 1
    for plan, (gens, rels) in zip(plans, components):
        found = []
        _count_component(plan, T, collect=found)
        total *= len(found)
        collected.append(found)
    total *= size ** len(free_gens)
    if total > limits.ceiling:
        raise ResourceError(
            f"{total} homomorphisms exceed ceiling {limits.ceiling}",
            estimate=total)

    def emit(parts, free_choice):
        asg = {}
        for plan, values in zip(plans, parts):
            for g, v in zip(plan.order, values):
                asg[gen_list[g]] = perms[v]
        for g, v in zip(free_gens, free_choice):
            asg[gen_list[g]] = perms[v]
        return asg

    for parts in itertools.product(*collected):
        for free_choice in itertools.product(range(size), repeat=len(free_gens)):
            yield emit(parts, free_choice)


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


def evaluate_word(word, assignment, d):
    """Evaluate a word under ``symbol -> permutation`` images."""
    T = table(d)
    acc = T.identity
    index = T.index
    for s, e in word.letters:
        i = index[assignment[s]]
        acc = T.mul[acc][T.power(i, e)]
    return T.perms[acc]


def words_all_trivial(p, words, degrees, limits=DEFAULT_LIMITS):
    """Check that each word evaluates to the identity under every hom of
    ``p`` into Sym(d) for the given degrees.

    Words that are freely trivial, or cyclically equal to a declared
    relator or its inverse, are accepted without enumeration.
    """
    from .words import cyclic_key

    relator_keys = {cyclic_key(r) for r in p.relators}
    pending = []
    for w in words:
        if w.is_identity():
            continue
        if cyclic_key(w) in relator_keys:
            continue
        pending.append(w)
    if not pending:
        return True
    for d in degrees:
        ident = tuple(range(d))
        for asg in iter_homs(p, d, limits):
            for w in pending:
                if evaluate_word(w, asg, d) != ident:
                    return False
    return True
