"""Concrete finite groups used as vertex, singular and branch groups.

A ``GroupSpec`` is one of five kinds: trivial, cyclic, symmetric,
permutation (given generating permutations) or presented (given a
finite presentation).  Each constructor certifies the order, capped by
``Limits.order_bound`` (``Limits.check_order``), and computes once a
canonical presentation and one permutation per canonical generator, so
every group element is a permutation, and a word's value and a
generator's order are permutation arithmetic (``perms.evaluate``,
``perms.order_of``):

* trivial/cyclic/symmetric carry the obvious presentations and act by
  the k-cycle and the adjacent transpositions;
* a permutation group gets the spanning-tree presentation read off its
  Cayley graph, which presents the group on the given generators;
* a presented group keeps the user's presentation and acts on its own
  elements, the cosets of the trivial subgroup, by the table of a
  bounded Todd–Coxeter enumeration in the Hasse–Littlewood–Trotter
  (HLT) strategy, which is complete after one pass over the cosets.

The canonical presentation is what the assembly layer splices into
larger presentations; the generator permutations are what homomorphism
validation evaluates relators against.
"""

import sys

from .errors import InputError, ResourceError
from .limits import DEFAULT_LIMITS
from .perms import compose, evaluate, identity, order_of
from .presentation import Presentation
from .words import cyclically_reduce, inverse, power, reduce


def _cayley(generators, bound):
    """The elements of the permutation group on ``generators`` and its
    spanning-tree relators, in one breadth-first walk of its Cayley
    graph from the identity.

    The walk visits the elements in the order it first reaches them and
    gives each the word of the tree edge it was reached by.  Every other
    edge ``el -> el g_k`` gives the relator ``word(el) g_k word(el g_k)^-1``,
    cyclically reduced and kept once, which presents the group on the
    given generators.  Returns ``(elements, relators)``.
    """
    start = identity(len(generators[0]))
    words = {start: ()}
    elements = [start]
    relators, seen = [], set()
    for el in elements:
        word = words[el]
        for k, g in enumerate(generators):
            t = compose(el, g)
            target = words.get(t)
            if target is None:
                if len(elements) >= bound:
                    raise ResourceError(
                        f"group closure exceeds order bound {bound}",
                        estimate=bound + 1, ceiling=bound, layer="groups")
                words[t] = reduce(word + ((k, 1),))
                elements.append(t)
                continue
            r = cyclically_reduce(reduce(word + ((k, 1),) + inverse(target)))
            if r and r not in seen:
                seen.add(r)
                relators.append(r)
    return tuple(elements), relators


def _coset_closure(presentation, cap):
    """Exhaustive closure of a finitely presented group by the
    Hasse–Littlewood–Trotter (HLT) strategy (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, ch. 5).

    Builds the action of the group on the cosets of the trivial
    subgroup (its regular action).  Each live coset in turn, in the
    order of definition, scans every relator and fills the gaps it
    meets, merging the cosets a scan proves equal, and then defines the
    entries its row still lacks.  One pass over the cosets suffices: a
    coset the pass leaves has a complete row at which every relator
    closes, and merging keeps both for the coset that survives, the one
    defined first.  Raises ``ResourceError`` when more than ``cap``
    cosets get defined, which is the only way the closure of an infinite
    group can end.

    Returns ``(order, action)`` where ``action[c][k]`` is the coset
    reached from ``c`` by column ``k``: column ``2g`` is generator ``g``
    and ``2g + 1`` its inverse.
    """
    gens = presentation.generators
    if not gens:
        return 1, [[]]
    used = {g for r in presentation.relators for g, _ in r}
    missing = [name for g, name in enumerate(gens) if g not in used]
    if missing:
        raise ResourceError(
            "presented group has a relator-free generator and is infinite: "
            + ", ".join(missing), layer="groups")

    try:
        # each relator as the columns it follows, letter by letter
        words = [[k for g, e in r for k in [2 * g + (e < 0)] * abs(e)]
                 for r in presentation.relators]
    except MemoryError:
        raise ResourceError("the relators written out letter by letter do "
                            "not fit in memory", layer="groups") from None
    ncols = 2 * len(gens)

    table = [[None] * ncols]
    rep = [0]

    def find(c):
        while rep[c] != c:
            rep[c] = rep[rep[c]]
            c = rep[c]
        return c

    def new_coset():
        if len(table) >= cap:
            raise ResourceError(
                f"coset closure exceeded {cap} cosets; "
                "the presented group is too large or infinite",
                estimate=cap + 1, ceiling=cap, layer="groups")
        table.append([None] * ncols)
        rep.append(len(table) - 1)
        return len(table) - 1

    def define(c, cc, d):
        """Record c --col cc--> d and its inverse, both still empty."""
        table[c][cc] = d
        table[d][cc ^ 1] = c

    def coincide(a, b):
        """Merge cosets ``a`` and ``b``, and every pair that the merge
        proves equal; the coset defined first survives."""
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            rep[b] = a
            for cc, e in enumerate(table[b]):
                if e is None:
                    continue
                e, x = find(e), table[a][cc]
                if x is not None:
                    queue.append((x, e))
                elif table[e][cc ^ 1] is None:
                    define(a, cc, e)
                else:
                    table[a][cc] = e
                    queue.append((table[e][cc ^ 1], a))

    def scan_and_fill(c, word):
        """Trace ``word`` from ``c`` forward to ``f`` and backward to
        ``b``, defining a new coset after ``f`` while more than one entry
        is missing between them; a new coset has only the entry back to
        ``f``, so both scans go on from where they stopped."""
        n = len(word)
        f, i, b, j = c, 0, c, n
        while True:
            while i < n:
                nxt = table[f][word[i]]
                if nxt is None:
                    break
                f = find(nxt)
                i += 1
            if i == n:
                coincide(f, c)
                return
            while j > i:
                nxt = table[b][word[j - 1] ^ 1]
                if nxt is None:
                    break
                b = find(nxt)
                j -= 1
            if j == i:
                coincide(f, b)
                return
            if j == i + 1:
                define(f, word[i], b)
                return
            define(f, word[i], new_coset())

    c = 0
    while c < len(table):
        for w in words:
            if find(c) != c:
                break
            scan_and_fill(c, w)
        if find(c) == c:
            for cc in range(ncols):
                if table[c][cc] is None:
                    define(c, cc, new_coset())
        c += 1

    live = [c for c in range(len(table)) if find(c) == c]
    renum = {c: i for i, c in enumerate(live)}
    return len(live), [[renum[find(e)] for e in table[c]] for c in live]


_REPR = {"trivial": "1", "cyclic": "C{0}", "symmetric": "S{0}",
         "permutation": "Perm(deg={0}, order={order})",
         "presented": "Presented(order={order})"}


class GroupSpec:
    """A finite concrete group: its canonical presentation and the
    permutations its canonical generators act by.

    ``params`` identifies the group within its ``kind``;
    ``generator_elements[i]`` is the permutation of ``0..degree-1`` that
    canonical generator ``i`` acts by, and the map is faithful, so words
    evaluate by composing permutations.
    """

    def __init__(self, kind, params, presentation, generator_elements,
                 degree, order):
        self.kind = kind
        self.params = params
        self.canonical_presentation = presentation
        self.generator_elements = tuple(generator_elements)
        self.identity_element = identity(degree)
        self.order = order

    # -- constructors ---------------------------------------------------

    @classmethod
    def trivial(cls):
        return cls("trivial", (), Presentation._trusted((), ()), (), 0, 1)

    @classmethod
    def cyclic(cls, k, limits=DEFAULT_LIMITS):
        if k < 1:
            raise InputError("cyclic group order must be >= 1")
        limits.check_order(k)
        return cls("cyclic", (k,), Presentation._trusted(("g",), (((0, k),),)),
                   [tuple((i + 1) % k for i in range(k))], k, k)

    @classmethod
    def symmetric(cls, k, limits=DEFAULT_LIMITS):
        if k < 0:
            raise InputError("symmetric group degree must be >= 0")
        bound = limits.order_bound
        order = 1
        for i in range(2, k + 1):
            order *= i
            if order > bound:
                # a large degree would never finish multiplying
                raise ResourceError(f"group order {k}! exceeds bound {bound}",
                                    estimate=order, ceiling=bound,
                                    layer="groups")
        n = max(k - 1, 0)
        rels = [((i, 2),) for i in range(n)]
        rels += [power(((i, 1), (i + 1, 1)), 3) for i in range(n - 1)]
        rels += [power(((i, 1), (j, 1)), 2)
                 for i in range(n) for j in range(i + 2, n)]
        swaps = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, k))
                 for i in range(n)]
        return cls("symmetric", (k,), Presentation._trusted(
            [f"s{i}" for i in range(1, n + 1)], rels), swaps, k, order)

    @classmethod
    def permutation(cls, degree, generators, limits=DEFAULT_LIMITS):
        gens = tuple(tuple(g) for g in generators)
        for g in gens:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise InputError(f"not a permutation of 0..{degree - 1}: {g}")
        if not gens:
            raise InputError("permutation kind needs at least one generator")
        elements, relators = _cayley(gens, limits.order_bound)
        names = [f"g{i + 1}" for i in range(len(gens))]
        return cls("permutation", (degree, gens),
                   Presentation._trusted(names, relators), gens,
                   degree, len(elements))

    @classmethod
    def presented(cls, presentation, limits=DEFAULT_LIMITS):
        """The group acts on its own elements, the cosets of the trivial
        subgroup that the coset closure numbers.  The closure writes each
        relator out letter by letter, so their total length is gated
        against the ceiling, and against the longest list, first."""
        length = sum(abs(e) for r in presentation.relators for _, e in r)
        limits.charge(length, "relator length estimate", "groups")
        if length > sys.maxsize:
            raise ResourceError(
                f"relator length {length} exceeds the longest list, "
                f"{sys.maxsize}", estimate=length, ceiling=sys.maxsize,
                layer="groups")
        order, action = _coset_closure(presentation,
                                       max(10000, 8 * limits.order_bound))
        limits.check_order(order)
        gens = [tuple(row[2 * i] for row in action)
                for i in range(len(presentation.generators))]
        return cls("presented", (presentation.key(),), presentation, gens,
                   order, order)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, word):
        """Evaluate a word over canonical generators to a group element."""
        images = self.generator_elements
        for s, _ in word:
            if not 0 <= s < len(images):
                raise InputError(f"unknown generator {s} for {self}")
        return evaluate(word, images, self.identity_element)

    def generator_order(self, i):
        """The order of canonical generator ``i``."""
        return order_of(self.generator_elements[i])

    # -- identity ---------------------------------------------------------

    def descriptor(self):
        return (self.kind,) + self.params

    def __eq__(self, other):
        # the parser shares one GroupSpec per group JSON, so most
        # comparisons it leads to are of a group with itself
        return self is other or (isinstance(other, GroupSpec)
                                 and self.descriptor() == other.descriptor())

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return _REPR[self.kind].format(*self.params, order=self.order)
