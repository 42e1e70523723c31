"""The combinatorial model of a singular scheme.

A ``SchemeConfig`` records the normalisation's components, the
connected components of the singular locus, and the branches lying over
them, together with the groups attached to each piece and the two
attaching homomorphisms per branch.  Everything downstream (assembly of
the fundamental group, the cover oracle, the planning command) consumes
this structure; the geometry it abstracts is the input of record and is
never recomputed.

The incidence multigraph has the components and singular pieces as
vertices and one edge per branch.  The patch of singular piece ``j`` is
the union of the components meeting it, with the other singular pieces
removed.  ``devissage_splits`` is the one walk over a dévissage order:
in one forward pass over the ``Incidence`` record it chooses the greedy
order or checks a given one, and gives each piece's patch and its
overlap with the union of the patches before it as slots; it builds no
configuration.

A configuration is frozen, and once checked it carries an
``Incidence`` record over integer slots: the components are slots
``0..n-1`` and the singular pieces ``n..n+m-1``, each in declaration
order.  The record holds each branch's two slots, the branches over
each piece, and the branches off the spanning tree of one union-find,
which also decides connectivity.  The parser resolves every reference
into slots as it reads and leaves the record through
``check_incidence``, the tail of ``validate``; a configuration built in
Python gets it from its first reader, through ``incidence``, whose
``validate`` resolves the ids first.  Every later reader, ``validate`` included, takes the record.
"""

from collections import Counter
from heapq import heappop, heappush

from .errors import InputError


class Component:
    def __init__(self, id, group):
        self.id, self.group = id, group


class Singular:
    def __init__(self, id, group):
        self.id, self.group = id, group


class Branch:
    def __init__(self, id, component, singular, group, psi, phi):
        self.id, self.component, self.singular = id, component, singular
        self.group = group
        self.psi = psi   # Homo into the component's group
        self.phi = phi   # Homo into the singular piece's group


class SchemeConfig:
    def __init__(self, components, singulars, branches):
        self.components, self.singulars = tuple(components), tuple(singulars)
        self.branches = tuple(branches)
        self._incidence = None   # set by a successful ``validate``

    @property
    def n(self):
        return len(self.components)

    @property
    def m(self):
        return len(self.singulars)

    @property
    def m_tilde(self):
        return len(self.branches)


class ValidationResult:
    def __init__(self, ok, invariant="", message="", ids=()):
        self.ok, self.invariant = ok, invariant
        self.message, self.ids = message, ids

    def to_json(self):
        if self.ok:
            return {"ok": True}
        return {"ok": False, "invariant": self.invariant,
                "message": self.message, "ids": list(self.ids)}


def _fail(invariant, message, ids=()):
    return ValidationResult(False, invariant, message, tuple(ids))


class Incidence:
    """The incidence graph of a valid configuration over integer slots,
    as ``check_incidence`` leaves it: the components are slots
    ``0..n-1`` and the singular pieces ``n..n+m-1``, and a branch is
    known by its position in ``branches``."""

    __slots__ = ("ends", "over", "extra")

    def __init__(self, ends, over, extra):
        self.ends = ends     # branch -> (component slot, singular slot)
        self.over = over     # piece j -> its branches, in declaration order
        self.extra = extra   # the branches off the spanning tree, in order


def validate(cfg):
    """Check every structural invariant; report the first violation.

    A configuration that carries its ``Incidence`` record has been
    checked and is valid, so nothing is resolved again.  Otherwise
    ``_resolve`` checks the ids, the component count, the references
    and the map ends, and ``check_incidence`` the rest; on success the
    record is left on the configuration.
    """
    if cfg._incidence is not None:
        return ValidationResult(True)
    ends, failure = _resolve(cfg)
    if failure is not None:
        return failure
    return check_incidence(cfg, ends)


def _resolve(cfg):
    """The head of ``validate``: ``(ends, None)``, each branch's
    ``(component slot, singular slot)``, or ``(None, failure)``.  The
    parser proves all of it while it reads, so only a configuration
    built in Python needs it."""
    comps, sings, branches = cfg.components, cfg.singulars, cfg.branches
    n = len(comps)
    comp_slot = {c.id: k for k, c in enumerate(comps)}
    sing_slot = {s.id: n + j for j, s in enumerate(sings)}
    if len(comp_slot) < n or len(sing_slot) < len(sings) \
            or len({b.id for b in branches}) < len(branches):
        for name, parts in (("component", comps), ("singular", sings),
                            ("branch", branches)):
            dupes = sorted(i for i, k in Counter(p.id for p in parts).items()
                           if k > 1)
            if dupes:
                return None, _fail("unique-ids", f"duplicate {name} ids",
                                   dupes)

    if n < 1:
        return None, _fail("component-count",
                           "at least one component is required")

    # every reference resolves before any map is checked, so the first
    # map mismatch waits for the end of the pass
    ends, mismatch = [], None
    for b in branches:
        c = comp_slot.get(b.component)
        if c is None:
            return None, _fail("resolve", f"branch {b.id} references "
                               f"unknown component {b.component}", [b.id])
        s = sing_slot.get(b.singular)
        if s is None:
            return None, _fail("resolve", f"branch {b.id} references "
                               f"unknown singular piece {b.singular}",
                               [b.id])
        ends.append((c, s))
        if mismatch is None and not (
                b.psi.source is b.group and b.phi.source is b.group
                and b.psi.target is comps[c].group
                and b.phi.target is sings[s - n].group):
            mismatch = _map_mismatch(b, comps[c].group, sings[s - n].group)
    return (None, mismatch) if mismatch is not None else (ends, None)


def check_incidence(cfg, ends):
    """The tail of ``validate``, given each branch's ``(component slot,
    singular slot)`` in ``ends``: every piece has a branch, every
    component has one when there are two or more, and the incidence
    graph is connected.  On success the configuration's ``Incidence``
    is left on it; a failure leaves none."""
    comps, sings = cfg.components, cfg.singulars
    n = len(comps)
    over, touched = [[] for _ in sings], bytearray(n)
    for k, (c, s) in enumerate(ends):
        over[s - n].append(k)
        touched[c] = 1

    for s, mine in zip(sings, over):
        if not mine:
            return _fail("singular-incidence",
                         f"singular piece {s.id} has no branch", [s.id])

    if n > 1 and not all(touched):
        c = comps[touched.index(0)]
        return _fail("component-incidence",
                     f"component {c.id} has no branch", [c.id])

    size = n + len(sings)
    extra, apart = _forest(size, ends)
    if apart:
        names = [f"c:{c.id}" for c in comps] + [f"s:{s.id}" for s in sings]
        return _fail("connected", "incidence graph is disconnected",
                     [names[v] for v in apart])
    cfg._incidence = Incidence(ends, over, extra)
    return ValidationResult(True)


def _map_mismatch(b, comp_group, sing_group):
    """The ``branch-maps`` failure of the first map of ``b`` that does
    not start at its group or land in its piece's group, or ``None``;
    groups compare by identity first, then by ``==``."""
    for end, group, message in (
            (b.psi.source, b.group, "psi does not start at the branch group"),
            (b.phi.source, b.group, "phi does not start at the branch group"),
            (b.psi.target, comp_group,
             "psi does not land in the component group"),
            (b.phi.target, sing_group,
             "phi does not land in the singular group")):
        if end is not group and end != group:
            return _fail("branch-maps", f"branch {b.id}: {message}", [b.id])
    return None


def _forest(size, ends):
    """Union-find over ``size`` slots joining the two ends of each branch
    in order.  Returns ``(extra, apart)``: the positions of the branches
    whose ends were joined already, each of which closes a cycle, and
    the slots outside slot 0's tree, in order, which are none exactly
    when the graph is connected."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    extra = []
    for k, (c, s) in enumerate(ends):
        x, y = find(c), find(s)
        if x == y:
            extra.append(k)
        else:
            parent[y] = x
    # a connected graph on size vertices spans a tree of size - 1 edges
    if len(ends) - len(extra) >= size - 1:
        return extra, []
    top = find(0)
    return extra, [v for v in range(size) if find(v) != top]


def incidence(cfg):
    """The ``Incidence`` of a valid configuration: the record its
    validation left, or, when there is none, that of a first
    ``validate``; raises ``InputError`` on an invalid configuration."""
    if cfg._incidence is None:
        result = validate(cfg)
        if not result.ok:
            raise InputError(f"invalid configuration ({result.invariant}): "
                             f"{result.message}")
    return cfg._incidence


class Split:
    """One piece of a dévissage walk, over the slots of ``incidence``."""

    __slots__ = ("piece", "comps", "branches", "overlap", "s2", "m_tilde_2")

    def __init__(self, piece, comps, branches, overlap, s2, m_tilde_2):
        self.piece = piece           # the piece's slot
        self.comps = comps           # its patch's component slots
        self.branches = branches     # the positions of the branches over it
        self.overlap = overlap       # the patch's slots among the covered
        self.s2 = s2                 # count of the components before it
        self.m_tilde_2 = m_tilde_2   # branches over the pieces before it


def devissage_splits(cfg, order=None):
    """Walk a dévissage of ``cfg``, first piece first, yielding one
    ``Split`` per piece; slots and positions come in declaration order.

    Without ``order`` the walk takes the greedy order: the first
    declared piece, then each time the earliest declared piece whose
    patch meets the union so far.  A given ``order`` of singular ids is
    checked as it is walked: every patch is a connected star, so a
    prefix has a connected union exactly when each later patch meets
    the union before it.
    """
    inc = incidence(cfg)
    n, ends, over = cfg.n, inc.ends, inc.over
    if order is None:
        if not over:
            raise InputError("a regular configuration admits no ordering")
    else:
        slot = {s.id: j for j, s in enumerate(cfg.singulars)}
        given = [slot.get(sid) for sid in order]
        if len(given) != len(over) or None in given \
                or len(set(given)) < len(given):
            raise InputError("order must be a permutation of the singular ids")
    pieces_at = [[] for _ in range(n)]   # component -> the pieces over it
    for c, s in ends:
        pieces_at[c].append(s - n)
    # the greedy's candidates, the pieces met by the union so far, with
    # the earliest declared on top
    ready, queued = [0], {0}
    covered, s2, m_tilde = bytearray(n), 0, 0
    for r in range(len(over)):
        j = heappop(ready) if order is None else given[r]
        comps = sorted({ends[k][0] for k in over[j]})
        overlap = tuple(c for c in comps if covered[c])
        if r and not overlap:
            raise InputError(f"prefix {list(order[:r + 1])} of the given "
                             "order is disconnected")
        yield Split(n + j, comps, over[j], overlap, s2, m_tilde)
        m_tilde += len(over[j])
        for c in comps:
            if not covered[c]:
                covered[c], s2 = 1, s2 + 1
                for i in pieces_at[c]:
                    if i not in queued:
                        queued.add(i)
                        heappush(ready, i)


def devissage_order(cfg):
    """The ids of the greedy order of ``devissage_splits``."""
    return tuple(cfg.singulars[split.piece - cfg.n].id
                 for split in devissage_splits(cfg))


def free_rank(cfg):
    """``m_tilde - m - n + 1``, cross-checked against the cycle rank of
    the incidence multigraph."""
    rank = len(incidence(cfg).extra)
    assert rank == cfg.m_tilde - cfg.m - cfg.n + 1, \
        "rank formula disagrees with cycle rank"
    return rank
