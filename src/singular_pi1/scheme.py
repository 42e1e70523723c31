"""The combinatorial model of a singular scheme.

A ``SchemeConfig`` records the normalisation's components, the
connected components of the singular locus, and the branches lying over
them, together with the groups attached to each piece and the two
attaching homomorphisms per branch.  Everything downstream (assembly of
the fundamental group, the cover oracle, the planning command) consumes
this structure; the geometry it abstracts is the input of record and is
never recomputed.

The incidence multigraph has the components and singular pieces as
vertices and one edge per branch.  Splitting happens along the patches
``build_patch(cfg, j)``: the union of components meeting singular piece
``j`` with the other singular pieces removed.  ``devissage_splits`` is
the one walk over a dévissage order: first piece first, it gives each
patch and its overlap with the union of the patches before it, from one
grouping of the branches by piece and one set of covered components;
it builds nothing but the patches, and counts the covered components
without listing them.

A configuration is validated once, where it enters: each public entry
that takes one (``devissage_order``, ``check_order``, ``free_rank``,
``pi1.pi1_graph_of_groups``, ``oracle.IncidenceGraph``) calls
``ensure_valid``, and nothing downstream of an entry validates again.
On the command line that makes one ``validate`` call per command:
``validate`` calls it itself, ``present`` in its route's entry
(``pi1_graph_of_groups``, or ``devissage_order`` inside
``pi1_devissage``), ``verify`` in ``IncidenceGraph``, whose check also
covers the presentation it compares against, ``plan`` in
``devissage_order`` and ``rank`` in ``free_rank``.
"""

from collections import Counter

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
        self.components, self.singulars = components, singulars
        self.branches = branches

    @property
    def n(self):
        return len(self.components)

    @property
    def m(self):
        return len(self.singulars)

    @property
    def m_tilde(self):
        return len(self.branches)

    def singular(self, sid):
        for s in self.singulars:
            if s.id == sid:
                return s
        raise InputError(f"unknown singular id: {sid!r}")


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


def validate(cfg):
    """Check every structural invariant; report the first violation."""
    comp_ids = [c.id for c in cfg.components]
    sing_ids = [s.id for s in cfg.singulars]
    branch_ids = [b.id for b in cfg.branches]
    for name, ids in (("component", comp_ids), ("singular", sing_ids),
                      ("branch", branch_ids)):
        dupes = sorted(i for i, k in Counter(ids).items() if k > 1)
        if dupes:
            return _fail("unique-ids", f"duplicate {name} ids", dupes)

    if cfg.n < 1:
        return _fail("component-count", "at least one component is required")

    comp_group = {c.id: c.group for c in cfg.components}
    sing_group = {s.id: s.group for s in cfg.singulars}
    for b in cfg.branches:
        if b.component not in comp_group:
            return _fail("resolve", f"branch {b.id} references unknown "
                         f"component {b.component}", [b.id])
        if b.singular not in sing_group:
            return _fail("resolve", f"branch {b.id} references unknown "
                         f"singular piece {b.singular}", [b.id])

    for b in cfg.branches:
        if b.psi.source != b.group:
            return _fail("branch-maps", f"branch {b.id}: psi does not start "
                         "at the branch group", [b.id])
        if b.phi.source != b.group:
            return _fail("branch-maps", f"branch {b.id}: phi does not start "
                         "at the branch group", [b.id])
        if b.psi.target != comp_group[b.component]:
            return _fail("branch-maps", f"branch {b.id}: psi does not land "
                         "in the component group", [b.id])
        if b.phi.target != sing_group[b.singular]:
            return _fail("branch-maps", f"branch {b.id}: phi does not land "
                         "in the singular group", [b.id])

    touched_sing = {b.singular for b in cfg.branches}
    for s in cfg.singulars:
        if s.id not in touched_sing:
            return _fail("singular-incidence",
                         f"singular piece {s.id} has no branch", [s.id])

    if cfg.n > 1:
        touched_comp = {b.component for b in cfg.branches}
        for c in cfg.components:
            if c.id not in touched_comp:
                return _fail("component-incidence",
                             f"component {c.id} has no branch", [c.id])

    if not (cfg.n == 1 and cfg.m == 0):
        ok, isolated = _connected(cfg)
        if not ok:
            return _fail("connected", "incidence graph is disconnected",
                         isolated)
    return ValidationResult(True)


def spanning_tree(cfg):
    """Union-find over the incidence graph, branches in declared order.

    The vertices are integer slots: ``0..n-1`` the components and
    ``n..n+m-1`` the singular pieces, each in declaration order.
    Returns ``(root, extra)``: the list of each slot's root, and the
    branches off the spanning forest, each of which closes a cycle.
    """
    slot = {c.id: k for k, c in enumerate(cfg.components)}
    n = len(slot)
    sing_slot = {s.id: n + k for k, s in enumerate(cfg.singulars)}
    parent = list(range(n + len(sing_slot)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    extra = []
    for b in cfg.branches:
        a = find(slot[b.component])
        c = find(sing_slot[b.singular])
        if a == c:
            extra.append(b)
        else:
            parent[c] = a
    return [find(v) for v in range(len(parent))], extra


def _connected(cfg):
    root, _ = spanning_tree(cfg)
    if len(set(root)) <= 1:
        return True, ()
    names = [f"c:{c.id}" for c in cfg.components] \
        + [f"s:{s.id}" for s in cfg.singulars]
    return False, tuple(name for name, r in zip(names, root) if r != root[0])


def ensure_valid(cfg):
    result = validate(cfg)
    if not result.ok:
        raise InputError(f"invalid configuration ({result.invariant}): "
                         f"{result.message}")
    return cfg


def build_patch(cfg, singular_id):
    """Components meeting the given singular piece, that piece alone, and
    its branches."""
    if cfg.m < 1:
        raise InputError("a regular configuration has no patches")
    sing = cfg.singular(singular_id)
    comps, branches = _patch_components(cfg)[singular_id]
    return SchemeConfig(comps, [sing], branches)


def _patch_components(cfg):
    """Singular id -> the components and the branches of its patch, each
    in declaration order."""
    position = {c.id: k for k, c in enumerate(cfg.components)}
    meets = {s.id: set() for s in cfg.singulars}
    over = {s.id: [] for s in cfg.singulars}
    for b in cfg.branches:
        meets[b.singular].add(position[b.component])
        over[b.singular].append(b)
    return {sid: ([cfg.components[k] for k in sorted(meets[sid])], over[sid])
            for sid in meets}


def devissage_order(cfg):
    """A singular-piece order whose patch-union prefixes are connected.

    Greedy: start from the first declared piece, then repeatedly take
    the earliest declared piece whose patch shares a component with the
    union built so far.
    """
    ensure_valid(cfg)
    if cfg.m < 1:
        raise InputError("a regular configuration admits no ordering")
    patches = _patch_components(cfg)
    remaining = [s.id for s in cfg.singulars]
    order = [remaining.pop(0)]
    covered = set(patches[order[0]][0])
    while remaining:
        pick = None
        for sid in remaining:
            if not covered.isdisjoint(patches[sid][0]):
                pick = sid
                break
        if pick is None:
            raise InputError("incidence graph is disconnected")
        remaining.remove(pick)
        order.append(pick)
        covered.update(patches[pick][0])
    return _connected_prefixes(patches, order)


def check_order(cfg, order):
    """Validate a caller-chosen dévissage order."""
    ensure_valid(cfg)
    if sorted(order) != sorted(s.id for s in cfg.singulars):
        raise InputError("order must be a permutation of the singular ids")
    return _connected_prefixes(_patch_components(cfg), order)


def _connected_prefixes(patches, order):
    """Every patch is a connected star, so a prefix of patches has a
    connected union exactly when each patch meets a component of the
    patches before it."""
    covered = set()
    for r, sid in enumerate(order, start=1):
        comps = patches[sid][0]
        if covered and covered.isdisjoint(comps):
            raise InputError(
                f"prefix {list(order[:r])} of the given order is disconnected")
        covered.update(comps)
    return tuple(order)


class IntersectionReport:
    def __init__(self, S, S1, s2, m_tilde_1, m_tilde_2, d):
        self.S = S                   # components in both sides
        self.S1 = S1                 # components of the patch
        self.s2 = s2                 # count of the components before it
        self.m_tilde_1 = m_tilde_1   # branches over the split piece
        self.m_tilde_2 = m_tilde_2   # branches over the pieces before it
        self.d = d                   # number of overlap pieces


def devissage_splits(cfg, order):
    """Walk a dévissage of ``cfg`` along ``order``, a checked order of its
    singular pieces, first piece first.

    Yields one ``(prefix, patch, report)`` per piece: ``patch`` is the
    patch of the prefix's last piece, and ``report`` its overlap with the
    union of the patches of the pieces before it, or ``None`` for the
    first piece.  Component ids come in declaration order.
    """
    patches = _patch_components(cfg)
    singular = {s.id: s for s in cfg.singulars}
    covered = set()
    m_tilde = 0   # branches over the pieces before
    for r, sid in enumerate(order, start=1):
        comps, branches = patches[sid]
        report = None
        if covered:
            overlap = tuple(c.id for c in comps if c in covered)
            report = IntersectionReport(
                overlap, tuple(c.id for c in comps), len(covered),
                len(branches), m_tilde, len(overlap))
        yield order[:r], SchemeConfig(comps, [singular[sid]], branches), \
            report
        covered.update(comps)
        m_tilde += len(branches)


def free_rank(cfg):
    """``m_tilde - m - n + 1``, cross-checked against the cycle rank of
    the incidence multigraph."""
    ensure_valid(cfg)
    rank = cfg.m_tilde - cfg.m - cfg.n + 1
    _, extra = spanning_tree(cfg)
    assert len(extra) == rank, "rank formula disagrees with cycle rank"
    return rank
