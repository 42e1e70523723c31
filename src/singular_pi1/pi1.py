"""Assembly of the fundamental-group presentation of a configuration.

``pi1_graph_of_groups``, the default route, presents the fundamental
group of the graph of groups on the incidence graph (Serre, *Trees*,
§I.5) in one pass over a spanning tree.  With trivial singular and
branch groups this is the closed form: the coproduct of the component
groups with a free group of the cycle rank.  The paper's van Kampen
route, ``pi1_devissage``, is kept as the reference it is checked
against.  It starts from the patch of the first piece of a dévissage
order, one glued group per component over that piece amalgamated over
the shared copy of the piece's group, and glues each later patch onto
the result along their overlap, in one forward walk of
``scheme.devissage_splits``, which chooses or checks the order as it
goes.  The walk gives each piece's patch and overlap as slots of the
configuration's ``scheme.incidence``, and the generators of a component
are found by its slot.  The result is one growing presentation:
each glue appends the patch of the ``r``-th piece, named under ``p{r}``,
and leaves what is built where it is (``vk.vk_glue``), so no generator
is copied or renamed again.  An overlap component keeps its generators
in the union.  Its expression has one van Kampen node per singular
piece.

Each route reads the configuration's ``scheme.incidence`` and simplifies
once at the end.  Results carry the raw lowered presentation, its
simplification and the expression's node table.  A node that a step of
the construction produced records that step in its ``theorem`` and
``inputs`` fields: the default route's root, and on the dévissage each
van Kampen and fibered-coproduct node, or the one atom of a regular
configuration.  The dévissage appends to one node table as it goes, as
to its presentation; a part of the result is known by its root node id.
"""

from .expression import add_node, piece
from .presentation import (Presentation, append, cyclic_relators,
                           tietze_simplify)
from .scheme import devissage_splits, free_rank, incidence
from .vk import vk_glue
from .words import inverse, reduce, shift


class Pi1Result:
    def __init__(self, expression, presentation, raw_presentation):
        self.expression = expression   # node table, see ``expression``
        self.presentation = presentation   # tietze-simplified lowering
        self.raw_presentation = raw_presentation   # before simplification


def pi1_graph_of_groups(cfg):
    """The fundamental group of the graph of groups on the incidence graph.

    Generators are those of every component's and singular piece's
    group, and one stable letter ``t_b`` per branch off a spanning tree;
    the relations are ``psi_b(a) = t_b phi_b(a) t_b^-1`` for every
    branch ``b`` and generator ``a`` of its group, with ``t_b = 1`` on
    the tree.  On the tree the group is the colimit of the vertex
    groups, so a tree leg whose two images are single generators to the
    same exponent, 1 or -1, identifies those generators: it merges them
    into the one declared first (a component's before a piece's) and
    adds no relator.  Every other leg is a relator.

    It is read off the configuration's ``scheme.Incidence``: a piece is
    known by its slot and a branch by its position, and the stable
    letters are the branches off the record's spanning forest.  Only a
    piece whose presentation has a generator is copied, and a branch
    whose group has none adds no leg.  Equal relators are kept once, the
    first.
    """
    inc, rank = incidence(cfg), free_rank(cfg)
    n = cfg.n
    vertices = [*cfg.components, *cfg.singulars]   # in slot order
    # the generators of the free product, block by block
    names, words = [], []
    offsets = []   # piece slot -> offset of its generators
    for k, v in enumerate(vertices):
        p = v.group.canonical_presentation
        offsets.append(len(names))
        if p.generators:
            append(names, words, p, f"c{k + 1}" if k < n else f"s{k - n + 1}")
    stable_letter = {b: ((len(names) + r, 1),)
                     for r, b in enumerate(inc.extra)}
    names.extend(f"free.f{r + 1}" for r in range(rank))

    # classes of merged generators, each named by its lowest position
    parent = list(range(len(names)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    legs = 0
    for k, b in enumerate(cfg.branches):
        if not b.psi.images:
            continue
        t = stable_letter.get(k)
        c, s = inc.ends[k]
        c, s = offsets[c], offsets[s]
        for psi_word, phi_word in zip(b.psi.images, b.phi.images):
            legs += 1
            if t is None and len(psi_word) == len(phi_word) == 1 \
                    and psi_word[0][1] == phi_word[0][1] in (1, -1):
                x, y = find(c + psi_word[0][0]), find(s + phi_word[0][0])
                parent[max(x, y)] = min(x, y)
                continue
            rhs = shift(inverse(phi_word), s)
            if t is not None:
                rhs = t + rhs + inverse(t)
            words.append(shift(psi_word, c) + rhs)
    kept = [g for g in range(len(names)) if find(g) == g]
    number = dict(zip(kept, range(len(kept))))
    slot = [number[find(g)] for g in range(len(names))]
    raw = Presentation._trusted(
        [names[g] for g in kept],
        tuple(dict.fromkeys(cyclic_relators(
            reduce([(slot[g], e) for g, e in w]) for w in words))))

    nodes = []
    children = [add_node(nodes, "atom", **piece(
                    "component" if k < n else "singular", v.id, v.group))
                for k, v in enumerate(vertices) if v.group.order > 1]
    if rank > 0:
        children.append(add_node(nodes, "free", rank=rank))
    if not children:
        root = add_node(nodes, "free", rank=0)
    elif len(children) == 1:
        root = children[0]
    else:
        root = add_node(nodes, "coproduct", children=children)
    if legs:
        root = add_node(nodes, "quotient", child=root, relations=legs)
    # the root may be an existing child, so the step is set on it
    nodes[root].update(theorem="graph-of-groups", inputs={
        "n": cfg.n, "m": cfg.m, "m_tilde": cfg.m_tilde, "rank": rank,
        "stable_branches": [cfg.branches[k].id for k in inc.extra]})
    return Pi1Result(nodes, tietze_simplify(raw), raw)


def _connected_singular(cfg, split, form, nodes):
    """The patch of one piece of a dévissage walk: the root of its
    expression in ``nodes``, its raw presentation and the offset of each
    component's generators in it, keyed by slot.  Each component
    ``c{k}`` of the patch is appended with the piece glued onto it, and
    the copies of the piece's group glued onto different components are
    identified."""
    sing = cfg.singulars[split.piece - cfg.n]
    sing_pres = sing.group.canonical_presentation
    ends = incidence(cfg).ends
    over = {c: [] for c in split.comps}   # component slot -> its branches
    for k in split.branches:
        over[ends[k][0]].append(cfg.branches[k])
    gens, rels = [], []
    images, copies, vknodes = {}, [], []
    for k, (c, branches) in enumerate(over.items(), start=1):
        comp = cfg.components[c]
        images[c] = append(gens, rels, comp.group.canonical_presentation,
                           f"c{k}")
        rights, _ = vk_glue(gens, rels, images[c], sing_pres,
                            [list(zip(b.psi.images, b.phi.images))
                             for b in branches], form,
                            f"c{k}")
        copies.append(rights[0])
        pi = add_node(nodes, "atom",
                      **piece("component", comp.id, comp.group))
        pi_prime = add_node(nodes, "atom",
                            **piece("singular", sing.id, sing.group))
        vknodes.append(add_node(
            nodes, "vk", pi=pi, pi_prime=pi_prime,
            legs=[piece("branch", b.id, b.group) for b in branches],
            theorem="vk-connected-singular",
            inputs={"component": comp.id, "singular": sing.id,
                    "branches": [b.id for b in branches], "form": form}))

    if len(copies) == 1:
        root = vknodes[0]
    else:
        rels.extend(((copies[0] + y, 1), (o + y, -1))
                    for y in range(len(sing_pres.generators))
                    for o in copies[1:])
        root = add_node(nodes, "fibered_coproduct",
                        base=piece("singular", sing.id, sing.group),
                        legs=vknodes, theorem="amalgamate-singular-copies",
                        inputs={"singular": sing.id, "copies": len(copies)})

    return root, Presentation._trusted(gens, rels), images


def pi1_devissage(cfg, form="i", order=None):
    """The fundamental group of any valid configuration by dévissage
    along ``order`` (by default the greedy order of
    ``scheme.devissage_splits``)."""
    nodes = []
    raw = _devissage(cfg, form, order, nodes)
    return Pi1Result(nodes, tietze_simplify(raw), raw)


def _devissage(cfg, form, order, nodes):
    """The raw presentation of ``pi1_devissage`` of a configuration along
    ``order``: the first piece's patch, then each later patch glued onto
    the union of the patches before it in place, under the tag ``p{r}``
    for the ``r``-th piece.  The node table thus names the first piece
    in its first step and each later one as the anchor of its split."""
    gens, rels = [], []
    if not incidence(cfg).over:   # a valid regular configuration
        comp = cfg.components[0]
        append(gens, rels, comp.group.canonical_presentation, "c1")
        add_node(nodes, "atom", **piece("component", comp.id, comp.group),
                 theorem="normal-component", inputs={"component": comp.id})
        return Presentation._trusted(gens, rels)

    images = {}   # component slot -> offset of its generators in the union
    for r, split in enumerate(devissage_splits(cfg, order), start=1):
        part, pres, part_images = _connected_singular(cfg, split, form,
                                                      nodes)
        tag = f"p{r}"
        if r == 1:
            offset = append(gens, rels, pres, tag)
            root = part
        else:
            overlap = [cfg.components[c] for c in split.overlap]
            leg_pairs = [[(((images[c] + g, 1),),
                           ((part_images[c] + g, 1),))
                          for g in range(len(comp.group.canonical_presentation
                                             .generators))]
                         for c, comp in zip(split.overlap, overlap)]
            rights, _ = vk_glue(gens, rels, 0, pres, leg_pairs, form, tag)
            offset = rights[0]
            root = add_node(
                nodes, "vk", pi=root, pi_prime=part,
                legs=[piece("component", c.id, c.group) for c in overlap],
                theorem="devissage-split",
                inputs={"anchor": cfg.singulars[split.piece - cfg.n].id,
                        "overlap": [c.id for c in overlap],
                        "m_tilde_1": len(split.branches),
                        "m_tilde_2": split.m_tilde_2, "form": form})
        # an overlap component keeps its generators in the union, so no
        # shift letter conjugates it at a later split
        for c, o in part_images.items():
            images.setdefault(c, offset + o)
    return Presentation._trusted(gens, rels)
