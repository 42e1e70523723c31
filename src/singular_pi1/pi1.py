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
the result along their overlap, walking the splits of
``scheme.devissage_splits``.  Its expression tree nests one van Kampen
node per singular piece.

Each route validates once at its entry and simplifies once at the end.
Results carry the raw lowered presentation, its simplification, an
expression tree, the derivation trace, and the locations of every
component group's generators inside the raw presentation.
"""

from dataclasses import dataclass, field

from .expression import (Atom, CoproductNode, FiberedCoproductNode,
                         FreeGroupNode, QuotientNode, VKLegRef, VKNode,
                         closure_witness)
from .presentation import (free_presentation, free_product_with_maps,
                           quotient_by_relations, retag, tietze_simplify)
from .scheme import (check_order, devissage_order, devissage_splits,
                     ensure_valid, spanning_tree)
from .vk import vk_assemble
from .words import Word, rename


@dataclass
class DerivationStep:
    rule: str
    node: object             # expression node this step produced
    inputs: dict

    def to_json(self, ids):
        return {"theorem": self.rule, "node": ids.get(id(self.node)),
                "inputs": self.inputs}


@dataclass
class Pi1Result:
    expression: object
    presentation: object           # tietze-simplified lowering
    raw_presentation: object       # lowering before simplification
    derivation: list
    component_images: dict = field(default_factory=dict)


def _branch_leg_pairs(branch):
    src = branch.group.canonical_presentation
    return [(branch.psi.images[g], branch.phi.images[g])
            for g in src.generators]


def _simplified(result):
    result.presentation = tietze_simplify(result.raw_presentation)
    return result


def pi1_graph_of_groups(cfg):
    """The fundamental group of the graph of groups on the incidence graph.

    Generators are those of every component's and singular piece's
    group, and one stable letter ``t_b`` per branch off a spanning tree;
    the relations are ``psi_b(a) = t_b phi_b(a) t_b^-1`` for every
    branch ``b`` and generator ``a`` of its group, with ``t_b = 1`` on
    the tree.
    """
    ensure_valid(cfg)
    _, stable = spanning_tree(cfg)
    rank = len(stable)
    assert rank == cfg.m_tilde - cfg.m - cfg.n + 1, \
        "stable letters disagree with the free rank"
    vertices = [("component", c) for c in cfg.components] \
        + [("singular", s) for s in cfg.singulars]
    free = free_presentation(rank, prefix="f")
    tags = [f"c{i + 1}" for i in range(cfg.n)] \
        + [f"s{j + 1}" for j in range(cfg.m)] + ["free"]
    prod, maps = free_product_with_maps(
        [v.group.canonical_presentation for _, v in vertices] + [free], tags)
    comp_maps = {c.id: maps[i] for i, c in enumerate(cfg.components)}
    sing_maps = {s.id: maps[cfg.n + j] for j, s in enumerate(cfg.singulars)}
    stable_letter = {b.id: Word.gen(maps[-1][f])
                     for b, f in zip(stable, free.generators)}

    pairs = []
    for b in cfg.branches:
        t = stable_letter.get(b.id, Word.identity())
        for psi_word, phi_word in _branch_leg_pairs(b):
            pairs.append((rename(psi_word, comp_maps[b.component]),
                          t * rename(phi_word, sing_maps[b.singular])
                          * t.inverse()))
    raw = quotient_by_relations(prod, pairs)

    children = [Atom(kind, v.id, v.group) for kind, v in vertices
                if v.group.order > 1]
    if rank > 0:
        children.append(FreeGroupNode(rank))
    if not children:
        expr = FreeGroupNode(0)
    elif len(children) == 1:
        expr = children[0]
    else:
        expr = CoproductNode(children)
    if pairs:
        expr = QuotientNode(expr, pairs)
    steps = [DerivationStep(
        "graph-of-groups", expr,
        {"n": cfg.n, "m": cfg.m, "m_tilde": cfg.m_tilde, "rank": rank,
         "stable_branches": [b.id for b in stable]})]
    return _simplified(Pi1Result(expr, None, raw, steps, comp_maps))


def _connected_singular(cfg, form):
    sing = cfg.singulars[0]
    sing_pres = sing.group.canonical_presentation

    assemblies = []
    vknodes = []
    steps = []
    for comp in cfg.components:
        branches = [b for b in cfg.branches if b.component == comp.id]
        leg_pairs = [_branch_leg_pairs(b) for b in branches]
        asm = vk_assemble(comp.group.canonical_presentation, sing_pres,
                          leg_pairs, form)
        node = VKNode(Atom("component", comp.id, comp.group),
                      Atom("singular", sing.id, sing.group),
                      [VKLegRef(b.group, "branch", b.id) for b in branches])
        assemblies.append(asm)
        vknodes.append(node)
        steps.append(DerivationStep(
            "vk-connected-singular", node,
            {"component": comp.id, "singular": sing.id,
             "branches": [b.id for b in branches], "form": form}))

    if cfg.n == 1:
        asm = assemblies[0]
        raw = asm.presentation
        images = {cfg.components[0].id: dict(asm.left_map)}
        expr = vknodes[0]
    else:
        prod, maps = free_product_with_maps(
            [a.presentation for a in assemblies])
        pairs = []
        first = assemblies[0]
        for y in sing_pres.generators:
            anchor = Word.gen(maps[0][first.right_map[y]])
            for i in range(1, cfg.n):
                other = Word.gen(maps[i][assemblies[i].right_map[y]])
                pairs.append((anchor, other))
        raw = quotient_by_relations(prod, pairs)
        images = {}
        for i, comp in enumerate(cfg.components):
            asm = assemblies[i]
            images[comp.id] = {g: maps[i][s] for g, s in asm.left_map.items()}
        expr = FiberedCoproductNode(Atom("singular", sing.id, sing.group),
                                    vknodes)
        steps.append(DerivationStep(
            "amalgamate-singular-copies", expr,
            {"singular": sing.id, "copies": cfg.n}))

    return Pi1Result(expr, None, raw, steps, images)


def pi1_devissage(cfg, form="i", order=None):
    """The fundamental group of any valid configuration by dévissage
    along ``order`` (by default ``devissage_order``)."""
    if cfg.m:
        # both validate the configuration before looking at the order
        order = devissage_order(cfg) if order is None \
            else check_order(cfg, order)
    else:
        ensure_valid(cfg)
    return _simplified(_devissage(cfg, form, order))


def _devissage(cfg, form, order):
    """``pi1_devissage`` of a valid configuration along a checked order,
    unsimplified: the first piece's patch, then each later patch glued
    onto the union of the patches before it."""
    if cfg.m == 0:
        comp = cfg.components[0]
        raw, mapping = retag(comp.group.canonical_presentation, "c1")
        expr = Atom("component", comp.id, comp.group)
        steps = [DerivationStep("normal-component", expr,
                                {"component": comp.id})]
        return Pi1Result(expr, None, raw, steps, {comp.id: mapping})

    splits = list(devissage_splits(cfg, order))
    # the last split's complement is the first piece's patch
    result = _connected_singular(splits[-1][3] if splits else cfg, form)
    for scope, prefix, patch, complement, report in reversed(splits):
        left = _connected_singular(patch, form)
        leg_pairs = []
        leg_refs = []
        for cid in report.S:
            group = scope.component(cid).group
            gens = group.canonical_presentation.generators
            pairs = [(Word.gen(left.component_images[cid][g]),
                      Word.gen(result.component_images[cid][g]))
                     for g in gens]
            leg_pairs.append(pairs)
            leg_refs.append(VKLegRef(group, "component", cid))

        asm = vk_assemble(left.raw_presentation, result.raw_presentation,
                          leg_pairs, form)

        images = {}
        for comp in complement.components:
            images[comp.id] = {
                g: asm.right_map[s]
                for g, s in result.component_images[comp.id].items()}
        for comp in patch.components:
            # overlap components resolve to the patch-side copy
            images[comp.id] = {
                g: asm.left_map[s]
                for g, s in left.component_images[comp.id].items()}

        expr = VKNode(left.expression, result.expression, leg_refs)
        step = DerivationStep(
            "devissage-split", expr,
            {"anchor": prefix[-1], "order": list(prefix),
             "overlap": list(report.S),
             "m_tilde_1": report.m_tilde_1, "m_tilde_2": report.m_tilde_2,
             "form": form})
        steps = left.derivation + result.derivation + [step]
        result = Pi1Result(expr, None, asm.presentation, steps, images)
    return result


def class_witness(result: Pi1Result):
    """Replay which closure rule admits each node of the result's tree."""
    return closure_witness(result.expression)
