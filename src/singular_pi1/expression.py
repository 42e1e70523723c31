"""Symbolic expressions describing how a fundamental group was built.

The expression tree mirrors the closure rules of the class of groups
reachable by the machinery: concrete groups of normal pieces (atoms),
finite-rank free groups, coproducts, fibred coproducts, quotients by
relations, and the composite van Kampen node.  Every result the
calculator produces carries such a tree next to the lowered
presentation, and ``closure_witness`` replays which rule admits each
node.
"""

from dataclasses import dataclass

from .errors import InputError
from .groups import GroupSpec


@dataclass
class Atom:
    ref_kind: str            # "component" | "singular"
    ref_id: str
    spec: GroupSpec


@dataclass
class FreeGroupNode:
    rank: int


@dataclass
class CoproductNode:
    children: list


@dataclass
class FiberedCoproductNode:
    base: Atom
    legs: list


@dataclass
class QuotientNode:
    child: object
    pairs: list              # of (word, word) over the child, each lhs = rhs


@dataclass
class VKLegRef:
    group: GroupSpec
    ref_kind: str            # "branch" | "component"
    ref_id: str


@dataclass
class VKNode:
    pi: object
    pi_prime: object
    legs: list               # of VKLegRef


def children_of(expr):
    if isinstance(expr, (Atom, FreeGroupNode)):
        return []
    if isinstance(expr, CoproductNode):
        return list(expr.children)
    if isinstance(expr, FiberedCoproductNode):
        return list(expr.legs)
    if isinstance(expr, QuotientNode):
        return [expr.child]
    if isinstance(expr, VKNode):
        return [expr.pi, expr.pi_prime]
    raise InputError(f"unknown expression node: {expr!r}")


def walk(expr):
    """Pre-order traversal."""
    yield expr
    for child in children_of(expr):
        yield from walk(child)


def assign_ids(expr):
    return {id(node): i for i, node in enumerate(walk(expr))}


# per node type: its kind name and the closure rule that admits it
_KINDS = {
    Atom: ("atom", "etale-fundamental-group-of-normal-scheme"),
    FreeGroupNode: ("free", "finite-rank-discrete-free-group"),
    CoproductNode: ("coproduct", "closure-under-coproducts"),
    FiberedCoproductNode: ("fibered_coproduct",
                           "closure-under-fibered-coproducts"),
    QuotientNode: ("quotient", "closure-under-quotients"),
    VKNode: ("vk", "closure-under-fibered-coproducts-and-quotients"),
}


def closure_witness(expr):
    """Per node, the closure rule admitting it into the reachable class."""
    trace = []
    ids = assign_ids(expr)
    for node in walk(expr):
        if type(node) not in _KINDS:
            raise InputError(f"expression node outside the class: {node!r}")
        kind, rule = _KINDS[type(node)]
        trace.append({"node": ids[id(node)], "kind": kind, "rule": rule})
    return trace


def _group_json(spec):
    from .schema import group_to_json
    return group_to_json(spec)


def expression_to_json(expr, ids=None):
    if ids is None:
        ids = assign_ids(expr)
    node_id = ids[id(expr)]
    if isinstance(expr, Atom):
        return {"id": node_id, "type": "atom", "ref": expr.ref_kind,
                "group": _group_json(expr.spec), "ref_id": expr.ref_id}
    if isinstance(expr, FreeGroupNode):
        return {"id": node_id, "type": "free", "rank": expr.rank}
    if isinstance(expr, CoproductNode):
        return {"id": node_id, "type": "coproduct",
                "children": [expression_to_json(c, ids) for c in expr.children]}
    if isinstance(expr, FiberedCoproductNode):
        return {"id": node_id, "type": "fibered_coproduct",
                "base": {"ref": expr.base.ref_kind, "ref_id": expr.base.ref_id,
                         "group": _group_json(expr.base.spec)},
                "legs": [expression_to_json(c, ids) for c in expr.legs]}
    if isinstance(expr, QuotientNode):
        return {"id": node_id, "type": "quotient",
                "child": expression_to_json(expr.child, ids),
                "relations": len(expr.pairs)}
    if isinstance(expr, VKNode):
        return {"id": node_id, "type": "vk",
                "pi": expression_to_json(expr.pi, ids),
                "pi_prime": expression_to_json(expr.pi_prime, ids),
                "legs": [{"ref": leg.ref_kind, "ref_id": leg.ref_id,
                          "group": _group_json(leg.group)}
                         for leg in expr.legs]}
    raise InputError(f"unknown expression node: {expr!r}")
