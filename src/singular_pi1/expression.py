"""Symbolic expressions describing how a fundamental group was built.

An expression is an append-only table of nodes.  A node's id is its
position in the table, the nodes it is built from come before it, and
the root is the last node.  A node is a dict with its ``type`` and its
fields:

* ``atom``: the group of a normal piece, with the piece's ``ref`` kind
  (``"component"`` or ``"singular"``), ``ref_id`` and ``group``;
* ``free``: a free group of ``rank``;
* ``coproduct``: the free product of ``children``;
* ``fibered_coproduct``: the ``legs`` amalgamated over the group of the
  piece ``base``;
* ``quotient``: ``child`` modulo ``relations`` relations;
* ``vk``: the van Kampen gluing of ``pi`` and ``pi_prime`` along
  ``legs``, the pieces they share.

These mirror the closure rules of the class of groups reachable by the
machinery.  A node that a step of the construction produced also
carries that step: its ``theorem`` names the step and its ``inputs``
the pieces and numbers it read.  Every result the calculator produces
carries such a table next to the lowered presentation.
"""


def add_node(nodes, type, **fields):
    """Append a node to the table ``nodes`` and return its id."""
    nodes.append({"type": type, **fields})
    return len(nodes) - 1


def piece(ref, ref_id, group):
    """The fields naming a piece of the configuration and its group."""
    return {"ref": ref, "ref_id": ref_id, "group": group}

