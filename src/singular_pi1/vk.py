"""The van Kampen assembly: gluing two groups along a family of legs.

Given groups ``pi`` and ``pi_prime`` and legs ``(K_i, psi_i, phi_i)``
with ``psi_i: K_i -> pi`` and ``phi_i: K_i -> pi_prime``, the glued
group is built in four equivalent forms, each joined with a free group
of copy shifts ``v_2 .. v_s`` (``v_1 = e``):

i   one copy of each side, with the relations
    ``psi_i(a) = v_i^-1 phi_i(a) v_i``;
ii  one copy of ``pi`` and ``s`` copies of ``pi_prime``, with the
    relations ``psi_i(a) = [phi_i(a)]_i``, the copies identified with
    the first through the shifts;
iii the amalgam of ``pi`` and ``pi_prime`` over the first leg, joined
    with the remaining legs' conjugation relations;
iv  the amalgam of all ``s`` leg pushouts over the shared copy of
    ``pi``, with the copies of ``pi_prime`` identified as in form ii.

``vk_glue`` builds each form in place: ``pi`` already sits in a growing
generator list and relator list and stays where it is, and ``pi_prime``
is appended with its copies, the shift letters and the leg relations.
So a glue costs the size of ``pi_prime``, times ``s`` in forms ii and
iv, and appends no copy of ``pi``.  The amalgam of form iii over the
first leg imposes ``psi_1(a) = phi_1(a)``, which is form i's first-leg
relation since ``v_1 = e``, so forms i and iii append the same
relators.  Every leg pushout of form iv maps into the one copy of
``pi``, so form iv presents the amalgam over it with that copy, and
forms ii and iv append the same relators.

The copies of ``pi_prime`` are identified from the first copy only:
``v_j^-1 [y]_1 v_j = [y]_j`` for ``j = 2 .. s`` and each generator
``y``.  The relation between copies ``i`` and ``j`` through
``v_i^-1 v_j`` follows from these two.

All four must have equal hom counts at every degree.  The tests check
that, together with the explicit mutually inverse generator maps
between forms i and ii (``check_vk_forms`` in ``tests/support.py``).
"""

from .errors import InputError
from .presentation import append, cyclic_relators
from .words import inverse, reduce, shift

FORMS = ("i", "ii", "iii", "iv")


def vk_glue(gens, rels, offset, right, leg_pairs, form, tag):
    """Glue ``right`` onto ``pi`` in place, in the given form.

    ``pi`` is the group on the generators of ``gens`` from ``offset``
    on, and the relators of ``rels`` over them; it stays where it is.
    ``leg_pairs[i]`` lists ``(word over pi, word over right)`` images of
    the generators of the ``i``-th gluing group; relations are imposed
    on those generators only.  Everything appended is named in the
    namespace ``tag`` (none when it is empty): the copies of ``right``
    under ``R`` (``R1 .. Rs`` when there are ``s``) and the shifts as
    ``S.v2 .. S.vs``.  Returns the offsets of the copies of ``right``
    and of the shifts.
    """
    if form not in FORMS:
        raise InputError(f"unknown form {form!r}; expected one of {FORMS}")
    s = len(leg_pairs)
    if s < 1:
        raise InputError("the number of legs must be at least 1")
    ns = f"{tag}." if tag else ""
    copies = s if form in ("ii", "iv") else 1
    rights = [append(gens, rels, right,
                     f"{ns}R{i}" if copies > 1 else f"{ns}R")
              for i in range(1, copies + 1)]
    o_shift = len(gens)
    gens.extend(f"{ns}S.v{j}" for j in range(2, s + 1))
    v = [()] + [((o_shift + j, 1),) for j in range(s - 1)]   # v_1 = e

    if form in ("i", "iii"):
        pairs = [(shift(pw, offset),
                  reduce(inverse(v[i]) + shift(fw, rights[0]) + v[i]))
                 for i, pairs_i in enumerate(leg_pairs)
                 for pw, fw in pairs_i]
    else:
        # leg i maps into copy i of right, which is copy 1 conjugated by
        # v_i
        pairs = [(shift(pw, offset), shift(fw, rights[i]))
                 for i, pairs_i in enumerate(leg_pairs)
                 for pw, fw in pairs_i]
        pairs += [(inverse(v[j]) + ((rights[0] + y, 1),) + v[j],
                   ((rights[j] + y, 1),))
                  for j in range(1, s) for y in range(len(right.generators))]
    rels.extend(cyclic_relators(reduce(lhs + inverse(rhs))
                                for lhs, rhs in pairs))
    return rights, o_shift
