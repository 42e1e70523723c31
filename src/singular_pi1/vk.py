"""The van Kampen assembly: gluing two groups along a family of legs.

Given groups ``pi`` and ``pi_prime`` and legs ``(K_i, psi_i, phi_i)``
with ``psi_i: K_i -> pi`` and ``phi_i: K_i -> pi_prime``, the glued
group is built in four equivalent forms:

i   one copy of each side plus a free group of copy shifts, with the
    relations ``psi_i(a) = v_i^-1 phi_i(a) v_i`` (``v_1 = e``);
ii  one copy of ``pi`` and ``s`` copies of ``pi_prime`` whose copies
    are conjugation-identified through the shifts, with relations
    ``psi_i(a) = [phi_i(a)]_i``;
iii the amalgam of ``pi`` and ``pi_prime`` over the first leg, joined
    with the shifts and the remaining legs' conjugation relations;
iv  the amalgam of all ``s`` leg pushouts over the shared copy of
    ``pi``, joined with the shifts and copy-shift relations on the
    ``pi_prime`` images.

``vk_glue`` builds each form in place: ``pi`` already sits in a growing
generator list and relator list and stays where it is, and ``pi_prime``
is appended with its copies, the shift letters and the leg relations.
So a glue costs the size of ``pi_prime`` (times ``s`` in forms ii and
iv), except that form iv appends ``s - 1`` more copies of ``pi``.  The
amalgam of form iii over the first leg imposes ``psi_1(a) = phi_1(a)``,
which is form i's first-leg relation since ``v_1 = e``, so forms i and
iii append the same relators.

All four must have equal hom counts at every degree.  The tests check
that, together with the explicit mutually inverse generator maps
between forms i and ii (``check_vk_forms`` in ``tests/support.py``).
"""

from .errors import InputError
from .presentation import Presentation, append, cyclic_relators
from .words import inverse, reduce, shift

FORMS = ("i", "ii", "iii", "iv")


def shift_free_group(s):
    """Free group of copy shifts ``v2 .. vs`` (the first shift is trivial)."""
    if s < 1:
        raise InputError("the number of legs must be at least 1")
    return Presentation._trusted([f"v{j}" for j in range(2, s + 1)], ())


def copy_shift(i, j, s):
    """The word moving markers from copy ``i`` to copy ``j``.

    Equals ``v_i^-1 * v_j`` with ``v_1`` the identity, over the
    generators of ``shift_free_group(s)`` (``v_j`` is generator
    ``j - 2``); satisfies the shift identities ``u_ii = e`` and
    ``u_ij u_jk = u_ik``.
    """
    if not (1 <= i <= s and 1 <= j <= s):
        raise InputError(f"copy index out of range for s={s}: ({i}, {j})")
    w = ()
    if i != 1:
        w += ((i - 2, -1),)
    if j != 1:
        w += ((j - 2, 1),)
    return reduce(w)


class VKAssembly:
    """An assembled presentation plus the offsets of its ingredients:
    generator ``x`` of ``pi`` is ``left_offset + x``, generator ``y`` of
    copy ``i`` of ``pi_prime`` is ``right_copy_offsets[i - 1] + y``, and
    ``v_j`` is ``shift_offset + j - 2``."""

    def __init__(self, presentation, left_offset, right_copy_offsets,
                 shift_offset):
        self.presentation = presentation
        self.left_offset = left_offset
        self.right_copy_offsets = right_copy_offsets
        self.right_offset = right_copy_offsets[0]
        self.shift_offset = shift_offset

    def conjugated_by_shift(self, i, word):
        """``u_1i^-1 * word * u_1i`` inside the assembled presentation."""
        if i == 1:
            return word
        v = ((self.shift_offset + i - 2, 1),)
        return reduce(inverse(v) + word + v)


def _copy_relations(s, right, copy_offsets, shift_offset):
    """``u_ij^-1 [y]_i u_ij = [y]_j`` for every pair of copies of
    ``right`` and each of its generators ``y``."""
    pairs = []
    for i in range(1, s + 1):
        for j in range(1, s + 1):
            u = shift(copy_shift(i, j, s), shift_offset)
            for y in range(len(right.generators)):
                lhs = reduce(inverse(u) + ((copy_offsets[i - 1] + y, 1),) + u)
                pairs.append((lhs, ((copy_offsets[j - 1] + y, 1),)))
    return pairs


def vk_glue(gens, rels, start, right, leg_pairs, form, tag):
    """Glue ``right`` onto ``pi`` in place, in the given form.

    ``pi`` is the group that ``gens`` and ``rels`` present from
    ``start = (first generator, first relator)`` on; it stays where it
    is.  ``leg_pairs[i]`` lists ``(word over pi, word over right)``
    images of the generators of the ``i``-th gluing group; relations are
    imposed on those generators only.  Everything appended is named in
    the namespace ``tag`` (none when it is empty): the copies of
    ``right`` under ``R`` (``R1 .. Rs`` when there are ``s``), the
    shifts under ``S`` and, in form iv, copy ``i`` of ``pi`` as
    ``Li.x1, Li.x2, ...``.  Returns the offsets of the copies of
    ``right`` and of the shifts.
    """
    if form not in FORMS:
        raise InputError(f"unknown form {form!r}; expected one of {FORMS}")
    s = len(leg_pairs)
    shifts = shift_free_group(s)
    ns = f"{tag}." if tag else ""
    g0, r0 = start
    n_left = len(gens) - g0
    lefts = [g0] * s   # the copy of pi that leg i maps into
    if form == "iv" and s > 1:
        left = Presentation._trusted([f"x{k + 1}" for k in range(n_left)],
                                     [shift(r, -g0) for r in rels[r0:]])
        lefts[1:] = [append(gens, rels, left, f"{ns}L{i}")
                     for i in range(2, s + 1)]
    copies = s if form in ("ii", "iv") else 1
    rights = [append(gens, rels, right,
                     f"{ns}R{i}" if copies > 1 else f"{ns}R")
              for i in range(1, copies + 1)]
    o_shift = append(gens, rels, shifts, f"{ns}S")

    if form in ("i", "iii"):
        v = [()] + [((o_shift + j, 1),) for j in range(s - 1)]   # v_1 = e
        pairs = [(shift(pw, g0),
                  reduce(inverse(v[i]) + shift(fw, rights[0]) + v[i]))
                 for i, pairs_i in enumerate(leg_pairs)
                 for pw, fw in pairs_i]
    else:
        # leg i maps into copy i of right, and in form iv into copy i of
        # pi, which the amalgam identifies with the first
        pairs = [(shift(pw, lefts[i]), shift(fw, rights[i]))
                 for i, pairs_i in enumerate(leg_pairs)
                 for pw, fw in pairs_i]
        pairs += [(((g0 + x, 1),), ((o + x, 1),))
                  for o in lefts[1:] if o != g0 for x in range(n_left)]
        pairs += _copy_relations(s, right, rights, o_shift)
    rels.extend(cyclic_relators(reduce(lhs + inverse(rhs))
                                for lhs, rhs in pairs))
    return rights, o_shift


def vk_assemble(left, right, leg_pairs, form="i"):
    """Assemble the glued group of two presentations along word-pair legs:
    ``left``, named ``L.x``, with ``right`` glued onto it by ``vk_glue``.

    ``leg_pairs[i]`` lists ``(word over left, word over right)`` images
    of the generators of the ``i``-th gluing group.
    """
    gens, rels = [], []
    append(gens, rels, left, "L")
    rights, o_shift = vk_glue(gens, rels, (0, 0), right, leg_pairs, form, "")
    return VKAssembly(Presentation._trusted(gens, rels), 0, rights, o_shift)
