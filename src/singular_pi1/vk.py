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

All four must have equal hom counts at every degree.  The tests check
that, together with the explicit mutually inverse generator maps
between forms i and ii (``check_vk_forms`` in ``tests/support.py``).
"""

from .errors import InputError
from .presentation import (Presentation, fibered_coproduct, free_product,
                           quotient_by_relations)
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
    copy 1 of ``pi_prime`` is ``right_offset + y``, and ``v_j`` is
    ``shift_offset + j - 2``."""

    def __init__(self, presentation, left_offset, right_offset,
                 shift_offset, right_copy_offsets=None):
        self.presentation = presentation
        self.left_offset = left_offset
        self.right_offset = right_offset
        self.shift_offset = shift_offset
        self.right_copy_offsets = [] if right_copy_offsets is None \
            else right_copy_offsets   # form ii

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


def vk_assemble(left, right, leg_pairs, form="i"):
    """Assemble the glued group of two presentations along word-pair legs.

    ``leg_pairs[i]`` lists ``(word over left, word over right)`` images
    of the generators of the ``i``-th gluing group; relations are
    imposed on those generators only.
    """
    if form not in FORMS:
        raise InputError(f"unknown form {form!r}; expected one of {FORMS}")
    s = len(leg_pairs)
    if s < 1:
        raise InputError("at least one leg is required")
    shifts = shift_free_group(s)

    if form in ("i", "iii"):
        if form == "i":
            prod, (o_left, o_right, o_shift) = free_product(
                [left, right, shifts], tags=("L", "R", "S"))
        else:
            glued, (g_left, g_right) = fibered_coproduct(
                left, right, leg_pairs[0])
            prod, (o_glued, o_shift) = free_product(
                [glued, shifts], tags=("G", "S"))
            o_left, o_right = o_glued + g_left, o_glued + g_right
        asm = VKAssembly(prod, o_left, o_right, o_shift)
        # form iii imposed the first leg's relations in the amalgam
        pairs = [(shift(pw, o_left),
                  asm.conjugated_by_shift(i, shift(fw, o_right)))
                 for i, pairs_i in enumerate(leg_pairs, start=1)
                 if form == "i" or i > 1
                 for pw, fw in pairs_i]
        asm.presentation = quotient_by_relations(prod, pairs)
        return asm

    if form == "ii":
        parts = [left] + [right] * s + [shifts]
        tags = ["L"] + [f"R{i}" for i in range(1, s + 1)] + ["S"]
        prod, offsets = free_product(parts, tags=tags)
        o_left, o_copies, o_shift = offsets[0], offsets[1:-1], offsets[-1]
        pairs = _copy_relations(s, right, o_copies, o_shift)
        for i, pairs_i in enumerate(leg_pairs, start=1):
            for pw, fw in pairs_i:
                pairs.append((shift(pw, o_left), shift(fw, o_copies[i - 1])))
        return VKAssembly(quotient_by_relations(prod, pairs),
                          o_left, o_copies[0], o_shift,
                          right_copy_offsets=list(o_copies))

    # form iv: amalgamate the s leg pushouts over the shared copy of pi
    pushouts = [fibered_coproduct(left, right, pairs_i)
                for pairs_i in leg_pairs]
    parts = [g for g, _ in pushouts] + [shifts]
    tags = [f"G{i}" for i in range(1, s + 1)] + ["S"]
    prod, offsets = free_product(parts, tags=tags)
    o_parts, o_shift = offsets[:-1], offsets[-1]
    o_lefts = [o + g_left for o, (_, (g_left, _)) in zip(o_parts, pushouts)]
    o_rights = [o + g_right
                for o, (_, (_, g_right)) in zip(o_parts, pushouts)]

    pairs = [(((o_lefts[0] + x, 1),), ((o_lefts[i] + x, 1),))
             for i in range(1, s) for x in range(len(left.generators))]
    pairs += _copy_relations(s, right, o_rights, o_shift)
    return VKAssembly(quotient_by_relations(prod, pairs),
                      o_lefts[0], o_rights[0], o_shift)
