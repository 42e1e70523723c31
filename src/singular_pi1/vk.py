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

from dataclasses import dataclass, field

from .errors import InputError
from .presentation import (Presentation, fibered_coproduct_with_maps,
                           free_product_with_maps, quotient_by_relations)
from .words import GeneratorSymbol, Word, rename

FORMS = ("i", "ii", "iii", "iv")


def shift_free_group(s):
    """Free group of copy shifts ``v2 .. vs`` (the first shift is trivial)."""
    if s < 1:
        raise InputError("the number of legs must be at least 1")
    return Presentation(
        [GeneratorSymbol("", f"v{j}") for j in range(2, s + 1)], ())


def copy_shift(i, j, s):
    """The word moving markers from copy ``i`` to copy ``j``.

    Equals ``v_i^-1 * v_j`` with ``v_1`` the identity; satisfies the
    shift identities ``u_ii = e`` and ``u_ij u_jk = u_ik``.
    """
    if not (1 <= i <= s and 1 <= j <= s):
        raise InputError(f"copy index out of range for s={s}: ({i}, {j})")
    w = Word.identity()
    if i != 1:
        w = w * Word.gen(GeneratorSymbol("", f"v{i}"), -1)
    if j != 1:
        w = w * Word.gen(GeneratorSymbol("", f"v{j}"))
    return w


@dataclass
class VKAssembly:
    """An assembled presentation plus the locations of its ingredients."""
    presentation: Presentation
    left_map: dict                      # pi generators -> symbols
    right_map: dict                     # pi_prime generators -> symbols (copy 1)
    shift_symbols: dict                 # j -> symbol of v_j, j = 2..s
    right_copy_maps: list = field(default_factory=list)  # form ii: one per copy

    def conjugated_by_shift(self, i, word):
        """``u_1i^-1 * word * u_1i`` inside the assembled presentation."""
        v = Word.gen(self.shift_symbols[i]) if i > 1 else Word.identity()
        return v.inverse() * word * v


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

    if form == "i":
        prod, (m_left, m_right, m_shift) = free_product_with_maps(
            [left, right, shifts], tags=("L", "R", "S"))
        asm = VKAssembly(prod, m_left, m_right,
                         {j: m_shift[GeneratorSymbol("", f"v{j}")]
                          for j in range(2, s + 1)})
        pairs = []
        for i, pairs_i in enumerate(leg_pairs, start=1):
            for pw, fw in pairs_i:
                lhs = rename(pw, m_left)
                rhs = asm.conjugated_by_shift(i, rename(fw, m_right))
                pairs.append((lhs, rhs))
        asm.presentation = quotient_by_relations(prod, pairs)
        return asm

    if form == "ii":
        parts = [left] + [right] * s + [shifts]
        tags = ["L"] + [f"R{i}" for i in range(1, s + 1)] + ["S"]
        prod, maps = free_product_with_maps(parts, tags=tags)
        m_left, m_copies, m_shift = maps[0], maps[1:-1], maps[-1]
        shift_syms = {j: m_shift[GeneratorSymbol("", f"v{j}")]
                      for j in range(2, s + 1)}
        pairs = []
        for i in range(1, s + 1):
            for j in range(1, s + 1):
                u = rename(copy_shift(i, j, s), m_shift)
                for y in right.generators:
                    lhs = u.inverse() * Word.gen(m_copies[i - 1][y]) * u
                    rhs = Word.gen(m_copies[j - 1][y])
                    pairs.append((lhs, rhs))
        for i, pairs_i in enumerate(leg_pairs, start=1):
            for pw, fw in pairs_i:
                pairs.append((rename(pw, m_left),
                              rename(fw, m_copies[i - 1])))
        return VKAssembly(quotient_by_relations(prod, pairs),
                          m_left, m_copies[0], shift_syms,
                          right_copy_maps=list(m_copies))

    if form == "iii":
        glued, m1_left, m1_right = fibered_coproduct_with_maps(
            left, right, leg_pairs[0])
        prod, (m_glued, m_shift) = free_product_with_maps(
            [glued, shifts], tags=("G", "S"))
        left_map = {x: m_glued[m1_left[x]] for x in left.generators}
        right_map = {y: m_glued[m1_right[y]] for y in right.generators}
        asm = VKAssembly(prod, left_map, right_map,
                         {j: m_shift[GeneratorSymbol("", f"v{j}")]
                          for j in range(2, s + 1)})
        pairs = []
        for i, pairs_i in enumerate(leg_pairs, start=1):
            if i == 1:
                continue
            for pw, fw in pairs_i:
                lhs = rename(pw, left_map)
                rhs = asm.conjugated_by_shift(i, rename(fw, right_map))
                pairs.append((lhs, rhs))
        asm.presentation = quotient_by_relations(prod, pairs)
        return asm

    # form iv: amalgamate the s leg pushouts over the shared copy of pi
    pushouts = []
    for pairs_i in leg_pairs:
        glued, mi_left, mi_right = fibered_coproduct_with_maps(
            left, right, pairs_i)
        pushouts.append((glued, mi_left, mi_right))
    parts = [g for g, _, _ in pushouts] + [shifts]
    tags = [f"G{i}" for i in range(1, s + 1)] + ["S"]
    prod, maps = free_product_with_maps(parts, tags=tags)
    m_parts, m_shift = maps[:-1], maps[-1]
    shift_syms = {j: m_shift[GeneratorSymbol("", f"v{j}")]
                  for j in range(2, s + 1)}

    def left_in(i, x):
        return m_parts[i - 1][pushouts[i - 1][1][x]]

    def right_in(i, y):
        return m_parts[i - 1][pushouts[i - 1][2][y]]

    pairs = []
    for i in range(2, s + 1):
        for x in left.generators:
            pairs.append((Word.gen(left_in(1, x)), Word.gen(left_in(i, x))))
    for i in range(1, s + 1):
        for j in range(1, s + 1):
            u = rename(copy_shift(i, j, s), m_shift)
            for y in right.generators:
                lhs = u.inverse() * Word.gen(right_in(i, y)) * u
                rhs = Word.gen(right_in(j, y))
                pairs.append((lhs, rhs))
    return VKAssembly(quotient_by_relations(prod, pairs),
                      {x: left_in(1, x) for x in left.generators},
                      {y: right_in(1, y) for y in right.generators},
                      shift_syms)
