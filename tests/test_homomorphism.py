import pytest

from singular_pi1 import (GroupSpec, Homo, InputError, Presentation,
                          free_presentation)
from support import (element_order, iter_homs_between, standard_hom,
                     words_trivial)


def test_relator_images_are_checked_on_construction():
    c2 = GroupSpec.cyclic(2)
    c3 = GroupSpec.cyclic(3)
    # sending the order-2 generator to an order-3 element must fail
    with pytest.raises(InputError, match=r"relator g\^2 maps to a non-trivial"):
        Homo(c2, c3, (((0, 1),),))
    # the trivial map is fine
    Homo.trivial(c2, c3)


def test_relator_images_into_presented_groups_are_checked():
    s3 = GroupSpec.presented(Presentation(
        ["a", "b"], [((0, 2),), ((1, 3),), ((0, 1), (1, 1)) * 2]))
    c3 = GroupSpec.cyclic(3)
    # a has order 2, so g -> a breaks g^3; g -> b keeps it
    with pytest.raises(InputError, match=r"relator g\^3 maps to a non-trivial"):
        Homo(c3, s3, (((0, 1),),))
    Homo(c3, s3, (((1, 1),),))
    assert len(list(iter_homs_between(c3, s3))) == 3


def test_structural_validation():
    c2 = GroupSpec.cyclic(2)
    with pytest.raises(InputError, match=r"missing images for \['g'\]"):
        Homo(c2, c2, ())
    with pytest.raises(InputError, match="images for undeclared"):
        Homo(c2, c2, ((), ()))
    with pytest.raises(InputError, match="undeclared target generators"):
        Homo(c2, c2, (((1, 1),),))              # no second target generator
    with pytest.raises(InputError, match="is not a word"):
        Homo(c2, c2, ([(0, 1)],))
    # a bare presentation is neither a source nor a target
    free = free_presentation(1)
    with pytest.raises(InputError):
        Homo(c2, free, (((0, 1),),))
    with pytest.raises(InputError):
        Homo(c2.canonical_presentation, c2, ((),))


def test_relator_images_trivial_by_count():
    # g -> x sends the relator g^2 of C2 to x^2 in the free group <x>:
    # every element of Sym(2) squares to the identity, so degree 2 cannot
    # see that x^2 is non-trivial; degree 3 can
    free = free_presentation(1)
    assert words_trivial(free, [((0, 2),)], [2])
    assert not words_trivial(free, [((0, 2),)], [3])
    assert words_trivial(free, [()], [2, 3])


def test_iter_homs_between_counts():
    c2 = GroupSpec.cyclic(2)
    c4 = GroupSpec.cyclic(4)
    s3 = GroupSpec.symmetric(3)
    assert len(list(iter_homs_between(c2, c4))) == 2
    assert len(list(iter_homs_between(c4, c2))) == 2
    assert len(list(iter_homs_between(s3, s3))) == 10
    assert len(list(iter_homs_between(GroupSpec.cyclic(3), c2))) == 1


def test_standard_hom_prefers_non_trivial_images():
    c2 = GroupSpec.cyclic(2)
    s3 = GroupSpec.symmetric(3)
    h = standard_hom(c2, s3)
    img = s3.evaluate(h.images[0])
    assert element_order(s3, img) == 2
    # C3 -> C2 admits only the trivial map
    t = standard_hom(GroupSpec.cyclic(3), c2)
    assert t.images == ((),)
    # deterministic pick
    assert standard_hom(c2, s3).images == h.images


def test_generator_orders_match_repeated_composition():
    klein = GroupSpec.permutation(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    for group in (GroupSpec.trivial(), GroupSpec.cyclic(6),
                  GroupSpec.symmetric(4), klein,
                  GroupSpec.permutation(5, [(1, 2, 0, 4, 3)])):
        for i, g in enumerate(group.generator_elements):
            assert group.generator_order(i) == element_order(group, g)


def test_image_exponents_are_read_modulo_their_generator_orders():
    c2, c6, s3 = (GroupSpec.cyclic(2), GroupSpec.cyclic(6),
                  GroupSpec.symmetric(3))
    big = 10 ** 21 + 1
    # s1 has order 2: a conjugate of s2, whatever the exponents' size
    h = Homo(c2, s3, (((0, big), (1, 1), (0, -big)),))
    assert h.images == (((0, 1), (1, 1), (0, -1)),)
    # an exponent up to the order is kept as written, signs are kept
    assert Homo(c6, c6, (((0, 6 * big - 5),),)).images == (((0, 1),),)
    assert Homo(c6, c6, (((0, -7),),)).images == (((0, -1),),)
    assert Homo(c6, c6, (((0, 5),),)).images == (((0, 5),),)
    assert Homo(c6, c6, (((0, -6),),)).images == (((0, -6),),)
    # a multiple of the order drops its syllable
    assert Homo(c2, c6, (((0, 12),),)).images == ((),)
