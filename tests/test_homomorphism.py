import pytest

from singular_pi1 import (GroupSpec, Homo, InputError, Word, free_presentation,
                          sym)
from support import (element_order, iter_homs_between, standard_hom,
                     words_trivial)


def test_relator_images_are_checked_on_construction():
    c2 = GroupSpec.cyclic(2)
    c3 = GroupSpec.cyclic(3)
    g2 = c2.canonical_presentation.generators[0]
    g3 = c3.canonical_presentation.generators[0]
    # sending the order-2 generator to an order-3 element must fail
    with pytest.raises(InputError):
        Homo(c2, c3, {g2: Word.gen(g3)})
    # the trivial map is fine
    Homo.trivial(c2, c3)


def test_structural_validation():
    c2 = GroupSpec.cyclic(2)
    g = c2.canonical_presentation.generators[0]
    with pytest.raises(InputError):
        Homo(c2, c2, {})                       # missing image
    with pytest.raises(InputError):
        Homo(c2, c2, {g: Word.gen(sym("zz"))})  # undeclared target symbol
    # a bare presentation is neither a source nor a target
    free = free_presentation(1)
    with pytest.raises(InputError):
        Homo(c2, free, {g: Word.gen(free.generators[0])})
    with pytest.raises(InputError):
        Homo(c2.canonical_presentation, c2, {g: Word.identity()})


def test_relator_images_trivial_by_count():
    # g -> x sends the relator g^2 of C2 to x^2 in the free group <x>:
    # every element of Sym(2) squares to the identity, so degree 2 cannot
    # see that x^2 is non-trivial; degree 3 can
    free = free_presentation(1)
    x = free.generators[0]
    assert words_trivial(free, [Word.gen(x, 2)], [2])
    assert not words_trivial(free, [Word.gen(x, 2)], [3])
    assert words_trivial(free, [Word.identity()], [2, 3])


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
    img = s3.evaluate(h.images[c2.canonical_presentation.generators[0]])
    assert element_order(s3, img) == 2
    # C3 -> C2 admits only the trivial map
    t = standard_hom(GroupSpec.cyclic(3), c2)
    g = GroupSpec.cyclic(3).canonical_presentation.generators[0]
    assert t.images[g].is_identity()
    # deterministic pick
    assert standard_hom(c2, s3).images == h.images
