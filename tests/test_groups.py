import itertools

import pytest

from singular_pi1 import (GroupSpec, InputError, Presentation, ResourceError,
                          count_homs)
from singular_pi1.perms import compose, identity
from support import element_order, element_words

A, B = 0, 1          # the generators of Presentation(["a", "b"], ...)
AB = ((A, 1), (B, 1))


def brute_multiplicative_maps(spec, d):
    """Count extensions of generator images to full homomorphisms by
    closing the multiplication table; independent of presentations."""
    perms = list(itertools.permutations(range(d)))
    gens = spec.generator_elements
    count = 0
    for images in itertools.product(perms, repeat=len(gens)):
        table = {spec.identity_element: identity(d)}
        frontier = [spec.identity_element]
        ok = True
        while frontier and ok:
            nxt = []
            for el in frontier:
                for g, im in zip(gens, images):
                    t = spec.multiply(el, g)
                    timg = compose(table[el], im)
                    if t in table:
                        if table[t] != timg:
                            ok = False
                            break
                    else:
                        table[t] = timg
                        nxt.append(t)
                if not ok:
                    break
            frontier = nxt
        if ok:
            count += 1
    return count


def test_orders():
    assert GroupSpec.trivial().order == 1
    assert GroupSpec.cyclic(5).order == 5
    assert GroupSpec.symmetric(4).order == 24
    assert GroupSpec.permutation(3, [(1, 0, 2), (0, 2, 1)]).order == 6


def test_presented_orders_by_coset_closure():
    klein = Presentation(["a", "b"], [((A, 2),), ((B, 2),), AB * 2])
    assert GroupSpec.presented(klein).order == 4
    s3 = Presentation(["a", "b"], [((A, 2),), ((B, 3),), AB * 2])
    assert GroupSpec.presented(s3).order == 6
    q8 = Presentation(["a", "b"], [((A, 4),), ((A, 2), (B, -2)),
                                   ((B, -1), (A, 1), (B, 1), (A, 1))])
    assert GroupSpec.presented(q8).order == 8
    assert GroupSpec.presented(Presentation(["a"], [((A, 7),)])).order == 7
    assert GroupSpec.presented(Presentation([], [])).order == 1


def test_infinite_presented_groups_rejected():
    with pytest.raises(ResourceError):
        GroupSpec.presented(Presentation(["a"], []))
    with pytest.raises(ResourceError):
        GroupSpec.presented(Presentation(["a", "b"], [AB]))


def test_order_bound_enforced():
    from singular_pi1 import Limits
    with pytest.raises(ResourceError):
        GroupSpec.symmetric(8)  # 40320 > 5040
    with pytest.raises(ResourceError):
        GroupSpec.cyclic(10, limits=Limits(order_bound=9))


def test_canonical_presentations_count_like_the_group():
    cases = [GroupSpec.trivial(), GroupSpec.cyclic(2), GroupSpec.cyclic(3),
             GroupSpec.cyclic(4), GroupSpec.symmetric(3),
             GroupSpec.permutation(3, [(1, 0, 2), (0, 2, 1)]),
             GroupSpec.permutation(4, [(1, 0, 3, 2), (2, 3, 0, 1)])]
    for spec in cases:
        for d in (2, 3):
            assert count_homs(spec.canonical_presentation, d) \
                == brute_multiplicative_maps(spec, d), spec


def test_element_words_evaluate_back():
    for spec in (GroupSpec.cyclic(4), GroupSpec.symmetric(3),
                 GroupSpec.presented(Presentation(
                     ["a", "b"], [((A, 2),), ((B, 3),), AB * 2]))):
        words = element_words(spec)
        for el in spec.elements:
            assert spec.evaluate(words[el]) == el


def test_element_orders_and_inverses():
    s3 = GroupSpec.symmetric(3)
    orders = sorted(element_order(s3, el) for el in s3.elements)
    assert orders == [1, 2, 2, 2, 3, 3]
    for el in s3.elements:
        assert s3.multiply(el, s3.invert_element(el)) == s3.identity_element


def test_presented_multiplication_is_a_group():
    s3 = GroupSpec.presented(Presentation(
        ["a", "b"], [((A, 2),), ((B, 3),), AB * 2]))
    els = s3.elements
    for x in els:
        assert s3.multiply(x, s3.identity_element) == x
        assert s3.multiply(s3.identity_element, x) == x
        assert s3.multiply(x, s3.invert_element(x)) == s3.identity_element
    # associativity spot check
    for x in els:
        for y in els:
            for z in els[:3]:
                assert s3.multiply(s3.multiply(x, y), z) \
                    == s3.multiply(x, s3.multiply(y, z))


def test_invalid_specs_rejected():
    with pytest.raises(InputError):
        GroupSpec.cyclic(0)
    with pytest.raises(InputError):
        GroupSpec.permutation(3, [(0, 1)])
    with pytest.raises(InputError):
        GroupSpec.permutation(2, [])
