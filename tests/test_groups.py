import itertools
import random
from math import factorial

import pytest

from singular_pi1 import (GroupSpec, Homo, InputError, Limits, Presentation,
                          ResourceError, count_homs)
from singular_pi1.groups import _coset_closure
from singular_pi1.perms import compose, identity, invert
from support import (element_order, element_words, evaluate_reference,
                     group_elements)

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
                    t = compose(el, g)
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
    # each refusal names the number that was too large and its bound
    cases = [
        (lambda: GroupSpec.symmetric(8), 40320, 5040,
         "group order 8! exceeds bound 5040"),
        (lambda: GroupSpec.cyclic(10, limits=Limits(order_bound=9)), 10, 9,
         "group order 10 exceeds bound 9"),
        # the partial product 2 * 3 * 4 = 24 is the first past 20
        (lambda: GroupSpec.symmetric(6, limits=Limits(order_bound=20)), 24,
         20, "group order 6! exceeds bound 20"),
        (lambda: GroupSpec.permutation(5, [(1, 2, 3, 4, 0)],
                                       limits=Limits(order_bound=4)), 5, 4,
         "group closure exceeds order bound 4"),
        (lambda: GroupSpec.presented(Presentation(["a", "b"], [AB])), 40321,
         40320, "coset closure exceeded 40320 cosets; "
         "the presented group is too large or infinite")]
    for build, estimate, ceiling, message in cases:
        with pytest.raises(ResourceError) as err:
            build()
        assert (err.value.estimate, err.value.ceiling, err.value.layer) \
            == (estimate, ceiling, "groups")
        assert str(err.value) == message


def dihedral(n):
    return Presentation(["a", "b"], [((A, n),), ((B, 2),), AB * 2])


def cyclic_product(m, n):
    return Presentation(["a", "b"], [((A, m),), ((B, n),),
                                     ((A, 1), (B, 1), (A, -1), (B, -1))])


def coxeter(n):
    """Sym(n) on the adjacent transpositions s1 .. s(n-1)."""
    k = n - 1
    return Presentation(
        [f"s{i + 1}" for i in range(k)],
        [((i, 2),) for i in range(k)]
        + [((i, 1), (i + 1, 1)) * 3 for i in range(k - 1)]
        + [((i, 1), (j, 1)) * 2 for i in range(k) for j in range(i + 2, k)])


# trivial, but no relator scan closes at a single coset: the closure
# defines cosets and then merges them all
TRIVIAL_BY_COINCIDENCE = Presentation(
    ["a", "b"], [((A, 1), (B, 1), (A, -1), (B, -2)),
                 ((B, 1), (A, 1), (B, -1), (A, -2))])

# of order 2; its closure merges a coset into one that lacks an entry of
# the merged one, so the merge defines it (found by a seeded search)
MERGE_DEFINES_AN_ENTRY = Presentation(
    ["a", "b"], [((A, 2), (B, -2)), ((B, 2), (A, 1), (B, 1), (A, -3))])


def known_orders():
    return [(dihedral(n), 2 * n) for n in range(3, 41)] \
        + [(cyclic_product(m, n), m * n)
           for m, n in ((2, 3), (4, 6), (5, 7), (12, 10))] \
        + [(coxeter(n), factorial(n)) for n in range(3, 7)] \
        + [(TRIVIAL_BY_COINCIDENCE, 1), (MERGE_DEFINES_AN_ENTRY, 2)]


def test_coset_closure_finds_known_orders():
    for pres, order in known_orders():
        spec = GroupSpec.presented(pres)
        assert spec.order == order, pres
        assert len(group_elements(spec)) == order, pres
        for r in pres.relators:
            assert spec.evaluate(r) == spec.identity_element, (pres, r)


def random_presentation(rng):
    """One to three generators, a power of each and up to three words."""
    n = rng.randint(1, 3)
    relators = [((g, rng.randint(1, 8)),) for g in range(n)]
    for _ in range(rng.randint(0, 3)):
        word = [(rng.randrange(n), rng.choice((-2, -1, 1, 2, 3)))
                for _ in range(rng.randint(2, 6))]
        relators.append(word)
    return Presentation([f"x{g + 1}" for g in range(n)], relators)


def test_order_does_not_depend_on_the_order_or_rotation_of_relators():
    rng = random.Random(35)
    closed = 0
    while closed < 60:
        pres = random_presentation(rng)
        try:
            order, _ = _coset_closure(pres, 2000)
        except ResourceError:
            continue
        closed += 1
        relators = [r[k:] + r[:k] for r in pres.relators
                    for k in [rng.randrange(len(r))]]
        rng.shuffle(relators)
        moved = Presentation(pres.generators, relators)
        assert _coset_closure(moved, 2000)[0] == order, (pres, moved)


def presented_cases():
    return {"S3": Presentation(["a", "b"], [((A, 2),), ((B, 3),), AB * 2]),
            "Klein": Presentation(["a", "b"],
                                  [((A, 2),), ((B, 2),), AB * 2]),
            "Q8": Presentation(["a", "b"],
                               [((A, 4),), ((A, 2), (B, -2)),
                                ((B, -1), (A, 1), (B, 1), (A, 1))]),
            "C7": Presentation(["a"], [((A, 7),)])}


def every_kind():
    # C2^4 on 8 points: generator i swaps the points 2i and 2i + 1
    flips = [tuple(p ^ 1 if p // 2 == i else p for p in range(8))
             for i in range(4)]
    return [GroupSpec.trivial(), GroupSpec.cyclic(1), GroupSpec.cyclic(4),
            GroupSpec.symmetric(0), GroupSpec.symmetric(1),
            GroupSpec.symmetric(3), GroupSpec.permutation(8, flips)] \
        + [GroupSpec.presented(p) for p in presented_cases().values()]


def check_acts_as_the_group(spec):
    assert len(group_elements(spec)) == spec.order, spec
    for r in spec.canonical_presentation.relators:
        assert spec.evaluate(r) == spec.identity_element, spec
    for d in (2, 3):
        assert count_homs(spec.canonical_presentation, d) \
            == brute_multiplicative_maps(spec, d), (spec, d)


def test_canonical_presentations_count_like_the_group():
    cases = every_kind()
    assert [s.order for s in cases] == [1, 1, 4, 1, 1, 6, 16, 6, 4, 8, 7]
    cases += [GroupSpec.cyclic(2), GroupSpec.cyclic(3),
              GroupSpec.permutation(3, [(1, 0, 2), (0, 2, 1)]),
              GroupSpec.permutation(4, [(1, 0, 3, 2), (2, 3, 0, 1)])]
    for spec in cases:
        check_acts_as_the_group(spec)


def test_presented_groups_with_identity_generators_are_caught():
    for pres in presented_cases().values():
        spec = GroupSpec.presented(pres)
        spec.generator_elements = (spec.identity_element,) \
            * len(spec.generator_elements)
        with pytest.raises(AssertionError):
            check_acts_as_the_group(spec)


def test_descriptor_is_kind_and_params():
    s3 = presented_cases()["S3"]
    assert GroupSpec.trivial().descriptor() == ("trivial",)
    assert GroupSpec.cyclic(4).descriptor() == ("cyclic", 4)
    assert GroupSpec.symmetric(3).descriptor() == ("symmetric", 3)
    assert GroupSpec.permutation(2, [(1, 0)]).descriptor() \
        == ("permutation", 2, ((1, 0),))
    assert GroupSpec.presented(s3).descriptor() == ("presented", s3.key())


def test_equal_specs_hash_alike():
    # built apart, so equal by descriptor and not by identity
    a, b = GroupSpec.symmetric(3), GroupSpec.symmetric(3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, GroupSpec.cyclic(3)}) == 2


def test_element_words_evaluate_back():
    for spec in (GroupSpec.cyclic(4), GroupSpec.symmetric(3),
                 GroupSpec.presented(presented_cases()["S3"])):
        words = element_words(spec)
        for el in group_elements(spec):
            assert spec.evaluate(words[el]) == el


def test_evaluate_matches_the_letter_by_letter_loop():
    rng = random.Random(17)
    for spec in every_kind() + [GroupSpec.cyclic(9), GroupSpec.symmetric(4)]:
        n = len(spec.generator_elements)
        for _ in range(40):
            # exponents of either sign, up to three times the order
            word = tuple((rng.randrange(n), rng.choice((-1, 1))
                          * rng.randint(0, 3 * spec.order + 2))
                         for _ in range(rng.randint(0, 6) if n else 0))
            assert spec.evaluate(word) == evaluate_reference(spec, word), \
                (spec, word)


def test_large_powers_evaluate_by_squaring():
    c = GroupSpec.cyclic(5040)
    a = c.generator_elements[0]
    assert c.evaluate(((0, 5040),)) == c.identity_element
    assert c.evaluate(((0, 5041),)) == a
    assert c.evaluate(((0, -1),)) == c.evaluate(((0, 5039),)) == invert(a)
    assert Homo(c, c, [((0, 1),)]).images == (((0, 1),),)


def test_element_orders_and_inverses():
    s3 = GroupSpec.symmetric(3)
    orders = sorted(element_order(s3, el) for el in group_elements(s3))
    assert orders == [1, 2, 2, 2, 3, 3]
    for el in group_elements(s3):
        assert compose(el, invert(el)) == s3.identity_element


def test_presented_multiplication_is_a_group():
    q8 = GroupSpec.presented(presented_cases()["Q8"])
    els = set(group_elements(q8))
    assert q8.identity_element in els
    orders = sorted(element_order(q8, x) for x in els)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    for x in els:
        assert invert(x) in els
        for y in els:
            assert compose(x, y) in els


def test_invalid_specs_rejected():
    with pytest.raises(InputError):
        GroupSpec.cyclic(0)
    with pytest.raises(InputError):
        GroupSpec.permutation(3, [(0, 1)])
    with pytest.raises(InputError):
        GroupSpec.permutation(2, [])
