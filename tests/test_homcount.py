import random
from fractions import Fraction
from math import factorial

import pytest

from singular_pi1 import (Limits, Presentation, ResourceError, count_homs,
                          free_presentation, pi1_graph_of_groups,
                          transitive_counts)
from singular_pi1 import homcount
from singular_pi1.perms import table
from singular_pi1.presentation import tietze_simplify
from singular_pi1.words import power, reduce
from support import (brute_count_homs, brute_count_transitive_homs,
                     closed_family_homs, count_order_dividing,
                     family_config, load_corpus, plan_reference,
                     random_presentation, search_count_homs)

A = 0                # the generator of Presentation(["a"], ...)


def transitive_homs(p, d):
    """Transitive homs into Sym(d), by Hall's formula over count_homs."""
    return transitive_counts([count_homs(p, k) for k in range(1, d + 1)])[-1]


def test_basic_counts():
    assert count_homs(free_presentation(1), 3) == 6
    assert count_homs(Presentation([], []), 4) == 1
    square = Presentation(["a"], [((A, 2),)])
    assert count_homs(square, 4) == count_order_dividing(4, 2) == 10


def test_transitive_counts():
    assert transitive_homs(free_presentation(1), 2) == 1
    assert transitive_homs(Presentation([], []), 2) == 0
    square = Presentation(["a"], [((A, 2),)])
    # oracle: filter the degree-2 enumeration for transitivity
    assert brute_count_transitive_homs(square, 2) == 1
    assert transitive_homs(square, 2) == 1


def test_transitive_matches_brute_force():
    rng = random.Random(3)
    for _ in range(10):
        p = random_presentation(rng, max_gens=3, max_relators=2, max_len=4)
        for d in (2, 3):
            assert transitive_homs(p, d) == brute_count_transitive_homs(p, d)


def test_transitive_counts_on_integers_and_fractions():
    # Z: h_d = d!, of which the (d-1)! d-cycles are transitive
    homs = [factorial(d) for d in range(1, 6)]
    expected = [factorial(d - 1) for d in range(1, 6)]
    assert transitive_counts(homs) == expected
    exact = transitive_counts([Fraction(h) for h in homs])
    assert exact == expected
    assert all(isinstance(t, Fraction) for t in exact)


def test_degree_bound_enforced():
    with pytest.raises(ResourceError):
        count_homs(free_presentation(1), 6)
    tight = Limits(degree_bound=2)
    with pytest.raises(ResourceError):
        count_homs(free_presentation(1), 3, tight)


def test_ceiling_enforced_with_estimate():
    tight = Limits(ceiling=10)
    p = Presentation(["a", "b"], [((0, 1), (1, 1)) * 2])
    with pytest.raises(ResourceError) as err:
        count_homs(p, 3, tight)
    assert err.value.estimate is not None and err.value.estimate > 10
    assert err.value.ceiling == 10
    assert err.value.layer == "homcount"


def test_free_generators_do_not_hit_the_ceiling():
    # enumeration never touches relator-free generators
    p = free_presentation(30)
    assert count_homs(p, 2, Limits(ceiling=10)) == 2 ** 30


def test_degenerate_degrees():
    p = Presentation(["a"], [((A, 2),)])
    assert count_homs(p, 0) == 1
    assert count_homs(p, 1) == 1
    assert transitive_homs(p, 1) == 1
    # the formula starts at degree 1: no counts in, none out
    assert transitive_counts([]) == []


def test_counts_match_brute_force_on_random_presentations():
    rng = random.Random(5)
    for _ in range(15):
        p = random_presentation(rng, max_gens=3, max_relators=4, max_len=6)
        for d in (2, 3):
            assert count_homs(p, d) == brute_count_homs(p, d)
    for _ in range(40):
        p = random_presentation(rng, max_gens=5, max_relators=5, max_len=6)
        for d in (2, 3):
            assert count_homs(p, d) == brute_count_homs(p, d)


def test_search_reference_matches_the_full_scan():
    rng = random.Random(9)
    for _ in range(20):
        p = random_presentation(rng, max_gens=4, max_relators=4, max_len=6)
        for d in (2, 3):
            assert search_count_homs(p, d) == brute_count_homs(p, d)


def _estimate(p, d):
    """The homcount estimate of ``p`` at degree ``d`` (0 when nothing is
    enumerated)."""
    try:
        count_homs(p, d, Limits(ceiling=0))
    except ResourceError as err:
        return err.estimate
    return 0


def test_raw_and_simplified_presentations_have_one_estimate():
    configs = list(load_corpus().values()) + [
        family_config(family, n)
        for family in ("chain", "star", "theta") for n in (2, 3)]
    for cfg in configs:
        res = pi1_graph_of_groups(cfg)
        assert _estimate(res.raw_presentation, 3) \
            == _estimate(res.presentation, 3)
    res = pi1_graph_of_groups(family_config("theta", 64))
    assert _estimate(res.raw_presentation, 5) \
        == _estimate(res.presentation, 5)
    assert count_homs(res.raw_presentation, 5) \
        == closed_family_homs("theta", 64, 5)


def test_sparse_relator_graph_is_eliminated_bucket_by_bucket():
    # <a, b1, b2, t1, t2 | a^2, bi^2, (a bi)^3, ti = bi a>: Tietze
    # eliminates the ti, and the bi are eliminated one bucket at a time
    a, bs, ts = 0, [1, 2], [3, 4]
    relators = [((a, 2),)]
    for b, t in zip(bs, ts):
        relators += [((b, 2),), ((a, 1), (b, 1)) * 3,
                     ((t, 1), (a, -1), (b, -1))]
    p = Presentation(["a", "b1", "b2", "t1", "t2"], relators)
    for d in (2, 3):
        assert count_homs(p, d) == brute_count_homs(p, d)
    # the single-bucket search would enumerate 26^3 images at degree 5
    assert count_homs(p, 5, Limits(ceiling=26 ** 3 - 1)) \
        == closed_family_homs("chain", 1, 5)


@pytest.mark.parametrize("family", ["chain", "star", "theta"])
def test_64_piece_families_match_the_closed_formula(family):
    pres = pi1_graph_of_groups(family_config(family, 64)).presentation
    for d in (3, 4, 5):
        assert count_homs(pres, d) == closed_family_homs(family, 64, d)


def _random_root(rng, n, syllables):
    """A freely reduced word of ``syllables`` syllables over ``n``
    generators, exponents in -2..2."""
    word = ()
    while len(word) < syllables:
        word = reduce(word + ((rng.randrange(n), rng.choice((-2, -1, 1, 2))),))
    return word


def _power_presentations(seed, count):
    """Presentations on two or three generators with proper powers
    ``w^k`` (``k`` = 2..4, roots of 1-3 syllables) among their relators,
    and one or two unary relators on some generators."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((2, 3))
        relators = [power(_random_root(rng, n, rng.randint(1, 3)),
                          rng.randint(2, 4))
                    for _ in range(rng.randint(1, 3))]
        for v in rng.sample(range(n), rng.randint(0, n)):
            relators += [((v, rng.choice((-6, -4, -3, 2, 3, 4, 6))),)
                         for _ in range(rng.randint(1, 2))]
        yield Presentation("abc"[:n], relators)


def _has_power_factor(p):
    parts, _ = homcount._components(p)
    return any(k > 1 for sk, _ in parts for _, _, k in sk.factors)


def test_power_relators_match_brute_force():
    presentations = list(_power_presentations(21, 30))
    assert sum(map(_has_power_factor, presentations)) >= 10
    for p in presentations:
        for d in (2, 3, 4):
            if d == 4 and len(p.generators) == 3:
                assert count_homs(p, d) == search_count_homs(p, d), p
            else:
                assert count_homs(p, d) == brute_count_homs(p, d), p


def test_several_unary_relators_filter_by_the_gcd():
    # x^4 and x^6: the order of x divides 2
    a, b = 0, 1
    p = Presentation(["a"], [((a, 4),), ((a, 6),)])
    for d in (2, 3, 4):
        assert count_homs(p, d) == brute_count_homs(p, d) \
            == count_order_dividing(d, 2)
    # with a power on two generators: a^4, a^-6, (a b^-1)^3, b^3, b^-9
    p = Presentation(["a", "b"], [((a, 4),), ((a, -6),),
                                  ((a, 1), (b, -1)) * 3, ((b, 3),),
                                  ((b, -9),)])
    for d in (2, 3, 4):
        assert count_homs(p, d) == brute_count_homs(p, d)


def test_power_relator_checks_its_root_once():
    # (s1 s2)^3 is stored as its root s1 s2 and the power 3
    p = Presentation(["s1", "s2"], [((0, 2),), ((1, 2),),
                                    ((0, 1), (1, 1)) * 3])
    ((sk, copies),), _ = homcount._components(p)
    assert copies == 1
    assert [(root, k) for _, root, k in sk.factors] \
        == [(((0, 1), (1, 1)), 3)]
    assert sk.unary == [2, 2]
    assert [count_homs(p, d) for d in (2, 3, 4)] \
        == [brute_count_homs(p, d) for d in (2, 3, 4)]


def _plan_presentations():
    corpus = [pi1_graph_of_groups(cfg).presentation
              for cfg in load_corpus().values()]
    families = [pi1_graph_of_groups(family_config(family, n)).presentation
                for family in ("chain", "star", "theta") for n in (2, 3, 5)]
    rng = random.Random(13)
    randoms = [random_presentation(rng, max_gens=5, max_relators=5,
                                   max_len=6) for _ in range(40)]
    twins = list(_twin_presentations(33, 10)) + [
        _bipartite(k, j, 2, 3, _braid) for k, j in ((2, 2), (3, 3), (4, 2))]
    return corpus + families + randoms + list(_power_presentations(22, 10)) \
        + twins


def _component_keys(p):
    """The component keys of ``p`` as the hom counter simplifies it,
    with their multiplicities."""
    if not p.simplified:
        p = tietze_simplify(p)
    return homcount._split_components(len(p.generators), p.relators)[0]


def test_plan_matches_the_plain_greedy():
    for p in _plan_presentations():
        keys = _component_keys(p)
        parts, _ = homcount._components(p)
        assert [k for _, k in parts] == list(keys.values())
        for d in (2, 3, 4, 5):
            for key, (sk, _) in zip(keys, parts):
                plan = homcount._Elimination(sk, table(d))
                buckets, estimate = plan_reference(*key, d)
                assert [(b.order, b.scope, b.cost, b.power)
                        for b in plan.buckets] == buckets, (p, d)
                assert plan.estimate == estimate, (p, d)


def _copies(k):
    """``k`` disjoint copies of <a, b | a^2, b^3, (ab)^3>, numbered
    apart, and one <c, e | c^2, (ce)^2>, on ``2k + 2`` generators."""
    relators = []
    for i in range(k):
        a, b = 2 * i, 2 * i + 1
        relators += [((a, 2),), ((b, 3),), ((a, 1), (b, 1)) * 3]
    c, e = 2 * k, 2 * k + 1
    relators += [((c, 2),), ((c, 1), (e, 1)) * 2]
    names = [f"x{i}" for i in range(2 * k + 2)]
    return Presentation(names, relators)


@pytest.mark.parametrize("k", [2, 3])
def test_equal_components_are_counted_once_and_gated_per_copy(
        k, monkeypatch):
    runs, forward = [], homcount._Elimination.forward
    monkeypatch.setattr(homcount._Elimination, "forward",
                        lambda plan, T: runs.append(T) or forward(plan, T))
    other = _copies(0)
    (rest,) = _component_keys(other)
    (single,) = _component_keys(_copies(1)).keys() - {rest}
    p = _copies(k)
    assert _component_keys(p) == {single: k, rest: 1}
    for d in (2, 3, 4):
        unit = brute_count_homs(Presentation(["a", "b"], single[1]), d)
        runs.clear()
        assert count_homs(p, d) == unit ** k * brute_count_homs(other, d)
        assert len(runs) == 2
        # each distinct component is counted once, so charged once
        estimate = plan_reference(*single, d)[1] + plan_reference(*rest, d)[1]
        with pytest.raises(ResourceError) as err:
            count_homs(p, d, Limits(ceiling=estimate - 1))
        assert err.value.estimate == estimate
        assert err.value.ceiling == estimate - 1
        assert count_homs(p, d, Limits(ceiling=estimate)) \
            == count_homs(p, d)


def test_a_repeated_component_is_charged_once():
    # semistable-C2 presents C2 * C2, two equal one-generator components:
    # each costs 2 at d = 2, 3 and 3 at d = 4, 5, so one copy fits
    # under a ceiling of 3 where both would not
    p = pi1_graph_of_groups(load_corpus()["semistable-C2"]).presentation
    assert list(_component_keys(p).values()) == [2]
    for d in (2, 3, 4, 5):
        assert count_homs(p, d, Limits(ceiling=3)) \
            == count_order_dividing(d, 2) ** 2


def _collapsed(p, d):
    """The powers of the buckets that sum out twin classes in the plans
    of ``p`` at degree ``d``."""
    parts, _ = homcount._components(p)
    return [b.power for sk, _ in parts
            for b in homcount._Elimination(sk, table(d)).buckets
            if b.power > 1]


def _twin_presentations(seed, count):
    """A random core on one or two generators, with a random relator on
    them or none, and ``k`` = 2..4 copies of a twin ``t``: each copy
    has ``t``'s unary relator, if any, and its one or two relators on
    ``t`` and the core, which may be powers.  The core comes first."""
    rng = random.Random(seed)
    for _ in range(count):
        m, k = rng.choice((1, 2)), rng.randint(2, 4)
        relators = [((v, rng.choice((2, 3))),) for v in range(m)
                    if rng.random() < 0.8]
        if m == 2 and rng.random() < 0.5:
            relators.append(power(_random_root(rng, 2, 2), rng.randint(1, 2)))
        twin = rng.choice(((), ((m, 2),), ((m, 3),), ((m, 4),)))
        words, want = [], rng.randint(1, 2)
        while len(words) < want:
            word = _random_root(rng, m + 1, rng.randint(2, 3))
            if any(s == m for s, _ in word) and any(s < m for s, _ in word):
                words.append(power(word, rng.randint(1, 3)))
        for t in range(m, m + k):
            relators += [tuple((t if s == m else s, e) for s, e in w)
                         for w in (twin, *words) if w]
        yield Presentation([f"x{i}" for i in range(m + k)], relators)


def _bipartite(k, j, a_order, b_order, word):
    """``k`` generators ``a`` of order dividing ``a_order`` and ``j``
    generators ``b`` of order dividing ``b_order``, with ``word(a, b)``
    as a relator for every pair: the ``a`` and the ``b`` are two
    adjacent twin classes, and the hub is the lowest of the class with
    the most relators, the ``a`` on a tie."""
    relators = [((v, a_order),) for v in range(k)]
    relators += [((k + v, b_order),) for v in range(j)]
    relators += [word(a, k + b) for a in range(k) for b in range(j)]
    return Presentation([f"x{i}" for i in range(k + j)], relators)


def _commute(a, b):
    return ((a, 1), (b, 1), (a, -1), (b, -1))


def _braid(a, b):
    return ((a, 1), (b, 1)) * 3


def test_twins_are_summed_out_once_and_match_brute_force():
    presentations = list(_twin_presentations(31, 24))
    assert sum(bool(_collapsed(p, 3)) for p in presentations) >= 16
    for p in presentations:
        for d in (2, 3):
            assert count_homs(p, d) == brute_count_homs(p, d), (p, d)
        assert count_homs(p, 4) == search_count_homs(p, 4), p


@pytest.mark.parametrize("k, j", [(2, 2), (2, 3), (3, 3), (3, 2)])
@pytest.mark.parametrize("word", [_commute, _braid])
def test_adjacent_twin_classes_and_a_hub_in_a_class(k, j, word):
    p = _bipartite(k, j, 2, 2, word)
    parts, _ = homcount._components(p)
    ((sk, _),) = parts
    assert sk.twins == [tuple(range(k)), tuple(range(k, k + j))]
    for d in (2, 3):
        assert count_homs(p, d) == brute_count_homs(p, d), (p, d)
    q = _bipartite(k, j, 2, 3, word)
    for d in (2, 3, 4):
        assert count_homs(q, d) == search_count_homs(q, d), (q, d)
    # the hub leaves its class; the b are summed out only when the a,
    # their neighbours and first in slot order, are not
    a, b = (k - 1, j) if j >= k else (k, j - 1)
    assert _collapsed(p, 3) == ([a] if a > 1 else [b] if b > 1 else [])


def _twins_around_a_hub(k):
    """<h, t1..tk | h^2, ti^2, (h ti)^3>: S3s amalgamated along <h>."""
    relators = [((0, 2),)]
    for t in range(1, k + 1):
        relators += [((t, 2),), ((0, 1), (t, 1)) * 3]
    return Presentation([f"x{i}" for i in range(k + 1)], relators)


def test_twins_are_counted_once_and_charged_once(monkeypatch):
    runs, run = [], homcount._Bucket.run
    monkeypatch.setattr(homcount._Bucket, "run",
                        lambda b, *args: runs.append(b) or run(b, *args))
    for d in (2, 3, 4):
        estimates = set()
        for k in (2, 3, 4):
            p = _twins_around_a_hub(k)
            ((sk, _),), _ = homcount._components(p)
            assert sk.twins == [tuple(range(1, k + 1))]
            runs.clear()
            expected = closed_family_homs("star", k - 1, d)
            assert count_homs(p, d) == expected
            # one bucket sums out the k twins, one the hub
            assert [b.power for b in runs] == [k, 1]
            (key,) = _component_keys(p)
            estimate = plan_reference(*key, d)[1]
            with pytest.raises(ResourceError) as err:
                count_homs(p, d, Limits(ceiling=estimate - 1))
            assert err.value.estimate == estimate
            assert count_homs(p, d, Limits(ceiling=estimate)) == expected
            estimates.add(estimate)
        # charged once: the estimate does not grow with k
        assert len(estimates) == 1
    for k in (2, 3):
        p = _twins_around_a_hub(k)
        for d in (2, 3):
            assert count_homs(p, d) == brute_count_homs(p, d)


def test_degrees_below_two_count_one_without_a_plan(monkeypatch):
    # a path of 1500 generators, no two of them twins
    n = 1500
    relators = [((v, 2),) for v in range(n)]
    relators += [_commute(v, v + 1) for v in range(n - 1)]
    p = Presentation([f"x{i}" for i in range(n)], relators)
    ((sk, _),), _ = homcount._components(p)
    assert sk.n == n and sk.twins == []

    def fail(*args):
        raise AssertionError("built a table or a plan")
    monkeypatch.setattr(homcount, "table", fail)
    monkeypatch.setattr(homcount, "_Elimination", fail)
    for d in (0, 1):
        assert count_homs(p, d, Limits(ceiling=0)) == 1


@pytest.mark.parametrize("family", ["chain", "star", "theta"])
def test_1024_piece_families_are_counted_in_as_many_buckets_as_64(family):
    def buckets(n, d):
        pres = pi1_graph_of_groups(family_config(family, n)).presentation
        parts, _ = homcount._components(pres)
        return [len(homcount._Elimination(sk, table(d)).buckets)
                for sk, _ in parts]

    for d in (2, 3, 4, 5):
        assert buckets(64, d) == buckets(1024, d)
    pres = pi1_graph_of_groups(family_config(family, 1024)).presentation
    assert count_homs(pres, 5) == closed_family_homs(family, 1024, 5)


def test_generators_of_order_one_are_fixed_before_the_search():
    # x_i^7 leaves each x_i the identity alone at every d <= 6, as 7 is
    # prime to lcm(1..d): the one-bucket plan over the 1500 generators is
    # the cheapest, and its search sets them all before it starts
    n = 1500
    relators = [((v, 7),) for v in range(n)]
    relators += [_commute(v, v + 1) for v in range(n - 1)]
    p = Presentation([f"x{i}" for i in range(n)], relators)
    for d in (2, 3, 4, 5):
        assert count_homs(p, d) == 1
    # some fixed and some free generators in one bucket: <a, b, c | a^5,
    # b^2, c^3, (a b)^2, (b c)^2, [a, c]> at degrees where a, or a and c,
    # have the identity alone
    a, b, c = 0, 1, 2
    p = Presentation(["a", "b", "c"], [
        ((a, 5),), ((b, 2),), ((c, 3),), ((a, 1), (b, 1)) * 2,
        ((b, 1), (c, 1)) * 2, _commute(a, c)])
    for d in (2, 3, 4):
        assert count_homs(p, d) == brute_count_homs(p, d), d


def test_one_generator_components_are_counted_without_a_plan(monkeypatch):
    # <a, b | a^4, a^6, b^3>: two components of one generator each, the
    # elements whose order divides 2, and 3
    def fail(*args):
        raise AssertionError("built a plan")
    monkeypatch.setattr(homcount, "_Elimination", fail)
    p = Presentation(["a", "b"], [((0, 4),), ((0, 6),), ((1, 3),)])
    for d in (2, 3, 4, 5):
        assert count_homs(p, d) \
            == count_order_dividing(d, 2) * count_order_dividing(d, 3)
        # each is charged the classes in its domain
        classes = sum(1 for k in (2, 3) for x, _ in table(d).classes
                      if not k % table(d).order[x])
        with pytest.raises(ResourceError) as err:
            count_homs(p, d, Limits(ceiling=classes - 1))
        assert err.value.estimate == classes
