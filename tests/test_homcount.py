import random
from fractions import Fraction
from math import factorial

import pytest

from singular_pi1 import (Limits, Presentation, ResourceError, count_homs,
                          free_presentation, pi1_graph_of_groups,
                          transitive_counts)
from support import (brute_count_homs, brute_count_transitive_homs,
                     closed_family_homs, count_order_dividing,
                     family_config, load_corpus, random_presentation,
                     search_count_homs)

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
