import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_pi1 import (InputError, Presentation, count_homs,
                          free_presentation, pi1_devissage,
                          pi1_graph_of_groups, quotient_by_relations,
                          tietze_simplify)
from singular_pi1.presentation import _is_fixed_point, tietze_eliminations
from singular_pi1.vk import FORMS
from support import (brute_count_homs, count_calls, count_order_dividing,
                     family_config, free_product, load_corpus,
                     random_presentation, tietze_reference,
                     unmerged_graph_of_groups)

A, B = 0, 1          # the generators of Presentation(["a", "b"], ...)


def c2_presentation():
    return Presentation(["a"], [((A, 2),)])


class TestConstructor:
    @pytest.mark.parametrize("generators, relators, message", [
        (["1a"], [], "malformed generator name: '1a'"),
        (["a-b.c"], [], "malformed namespace segment: 'a-b'"),
        ([("", "a")], [], "not a generator symbol"),
        (["a", "a"], [], "duplicate generator symbols in presentation"),
        (["a"], [((1, 1),)], r"relator uses undeclared generators: \['1'\]"),
        (["a"], [((-1, 1),)], "relator uses undeclared generators"),
        (["a"], [((A, 0),)], "exponents must be non-zero integers"),
    ])
    def test_refuses_bad_input(self, generators, relators, message):
        with pytest.raises(InputError, match=message):
            Presentation(generators, relators)

    def test_reduces_relators(self):
        p = Presentation(["a", "b"], [((A, 1), (B, 1), (B, -1)),
                                      ((B, 1), (A, 2), (B, -1)),
                                      ((A, 1), (A, -1))])
        assert p.relators == (((A, 1),), ((A, 2),))


class TestFreeProduct:
    def test_free_times_free(self):
        prod, offsets = free_product([free_presentation(1)] * 2)
        assert offsets == [0, 1]
        assert prod.generators == ("c1.x1", "c2.x1")
        assert count_homs(prod, 3) == 36

    def test_trivial_factor_is_identity_up_to_renaming(self):
        p = Presentation(["a", "b"], [((A, 2),), ((B, 3),)])
        prod, _ = free_product([Presentation([], []), p])
        assert prod.key() == p.key()

    def test_c2_star_c2_at_degree_two(self):
        # oracle: pairs of square-trivial elements of Sym(2)
        expected = count_order_dividing(2, 2) ** 2
        assert expected == 4
        prod, _ = free_product([c2_presentation()] * 2)
        assert count_homs(prod, 2) == expected


class TestQuotientByRelations:
    def test_identifying_free_generators(self):
        p = free_presentation(2)
        q = quotient_by_relations(p, [(((0, 1),), ((1, 1),))])
        for d in (2, 3, 4):
            assert count_homs(q, d) == count_homs(free_presentation(1), d)

    def test_empty_pair_list_is_identity(self):
        p = Presentation(["a"], [((A, 3),)])
        assert quotient_by_relations(p, []) == p

    def test_imposing_square_relation(self):
        # oracle: elements of Sym(3) whose square is the identity
        expected = count_order_dividing(3, 2)
        assert expected == 4
        q = quotient_by_relations(free_presentation(1), [(((0, 2),), ())])
        assert count_homs(q, 3) == expected

    def test_undeclared_generator_rejected(self):
        with pytest.raises(InputError):
            quotient_by_relations(free_presentation(1), [(((1, 1),), ())])


class TestTietzeSimplify:
    def test_substitution_case(self):
        # <a, b | b = a, b^3> simplifies to one generator
        p = Presentation(["a", "b"], [((B, 1), (A, -1)), ((B, 3),)])
        out = tietze_simplify(p)
        assert len(out.generators) == 1
        for d in (2, 3, 4):
            assert count_homs(out, d) == brute_count_homs(p, d)

    def test_free_presentation_is_fixed_point(self):
        p = free_presentation(3)
        assert tietze_simplify(p) == p

    def test_duplicate_and_trivial_relators_removed(self):
        p = Presentation(["a"], [((A, 2),), ((A, 2),), ((A, -2),)])
        out = tietze_simplify(p)
        assert len(out.relators) == 1

    def test_generator_set_to_identity(self):
        p = Presentation(["a", "b"], [((A, 1),), ((A, 1), (B, 1)) * 2])
        out = tietze_simplify(p)
        assert len(out.generators) == 1
        for d in (2, 3):
            assert count_homs(out, d) == brute_count_homs(p, d)

    def test_randomized_soundness_small(self):
        rng = random.Random(7)
        for _ in range(25):
            p = random_presentation(rng, max_gens=3, max_relators=3,
                                    max_len=4)
            out = tietze_simplify(p)
            for d in (2, 3):
                assert count_homs(out, d) == brute_count_homs(p, d)


def _random_presentations(count):
    rng = random.Random(2024)
    return [random_presentation(rng, max_gens=5, max_relators=7, max_len=8)
            for _ in range(count)]


def _family_configs(sizes):
    return [family_config(family, n)
            for family in ("chain", "star", "theta") for n in sizes]


def _graph_of_groups_raw():
    """The raw default-route presentations, and the same assemblies with
    every tree leg left a relator, from which Tietze has generators to
    eliminate."""
    configs = list(load_corpus().values()) + _family_configs(range(2, 17))
    return [pi1_graph_of_groups(cfg).raw_presentation for cfg in configs] \
        + [unmerged_graph_of_groups(cfg) for cfg in configs]


def _devissage_raw():
    configs = list(load_corpus().values()) + _family_configs((2, 3))
    return [pi1_devissage(cfg, form=form).raw_presentation
            for cfg in configs for form in FORMS]


class TestTietzeMatchesReference:
    """The indexed pass returns what the restart-from-the-first-relator
    loop returns: the same presentation and the same eliminations, in
    the same order."""

    def check(self, presentations):
        for p in presentations:
            assert tietze_eliminations(p) == tietze_reference(p), p

    def test_random_presentations(self):
        self.check(_random_presentations(1000))

    def test_graph_of_groups_raw_presentations(self):
        self.check(_graph_of_groups_raw())

    def test_devissage_raw_presentations(self):
        self.check(_devissage_raw())

    def test_simplify_is_idempotent(self):
        # count_homs counts a presentation flagged simplified as it is
        for p in (_random_presentations(200) + _graph_of_groups_raw()
                  + _devissage_raw()):
            assert not p.simplified
            once = tietze_simplify(p)
            assert once.simplified
            assert tietze_eliminations(once) == (once, [])


def _fixed_point_candidates(count):
    """Presentations whose relators mostly have no eliminable syllable:
    each relator has every exponent at least 2 in absolute value, or
    every generator repeated.  Reduction can still leave a syllable of
    exponent ±1 alone, and relators of one shape are common."""
    rng = random.Random(38)
    out = []
    for _ in range(count):
        n = rng.randint(1, 4)
        relators = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                relators.append([(rng.randrange(n), rng.choice((-3, -2, 2, 3)))
                                 for _ in range(rng.randint(1, 4))])
            else:
                half = [(rng.randrange(n), rng.choice((-1, 1)))
                        for _ in range(rng.randint(1, 3))]
                relators.append(half + rng.sample(half, len(half)))
        out.append(Presentation("abcd"[:n], relators))
    return out


class TestFixedPointExit:
    """A presentation that one scan proves a fixed point is returned as
    it is; every other one takes the indexed pass."""

    def test_fixed_points_match_the_reference(self):
        presentations = _fixed_point_candidates(1000)
        exits = sum(_is_fixed_point(p.relators) for p in presentations)
        # both sides of the scan are exercised
        assert 300 <= exits <= 900, exits
        for p in presentations:
            assert tietze_eliminations(p) == tietze_reference(p), p

    def test_a_fixed_point_is_returned_as_it_is(self):
        p = Presentation(["a", "b"], [((A, 2), (B, 3)), ((B, 2),)])
        assert _is_fixed_point(p.relators)
        out, eliminations = tietze_eliminations(p)
        assert (out, eliminations) == (p, [])
        assert out.simplified and not p.simplified

    @pytest.mark.parametrize("relators, kept", [
        # an empty relator is dropped
        [[(), ((A, 2),)], [((A, 2),)]],
        # a relator that is not cyclically reduced keeps its cyclic
        # reduction's key, so the later b^2 duplicates it
        [[((A, 1), (B, 2), (A, -1)), ((B, 2),)],
         [((A, 1), (B, 2), (A, -1))]],
        # one shape, not duplicates
        [[((A, 2), (B, 2)), ((A, 2), (B, -2))],
         [((A, 2), (B, 2)), ((A, 2), (B, -2))]],
        # a rotation, and an inverse
        [[((A, 2), (B, 3)), ((B, 3), (A, 2))], [((A, 2), (B, 3))]],
        [[((A, 2), (B, 3)), ((B, -3), (A, -2))], [((A, 2), (B, 3))]],
    ])
    def test_each_guard_sends_its_case_to_the_indexed_pass(self, relators,
                                                          kept):
        p = Presentation._trusted(["a", "b"], relators)
        assert not _is_fixed_point(p.relators)
        out, eliminations = tietze_eliminations(p)
        assert out.relators == tuple(kept)
        assert out.generators == p.generators and eliminations == []
        assert out.simplified


def test_the_default_route_is_simplified_without_cyclic_keys(monkeypatch):
    """The default route's raw presentations on the corpus and the S3/C2
    families are fixed points, so Tietze builds no cyclic key on them."""
    import singular_pi1.presentation as presentation

    keys = count_calls(monkeypatch, presentation, "cyclic_key")["cyclic_key"]
    for cfg in list(load_corpus().values()) + _family_configs(range(2, 65)):
        result = pi1_graph_of_groups(cfg)
        assert result.presentation == result.raw_presentation
    assert keys == []
    # the counter sees the indexed pass
    tietze_eliminations(unmerged_graph_of_groups(family_config("chain", 2)))
    assert keys


@pytest.mark.parametrize("family", ["chain", "star", "theta"])
def test_tietze_rewrites_grow_linearly(family, monkeypatch):
    """Each step rewrites only relators that use its generator, and the
    generator chosen is the least used one of its relator, so a hub
    generator is not renamed piece by piece.  The input keeps every tree
    leg as a relator, so every piece's generator is eliminated."""
    import singular_pi1.presentation as presentation

    calls = 0
    substitute = presentation.substitute

    def counting(word, mapping):
        nonlocal calls
        calls += 1
        return substitute(word, mapping)

    monkeypatch.setattr(presentation, "substitute", counting)
    rewrites = {}
    for n in (64, 128):
        raw = unmerged_graph_of_groups(family_config(family, n))
        calls = 0
        assert len(tietze_eliminations(raw)[1]) >= n
        rewrites[n] = calls
        assert calls <= 6 * n, (n, calls)
    assert rewrites[128] <= 2.2 * rewrites[64], rewrites


presentations = st.integers(0, 10_000).map(
    lambda seed: random_presentation(random.Random(seed), max_gens=2,
                                     max_relators=2, max_len=4))


@settings(max_examples=30, deadline=None)
@given(presentations, presentations, st.sampled_from([2, 3, 4]))
def test_free_product_hom_counts_multiply(p1, p2, d):
    assert count_homs(free_product([p1, p2])[0], d) \
        == count_homs(p1, d) * count_homs(p2, d)


@settings(max_examples=30, deadline=None)
@given(presentations, st.sampled_from([2, 3]))
def test_quotient_never_increases_counts(p, d):
    rng = random.Random(p.key()[0] + d)
    gens = range(len(p.generators))
    lhs = ((rng.choice(gens), 1),) if gens else ()
    q = quotient_by_relations(p, [(lhs, ())])
    assert count_homs(q, d) <= count_homs(p, d)


def test_free_group_counts_formula():
    from math import factorial
    for r in (0, 1, 2, 3):
        p = free_presentation(r)
        for d in (2, 3, 4):
            assert count_homs(p, d) == factorial(d) ** r


def test_count_homs_matches_brute_force():
    rng = random.Random(11)
    for _ in range(12):
        p = random_presentation(rng, max_gens=3, max_relators=3, max_len=5)
        for d in (2, 3):
            assert count_homs(p, d) == brute_count_homs(p, d)
