import random
from math import factorial

import pytest

from singular_pi1 import (GroupSpec, InputError, copy_shift, count_homs,
                          shift_free_group, vk_assemble)
from singular_pi1.perms import compose, identity, invert
from singular_pi1.words import render
from support import check_vk_forms, leg_pairs, standard_hom

TRIV = GroupSpec.trivial()
C2 = GroupSpec.cyclic(2)
C3 = GroupSpec.cyclic(3)
S3 = GroupSpec.symmetric(3)


def trivial_data(pi, pi_prime, s):
    """The two sides and ``s`` legs of a trivial group."""
    return pi.canonical_presentation, pi_prime.canonical_presentation, [[]] * s


def copy_collapse(pi_prime, s, degrees):
    """Forms i and ii of ``pi_prime`` joined with the ``s``-copy shifts."""
    return check_vk_forms(*trivial_data(TRIV, pi_prime, s), degrees,
                          ("i", "ii"))


def c2_legs(s):
    psi = standard_hom(C2, C2)
    return C2.canonical_presentation, C2.canonical_presentation, \
        [leg_pairs(C2, psi, psi)] * s


class TestShiftGroup:
    def test_ranks(self):
        assert len(shift_free_group(1).generators) == 0
        p = shift_free_group(3)
        assert len(p.generators) == 2
        assert count_homs(p, 2) == 4

    def test_shift_word_lookup(self):
        w = copy_shift(1, 3, 3)
        assert render(w, shift_free_group(3).generators) == "v3"
        assert copy_shift(2, 2, 3) == ()
        with pytest.raises(InputError):
            copy_shift(0, 1, 3)
        with pytest.raises(InputError):
            shift_free_group(0)

    def test_shift_identities_under_random_assignments(self):
        # u_ii = e and u_ij u_jk = u_ik hold identically in the free group
        rng = random.Random(0)
        s, d = 4, 4
        perms = []                  # v_j is generator j - 2
        for j in range(2, s + 1):
            p = list(range(d))
            rng.shuffle(p)
            perms.append(tuple(p))

        def ev(word):
            acc = identity(d)
            for g, e in word:
                p = perms[g]
                if e < 0:
                    p, e = invert(p), -e
                for _ in range(e):
                    acc = compose(acc, p)
            return acc

        for i in range(1, s + 1):
            assert ev(copy_shift(i, i, s)) == identity(d)
            for j in range(1, s + 1):
                for k in range(1, s + 1):
                    lhs = compose(ev(copy_shift(i, j, s)),
                                  ev(copy_shift(j, k, s)))
                    assert lhs == ev(copy_shift(i, k, s))


class TestVKBuild:
    def test_single_leg_collapses_to_amalgam(self):
        data = trivial_data(TRIV, TRIV, 1)
        for form in ("i", "ii", "iii", "iv"):
            assert count_homs(vk_assemble(*data, form).presentation, 3) == 1

    def test_all_trivial_three_legs_gives_free_two(self):
        data = trivial_data(TRIV, TRIV, 3)
        for form in ("i", "ii", "iii", "iv"):
            assert count_homs(vk_assemble(*data, form).presentation, 2) == 4

    def test_c2_against_trivial(self):
        data = trivial_data(C2, TRIV, 2)
        p = vk_assemble(*data).presentation
        assert count_homs(p, 3) == 4 * 6

    def test_trivial_leg_maps_product_formula(self):
        # with trivial legs the count is the plain product with the shifts
        for pi, prime, s in [(C2, C3, 2), (S3, C2, 3), (C3, C3, 1)]:
            data = trivial_data(pi, prime, s)
            p = vk_assemble(*data).presentation
            for d in (2, 3):
                expected = (count_homs(pi.canonical_presentation, d)
                            * count_homs(prime.canonical_presentation, d)
                            * factorial(d) ** (s - 1))
                assert count_homs(p, d) == expected

    def test_forms_i_and_iii_append_the_same_relators(self):
        # v_1 = e, so the amalgam over the first leg imposes form i's
        # first-leg relations
        for data in (c2_legs(1), c2_legs(3), trivial_data(S3, C2, 2)):
            assert vk_assemble(*data, "i").presentation.relators \
                == vk_assemble(*data, "iii").presentation.relators

    def test_invalid_leg_endpoints_rejected(self):
        with pytest.raises(InputError):
            vk_assemble(*trivial_data(C2, TRIV, 0))


class TestVerifyForms:
    def test_all_trivial_counts_are_factorials(self):
        counts, ok = check_vk_forms(*trivial_data(TRIV, TRIV, 2), [2, 3])
        assert ok
        assert counts["i"][3] == 6

    def test_degenerate_single_leg(self):
        assert check_vk_forms(*trivial_data(C2, C2, 1), [2, 3])[1]

    def test_nontrivial_legs(self):
        counts, ok = check_vk_forms(*c2_legs(2), [2, 3])
        assert ok
        assert counts["i"][3] == 12  # computed by hand: C2 x Z


class TestCopyCollapse:
    def test_trivial_group_both_sides_free(self):
        counts, ok = copy_collapse(TRIV, 2, [2, 3])
        assert ok
        assert counts["i"][3] == 6

    def test_c2_two_copies(self):
        counts, ok = copy_collapse(C2, 2, [2, 3])
        assert ok
        # independent formula: count(pi') * d! at each degree
        for d in (2, 3):
            expected = count_homs(C2.canonical_presentation, d) * factorial(d)
            assert counts["i"][d] == expected
            assert counts["ii"][d] == expected

    def test_c3_three_copies(self):
        counts, ok = copy_collapse(C3, 3, [2, 3])
        assert ok
        for d in (2, 3):
            expected = (count_homs(C3.canonical_presentation, d)
                        * factorial(d) ** 2)
            assert counts["i"][d] == expected

    def test_degree_four_spot_checks(self):
        counts, ok = copy_collapse(C2, 2, [4])
        assert ok
        # order-dividing-2 elements of Sym(4) times the shift images
        assert counts["i"][4] == 10 * 24
        assert check_vk_forms(*c2_legs(2), [4])[1]
