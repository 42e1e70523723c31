from math import factorial

import pytest

from singular_pi1 import GroupSpec, InputError, count_homs, free_presentation
from support import check_vk_forms, glue, leg_pairs, standard_hom

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


class TestVKBuild:
    def test_single_leg_collapses_to_amalgam(self):
        data = trivial_data(TRIV, TRIV, 1)
        for form in ("i", "ii", "iii", "iv"):
            assert count_homs(glue(*data, form)[0], 3) == 1

    def test_all_trivial_three_legs_gives_free_two(self):
        data = trivial_data(TRIV, TRIV, 3)
        for form in ("i", "ii", "iii", "iv"):
            assert count_homs(glue(*data, form)[0], 2) == 4

    def test_c2_against_trivial(self):
        data = trivial_data(C2, TRIV, 2)
        p = glue(*data)[0]
        assert count_homs(p, 3) == 4 * 6

    def test_trivial_leg_maps_product_formula(self):
        # with trivial legs the count is the plain product with the shifts
        for pi, prime, s in [(C2, C3, 2), (S3, C2, 3), (C3, C3, 1)]:
            data = trivial_data(pi, prime, s)
            p = glue(*data)[0]
            for d in (2, 3):
                expected = (count_homs(pi.canonical_presentation, d)
                            * count_homs(prime.canonical_presentation, d)
                            * factorial(d) ** (s - 1))
                assert count_homs(p, d) == expected

    def test_forms_i_and_iii_append_the_same_relators(self):
        # v_1 = e, so the amalgam over the first leg imposes form i's
        # first-leg relations
        for data in (c2_legs(1), c2_legs(3), trivial_data(S3, C2, 2)):
            assert glue(*data, "i")[0].relators \
                == glue(*data, "iii")[0].relators

    def test_forms_ii_and_iv_append_the_same_relators(self):
        # every leg pushout of form iv maps into the one copy of pi, so
        # its amalgam over pi is presented as form ii
        for data in (c2_legs(1), c2_legs(3), trivial_data(S3, C2, 2)):
            assert glue(*data, "ii")[0].relators \
                == glue(*data, "iv")[0].relators

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_copies_are_identified_from_the_first_only(self, s):
        # one relation v_j^-1 [y]_1 v_j = [y]_j per further copy j and
        # generator y of pi'; pi' is free, so its copies add no relator
        right = free_presentation(2)
        legs = [[(((0, 1),), ((0, 1),))]] * s
        i, ii = (len(glue(C2.canonical_presentation, right, legs, f)[0]
                     .relators) for f in ("i", "ii"))
        assert ii - i == (s - 1) * len(right.generators)

    def test_invalid_leg_endpoints_rejected(self):
        for form in ("i", "ii", "iii", "iv"):
            with pytest.raises(InputError, match="at least 1"):
                glue(*trivial_data(C2, TRIV, 0), form)


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
