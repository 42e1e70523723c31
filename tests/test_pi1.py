import inspect
import random
import sys
from math import factorial

from singular_pi1 import (Branch, Component, GroupSpec, Homo, Presentation,
                          ResourceError, SchemeConfig, Singular, compare,
                          count_homs, free_rank, pi1_devissage,
                          pi1_graph_of_groups)
from singular_pi1.presentation import tietze_eliminations
from support import (brute_count_homs, chain_config, family_config,
                     load_corpus, nodal_config, random_general_config,
                     random_trivial_config, theta_config, trivial_branch,
                     unmerged_graph_of_groups, TRIV)

C2 = GroupSpec.cyclic(2)


def root_of(res):
    """The root node of a result's expression: the table's last node."""
    return res.expression[-1]


def theorems(res):
    """The ``theorem`` of each node of a result that a step produced, in
    node order."""
    return [node["theorem"] for node in res.expression if "theorem" in node]


def ident_hom(spec):
    n = len(spec.canonical_presentation.generators)
    return Homo(spec, spec, tuple(((g, 1),) for g in range(n)))


def nontrivial_Z_config():
    # both branches carry C2 with faithful maps on both sides
    return SchemeConfig(
        [Component("A", C2)], [Singular("P", C2)],
        [Branch("b1", "A", "P", C2, ident_hom(C2), ident_hom(C2)),
         Branch("b2", "A", "P", C2, ident_hom(C2), ident_hom(C2))])


class TestConnectedSingular:
    def test_nodal_curve_is_infinite_cyclic(self):
        res = pi1_devissage(nodal_config())
        for d in (2, 3, 4):
            assert count_homs(res.presentation, d) == factorial(d)
        assert len(res.presentation.generators) == 1
        assert not res.presentation.relators

    def test_single_branch_all_trivial_gives_trivial_group(self):
        cfg = SchemeConfig([Component("A", TRIV)], [Singular("P", TRIV)],
                           [trivial_branch("b", "A", "P")])
        res = pi1_devissage(cfg)
        for d in (2, 3):
            assert count_homs(res.presentation, d) == 1

    def test_two_components_meeting_once_each(self):
        cfg = SchemeConfig(
            [Component("A", TRIV), Component("B", TRIV)],
            [Singular("P", TRIV)],
            [trivial_branch("b1", "A", "P"), trivial_branch("b2", "B", "P")])
        res = pi1_devissage(cfg)
        assert free_rank(cfg) == 0
        for d in (2, 3):
            assert count_homs(res.presentation, d) == 1

    def test_nontrivial_singular_group(self):
        res = pi1_devissage(nontrivial_Z_config())
        # C2 x Z, computed by hand
        assert count_homs(res.presentation, 2) == 4
        assert count_homs(res.presentation, 3) == 12


class TestDevissage:
    def test_regular_scheme_single_atom(self):
        cfg = SchemeConfig([Component("A", C2)], [], [])
        res = pi1_devissage(cfg)
        assert res.expression == [{"type": "atom", "ref": "component",
                                   "ref_id": "A", "group": C2,
                                   "theorem": "normal-component",
                                   "inputs": {"component": "A"}}]
        for d in (2, 3):
            assert count_homs(res.presentation, d) \
                == count_homs(C2.canonical_presentation, d)

    def test_single_singular_delegates(self):
        a = pi1_devissage(nodal_config())
        assert theorems(a) == ["vk-connected-singular"]
        b = pi1_graph_of_groups(nodal_config())
        for d in (2, 3):
            assert count_homs(a.presentation, d) \
                == count_homs(b.presentation, d)

    def test_theta_counts_are_factorials(self):
        res = pi1_devissage(theta_config())
        for d in (2, 3):
            assert count_homs(res.presentation, d) == factorial(d)

    def test_chain_is_trivial(self):
        res = pi1_devissage(chain_config())
        for d in (2, 3):
            assert count_homs(res.presentation, d) == 1

    def test_order_independence(self):
        cfg = theta_config()
        a = pi1_devissage(cfg, order=("P", "Q"))
        b = pi1_devissage(cfg, order=("Q", "P"))
        for d in (2, 3):
            assert count_homs(a.presentation, d) \
                == count_homs(b.presentation, d)

    def test_simplification_preserves_counts_end_to_end(self):
        for cfg in (nodal_config(), theta_config(), chain_config(),
                    nontrivial_Z_config()):
            res = pi1_devissage(cfg)
            for d in (2, 3):
                assert compare(cfg, d, res).verdict

    def test_derivation_records_split(self):
        res = pi1_devissage(theta_config())
        rules = theorems(res)
        assert "devissage-split" in rules
        # each half of the split has two components, so four glue steps
        assert rules.count("vk-connected-singular") == 4

    def test_deep_chain_needs_no_recursion(self):
        # the CLI writes the same chain out under the same limit too
        n = 300
        cfg = family_config("chain", n, nontrivial=False)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + n // 2)
        try:
            res = pi1_devissage(cfg)
        finally:
            sys.setrecursionlimit(limit)
        assert theorems(res).count("devissage-split") == n - 1
        assert not res.presentation.generators

    def test_theta_relators_stay_short(self):
        # overlap components resolve to the accumulated copy, so shift
        # letters do not pile up on them from one split to the next
        for n in (16, 64):
            res = pi1_devissage(family_config("theta", n))
            assert max(len(r) for r in res.presentation.relators) == 12
        cfg = family_config("theta", 16)
        for d in (2, 3):
            assert count_homs(pi1_devissage(cfg).presentation, d) \
                == count_homs(pi1_graph_of_groups(cfg).presentation, d)

    def test_names_do_not_nest(self):
        # each patch is appended once under its own tag, and nothing
        # appended is renamed at a later split
        for family in ("chain", "theta"):
            longest = {n: max(map(len, pi1_devissage(family_config(
                family, n)).raw_presentation.generators)) for n in (16, 64)}
            assert longest[16] == longest[64], (family, longest)

    def test_form_ii_copies_only_the_patch(self):
        # the union stays in place and only the patch is copied per
        # overlap component, so a theta's raw presentation grows by the
        # same amount per piece instead of doubling
        size = {n: len(pi1_devissage(family_config("theta", n), form="ii")
                       .raw_presentation.generators) for n in (4, 8)}
        assert size[8] <= 3 * size[4], size

    def test_form_iv_appends_no_copy_of_the_union(self):
        # form iv presents the amalgam over the one copy of the union,
        # so its raw presentation is form ii's, not doubled per piece
        cfg = family_config("theta", 8)
        ii, iv = (pi1_devissage(cfg, form=f).raw_presentation
                  for f in ("ii", "iv"))
        assert len(iv.generators) == len(ii.generators) == 97
        assert len(iv.relators) == len(ii.relators)


class TestClosedForm:
    def test_nodal_is_free_of_rank_one(self):
        res = pi1_graph_of_groups(nodal_config())
        assert res.expression == [{
            "type": "free", "rank": 1, "theorem": "graph-of-groups",
            "inputs": {"n": 1, "m": 1, "m_tilde": 2, "rank": 1,
                       "stable_branches": ["b2"]}}]

    def test_regular_scheme_is_single_atom(self):
        cfg = SchemeConfig([Component("A", C2)], [], [])
        res = pi1_graph_of_groups(cfg)
        assert [node["type"] for node in res.expression] == ["atom"]

    def test_semistable_chain_of_c2(self):
        cfg = SchemeConfig(
            [Component("A", C2), Component("B", C2)],
            [Singular("P", TRIV)],
            [trivial_branch("b1", "A", "P", comp_group=C2),
             trivial_branch("b2", "B", "P", comp_group=C2)])
        res = pi1_graph_of_groups(cfg)
        assert root_of(res)["type"] == "coproduct"
        dev = pi1_devissage(cfg)
        for d in (2, 3):
            expected = count_homs(C2.canonical_presentation, d) ** 2
            assert count_homs(res.presentation, d) == expected
            assert count_homs(dev.presentation, d) == expected

    def test_agreement_of_routes_on_random_configs(self):
        rng = random.Random(23)
        tried = 0
        while tried < 8:
            cfg = random_trivial_config(rng, max_components=3,
                                        max_singulars=3, max_branches=5)
            tried += 1
            closed = pi1_graph_of_groups(cfg)
            dev = pi1_devissage(cfg)
            rank = free_rank(cfg)
            for d in (2, 3):
                expected = factorial(d) ** rank
                for comp in cfg.components:
                    expected *= count_homs(comp.group.canonical_presentation,
                                           d)
                assert count_homs(closed.presentation, d) == expected
                assert count_homs(dev.presentation, d) == expected


def random_configs(seed, count):
    """Alternately general and all-trivial-edge random configurations."""
    rng = random.Random(seed)
    for i in range(count):
        yield random_general_config(rng) if i % 2 else \
            random_trivial_config(rng)


class TestGraphOfGroups:
    def test_agrees_with_devissage_on_random_configs(self):
        for cfg in random_configs(29, 120):
            gog = pi1_graph_of_groups(cfg)
            dev = pi1_devissage(cfg)
            for d in (2, 3):
                assert count_homs(gog.presentation, d) \
                    == count_homs(dev.presentation, d)

    def test_passes_the_oracle_on_random_configs(self):
        checked = 0
        for cfg in random_configs(31, 60):
            try:
                report = compare(cfg, 2, pi1_graph_of_groups(cfg))
            except ResourceError:
                continue
            assert report.verdict
            checked += 1
        assert checked >= 30

    def test_no_larger_than_devissage(self):
        configs = list(load_corpus().values())
        configs += [family_config(family, n, nontrivial)
                    for family in ("chain", "star", "theta")
                    for n in (2, 3, 4) for nontrivial in (True, False)]
        for cfg in configs:
            gog = pi1_graph_of_groups(cfg).presentation
            dev = pi1_devissage(cfg).presentation
            assert len(gog.generators) <= len(dev.generators)
            assert len(gog.relators) <= len(dev.relators)

    def test_stable_letters_sit_off_the_spanning_tree(self):
        res = pi1_graph_of_groups(theta_config())
        assert theorems(res) == ["graph-of-groups"]
        # p1, p2, q1 span the incidence graph; q2 closes the cycle
        assert root_of(res)["inputs"] == {"n": 2, "m": 2, "m_tilde": 4,
                                          "rank": 1,
                                          "stable_branches": ["q2"]}

    def test_all_trivial_config_is_the_closed_form_presentation(self):
        cfg = SchemeConfig(
            [Component("A", C2), Component("B", TRIV)],
            [Singular("P", TRIV)],
            [trivial_branch("b1", "A", "P", comp_group=C2),
             trivial_branch("b2", "A", "P", comp_group=C2),
             trivial_branch("b3", "B", "P")])
        res = pi1_graph_of_groups(cfg)
        # the component groups' copies c1, c2, ... and the free letters
        assert res.raw_presentation == Presentation(["c1.g", "free.f1"],
                                                    [((0, 2),)])
        assert root_of(res) == {
            "type": "coproduct", "children": [0, 1],
            "theorem": "graph-of-groups",
            "inputs": {"n": 2, "m": 1, "m_tilde": 3, "rank": 1,
                       "stable_branches": ["b2"]}}

    def test_quotient_node_passes_class_witness(self):
        res = pi1_graph_of_groups(nontrivial_Z_config())
        assert root_of(res) == {
            "type": "quotient", "child": 3, "relations": 2,
            "theorem": "graph-of-groups",
            "inputs": {"n": 1, "m": 1, "m_tilde": 2, "rank": 1,
                       "stable_branches": ["b2"]}}
        assert [node["type"] for node in res.expression] == \
            ["atom", "atom", "free", "coproduct", "quotient"]


C3, S3 = GroupSpec.cyclic(3), GroupSpec.symmetric(3)
# the Klein four-group on two generators g1, g2
KLEIN = GroupSpec.permutation(4, [(1, 0, 3, 2), (2, 3, 0, 1)])


def one_branch_config(comp_group, sing_group, branch_group, psi, phi):
    """Component ``A`` and piece ``P`` joined by one branch, a tree leg
    for each generator of its group."""
    return SchemeConfig(
        [Component("A", comp_group)], [Singular("P", sing_group)],
        [Branch("b", "A", "P", branch_group,
                Homo(branch_group, comp_group, psi),
                Homo(branch_group, sing_group, phi))])


class TestTreeLegMerges:
    """A tree leg whose images are single generators to the same
    exponent, 1 or -1, merges them into the one declared first; every
    other leg stays a relator.  Either way the counts are those of the
    presentation with every leg a relator."""

    def check_counts(self, cfg):
        res = pi1_graph_of_groups(cfg)
        reference = unmerged_graph_of_groups(cfg)
        for d in (2, 3):
            expected = brute_count_homs(reference, d)
            assert brute_count_homs(res.raw_presentation, d) == expected
            assert count_homs(res.presentation, d) == expected
        return res.raw_presentation

    def test_opposite_exponents_do_not_merge(self):
        cfg = one_branch_config(C3, C3, C3, [((0, 1),)], [((0, -1),)])
        raw = self.check_counts(cfg)
        assert raw == Presentation(["c1.g", "s1.g"],
                                   [((0, 3),), ((1, 3),), ((0, 1), (1, 1))])

    def test_longer_image_does_not_merge(self):
        cfg = one_branch_config(S3, C2, C2, [((0, 1), (1, 1), (0, 1))],
                                [((0, 1),)])
        raw = self.check_counts(cfg)
        assert raw.generators == ("c1.s1", "c1.s2", "s1.g")

    def test_two_legs_merge_two_generators_of_one_component(self):
        # phi sends both generators of the Klein group to g, so g1 = g = g2
        cfg = one_branch_config(KLEIN, C2, KLEIN, [((0, 1),), ((1, 1),)],
                                [((0, 1),), ((0, 1),)])
        raw = self.check_counts(cfg)
        assert raw.generators == ("c1.g1",)

    def test_inverse_images_merge_under_the_component_name(self):
        cfg = one_branch_config(C3, C3, C3, [((0, -1),)], [((0, -1),)])
        raw = self.check_counts(cfg)
        # the piece's relator is now a copy of the component's, kept once
        assert raw == Presentation(["c1.g"], [((0, 3),)])

    def test_families_leave_tietze_nothing_to_eliminate(self):
        for family in ("chain", "star", "theta"):
            for n in (2, 3, 8, 64):
                raw = pi1_graph_of_groups(
                    family_config(family, n)).raw_presentation
                simplified, eliminated = tietze_eliminations(raw)
                assert eliminated == []
                assert len(simplified.generators) == len(raw.generators)
