import random
from fractions import Fraction
from math import factorial

import pytest

from singular_pi1 import (Component, GroupSpec, InputError, Limits,
                          ResourceError, SchemeConfig, Singular,
                          attach_connected, compare, count_homs,
                          enumerate_descent_data, groupoid_cardinality,
                          pi1_devissage, pi1_graph_of_groups,
                          transitive_counts)
from support import (brute_connected_count, chain_config, descent_count,
                     elimination_order_reference, family_config,
                     group_actions, iter_descent_data, load_corpus,
                     nodal_config, orbit_groupoid_cardinality,
                     random_general_config, theta_config, trivial_branch,
                     TRIV)

C2 = GroupSpec.cyclic(2)


def connected_reports(cfg, d_max, result=None):
    """Reports at degrees 1..d_max with their Hall-derived connected
    columns."""
    result = result or pi1_graph_of_groups(cfg)
    return attach_connected(cfg, [compare(cfg, d, result)
                                  for d in range(1, d_max + 1)])


def connected_card_times_d_factorial(cfg, report):
    d = report.degree
    card = Fraction(report.connected["rigid_count"],
                    factorial(d) ** (cfg.n + cfg.m))
    return card * factorial(d)


def test_a_raw_invalid_configuration_raises_input_error():
    # a singular piece without branches
    cfg = SchemeConfig([Component("A", C2)], [Singular("P", C2)], [])
    result = pi1_graph_of_groups(SchemeConfig([Component("A", C2)], [], []))
    for call in (lambda: enumerate_descent_data(cfg, 2),
                 lambda: compare(cfg, 2, result)):
        with pytest.raises(InputError, match="singular-incidence"):
            call()

class TestRigidCounts:
    def test_nodal_two_unconstrained_bijections(self):
        assert enumerate_descent_data(nodal_config(), 2) == 4
        assert enumerate_descent_data(nodal_config(), 3) == 36

    def test_regular_c2_counts_square_roots_of_identity(self):
        cfg = SchemeConfig([Component("A", C2)], [], [])
        assert enumerate_descent_data(cfg, 2) == 2
        assert enumerate_descent_data(cfg, 3) == 4

    def test_theta_four_unconstrained_bijections(self):
        assert enumerate_descent_data(theta_config(), 2) == 16

    def test_stream_matches_count(self):
        for cfg in (nodal_config(), chain_config()):
            count = enumerate_descent_data(cfg, 2)
            assert len(list(iter_descent_data(cfg, 2))) == count

    def test_equivariance_filter_vacuous_for_trivial_branch_groups(self):
        cfg = theta_config()
        for datum in iter_descent_data(cfg, 2):
            assert set(datum.branch_bijections) == {"p1", "p2", "q1", "q2"}
            break


class TestContractionMatchesProductLoop:
    """The contracted count against the reference product loop, which
    visits every tuple of piece actions."""

    def test_random_general_configs(self):
        rng = random.Random(7)
        nontrivial = 0
        for _ in range(25):
            cfg = random_general_config(rng)
            for d in (2, 3):
                assert enumerate_descent_data(cfg, d) \
                    == descent_count(cfg, d), (cfg, d)
            nontrivial += any(b.group.order > 1 for b in cfg.branches)
        assert nontrivial >= 5

    @pytest.mark.parametrize("family", ["chain", "star", "theta"])
    def test_families_at_two_pieces(self, family):
        cfg = family_config(family, 2)
        assert enumerate_descent_data(cfg, 3) == descent_count(cfg, 3)

    @pytest.mark.parametrize("n, d", [(2, 4), (4, 3)])
    def test_theta(self, n, d):
        cfg = family_config("theta", n)
        assert enumerate_descent_data(cfg, d) == descent_count(cfg, d)

    def test_nontrivial_z2(self):
        cfg = load_corpus()["nontrivial-Z2"]
        for d in (1, 2, 3, 4):
            assert enumerate_descent_data(cfg, d) == descent_count(cfg, d)


KLEIN = GroupSpec.permutation(4, [(1, 0, 3, 2), (2, 3, 0, 1)])


def presented_s3(a_relators=((0, 2),)):
    from singular_pi1 import Presentation
    return GroupSpec.presented(Presentation(
        ["a", "b"], [*((r,) for r in a_relators), ((1, 3),),
                     ((0, 1), (1, 1)) * 2]))


@pytest.mark.parametrize("group", [
    TRIV, C2, GroupSpec.cyclic(3), GroupSpec.symmetric(3), KLEIN,
    presented_s3(), GroupSpec.cyclic(4), GroupSpec.cyclic(6),
    # a^4 and a^6 on one generator: its candidates are the elements whose
    # order divides gcd(4, 6) = 2
    presented_s3(((0, 4), (0, 6)))],
    ids=["trivial", "C2", "C3", "S3", "Klein", "presented", "C4", "C6",
         "presented-gcd"])
def test_action_search_finds_exactly_the_actions(group):
    from singular_pi1.oracle import _actions
    from singular_pi1.perms import table
    for d in (1, 2, 3, 4, 5):
        perms = table(d).perms
        found = _actions(group, d)
        assert len(set(found)) == len(found)
        assert {tuple(perms[x] for x in a) for a in found} \
            == set(group_actions(group, d)), d


def test_action_classes_are_the_g_set_classes():
    # d-point G-sets up to isomorphism: 5 points are a sum of the
    # trivial (1 point), sign (2) and natural (3) S3-sets in 5 ways, and
    # an involution of 5 points has 0, 1 or 2 transpositions.  S4 has
    # transitive sets of 1, 2, 3, 4 points (one each, the 4-point one
    # being the natural action), which make 6 sums of 5; the Klein group
    # has five transitive sets of at most 4 points, 1 + 3 of size 2 and
    # 1 of size 4, which make 11
    from singular_pi1.oracle import _action_classes
    for group, homs, classes in ((GroupSpec.symmetric(3), 146, 5),
                                 (presented_s3(), 146, 5),
                                 (GroupSpec.symmetric(4), 266, 6),
                                 (KLEIN, 196, 11),
                                 (C2, 26, 3), (TRIV, 1, 1)):
        found = _action_classes(group, 5, Limits())
        assert len(found) == classes
        assert sum(size for _, size in found) == homs


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_one_generator_classes_are_the_orbits_of_the_actions(order):
    # the closed form lists the conjugation orbits of the action search,
    # each conjugated here by all of Sym(d), with the same
    # representatives, the same sizes and in the same order
    from singular_pi1.oracle import _action_classes, _actions
    from singular_pi1.perms import table
    group = GroupSpec.cyclic(order)
    for d in (1, 2, 3, 4, 5):
        T = table(d)
        mul, inv = T.mul, T.inv
        seen, orbits = set(), []
        for a in _actions(group, d):
            if a not in seen:
                orbit = {tuple(mul[mul[inv[g]][x]][g] for x in a)
                         for g in range(T.size)}
                seen |= orbit
                orbits.append((a, len(orbit)))
        assert _action_classes(group, d, Limits()) == orbits, d


def test_single_class_pieces_are_fixed_without_elimination(monkeypatch):
    # a piece with one class is fixed at it: a configuration of trivial
    # groups, at any degree, and every configuration at degree 1 are a
    # product of table entries, d!^(branches) and 1
    import singular_pi1.oracle as oracle

    contracted = []
    contract = oracle._contract
    monkeypatch.setattr(oracle, "_contract",
                        lambda *args: contracted.append(args)
                        or contract(*args))
    configs = load_corpus()
    trivial = {name for name, cfg in configs.items()
               if not any(p.group.canonical_presentation.generators
                          for p in (*cfg.components, *cfg.singulars))}
    assert trivial == {"chain", "nodal", "star", "theta"}
    for family in ("chain", "star", "theta"):
        configs[f"{family}-trivial-8"] = family_config(family, 8, False)
        trivial.add(f"{family}-trivial-8")
    for name, cfg in configs.items():
        for d in (1, 2, 3, 4, 5) if name in trivial else (1,):
            assert enumerate_descent_data(cfg, d) \
                == factorial(d) ** cfg.m_tilde, (name, d)
    assert not contracted
    # a nontrivial-Z2 piece at degree 2 still has two classes
    enumerate_descent_data(configs["nontrivial-Z2"], 2)
    assert contracted


@pytest.mark.parametrize("name, estimate", [("nontrivial-Z2", 44),
                                            ("semistable-C2", 22)])
def test_a_fixed_piece_is_charged_one_step(name, estimate):
    # at degree 2, nontrivial-Z2 charges its actions 3, its restrictions
    # 4 * 5, its tables 4 + 2 and its elimination 8 + 4 + 2 for P, A
    # and B and 1 for the trivial piece Q, which joins A and B through
    # no table; semistable-C2 charges 3 + 4 * 3 + 2 + (1 + 2 + 2)
    cfg = load_corpus()[name]
    with pytest.raises(ResourceError) as err:
        enumerate_descent_data(cfg, 2, Limits(ceiling=estimate - 1))
    assert err.value.estimate == estimate
    assert enumerate_descent_data(cfg, 2, Limits(ceiling=estimate)) \
        == descent_count(cfg, 2)


@pytest.mark.parametrize("group", [
    TRIV, C2, GroupSpec.cyclic(3), KLEIN, GroupSpec.symmetric(3)],
    ids=["trivial", "C2", "C3", "Klein", "S3"])
def test_branch_tables_match_the_intertwiner_scan(group):
    # random actions and random conjugates of them, with the trivial
    # action (non-faithful, and non-transitive for d > 1) on each side,
    # restricted through the identity and through random words
    from singular_pi1.oracle import _actions, _branch_table, _restrict
    from singular_pi1.perms import table
    from support import branch_table_scan
    rng = random.Random(repr(group))
    n = len(group.canonical_presentation.generators)
    ident = tuple(((k, 1),) for k in range(n))
    nonzero = 0
    for d in (2, 3, 4, 5):
        T = table(d)
        mul, inv = T.mul, T.inv
        actions = _actions(group, d)
        comp = rng.sample(actions, min(6, len(actions)))
        comp.append((T.identity,) * n)
        sing = []
        for a in comp:
            g = rng.randrange(T.size)
            sing.append(tuple(mul[mul[inv[g]][x]][g] for x in a))
        sing += rng.sample(actions, min(3, len(actions)))
        rng.shuffle(sing)
        comp, sing = [(a, 1) for a in comp], [(a, 1) for a in sing]
        words = tuple(
            tuple((rng.randrange(n), rng.choice((-2, -1, 1, 2)))
                  for _ in range(rng.randint(0, 3)))
            for _ in range(n))
        for psi, phi in ((ident, ident), (words, ident), (ident, words)):
            got = _branch_table(_restrict(d, psi, comp),
                                _restrict(d, phi, sing))
            assert got == branch_table_scan(T, psi, phi, comp, sing), d
            nonzero += sum(1 for v in got.values() if v)
    assert nonzero >= 8


def test_elimination_order_matches_the_plain_greedy():
    # few domain sizes, so that many candidates tie on size, and repeated
    # branches between one component and one singular piece
    from singular_pi1.oracle import _elimination_order
    rng = random.Random(41)
    for _ in range(300):
        n, m = rng.randint(1, 9), rng.randint(0, 9)
        ends = [(rng.randrange(n), s) for s in range(n, n + m)]
        ends += [(rng.randrange(n), rng.randrange(n, n + m))
                 for _ in range(rng.randint(0, 2 * m) if m else 0)]
        rng.shuffle(ends)
        domains = [rng.choice((1, 2, 2, 3)) for _ in range(n + m)]
        assert _elimination_order(n, ends, domains) \
            == elimination_order_reference(n, ends, domains), \
            (n, ends, domains)


@pytest.mark.parametrize("family", ["chain", "star", "theta"])
def test_elimination_multiplies_linearly_many_factors(family, monkeypatch):
    """Eliminating a variable changes only its neighbours' sizes, so the
    factors the greedy order multiplies grow with the number of pieces,
    and a star's hub is not re-multiplied at every step."""
    import singular_pi1.oracle as oracle

    factors = 0
    real = oracle.prod

    def counting(items):
        nonlocal factors
        items = list(items)
        factors += len(items)
        return real(items)

    monkeypatch.setattr(oracle, "prod", counting)
    multiplied = {}
    for n in (64, 128):
        cfg = family_config(family, n)
        factors = 0
        enumerate_descent_data(cfg, 2)
        multiplied[n] = factors
    assert multiplied[128] <= 2.2 * multiplied[64], multiplied


def test_trivial_groups_build_no_table_of_sym_d():
    # the corpus chain has only trivial groups, and its presentation is
    # free, so neither counter needs Sym(d); nontrivial-Z2 still does
    import contextlib
    import hashlib
    import io
    import json
    from importlib import resources
    from pathlib import Path

    from singular_pi1 import perms
    from singular_pi1.cli import main

    golden = json.loads(Path(__file__).with_name("golden_cli.json")
                        .read_text(encoding="utf-8"))
    corpus = resources.files("singular_pi1") / "configs"

    def verify(name, *flags):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["verify", str(corpus / f"{name}.json"), *flags])
        return code, buf.getvalue()

    def pinned(name, *flags):
        code, out = verify(name, *flags)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert [code, digest] == golden[" ".join(
            [f"corpus/{name}", "verify", *flags])]

    perms.table.cache_clear()
    code, out = verify("chain", "--degree-max", "5", "--connected")
    assert perms.table.cache_info().currsize == 0
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["degree"] for r in reports] == [2, 3, 4, 5]
    assert {r["verdict"] for r in reports} \
        | {r["connected"]["verdict"] for r in reports} == {"pass"}
    pinned("chain", "--degree-max", "3", "--connected")
    assert perms.table.cache_info().currsize == 0
    pinned("nontrivial-Z2", "--degree-max", "3", "--connected")
    assert perms.table.cache_info().currsize == 3


class TestGroupoidCardinality:
    def test_nodal(self):
        assert groupoid_cardinality(nodal_config(), 2) == 1
        assert groupoid_cardinality(nodal_config(), 3) == 1

    def test_regular_schemes(self):
        c2_scheme = SchemeConfig([Component("A", C2)], [], [])
        assert groupoid_cardinality(c2_scheme, 2) == 1
        trivial_scheme = SchemeConfig([Component("A", TRIV)], [], [])
        assert groupoid_cardinality(trivial_scheme, 3) == Fraction(1, 6)

    def test_orbit_stabilizer_identity_small_cases(self):
        # explicit orbit enumeration under the relabeling action
        from singular_pi1 import Branch, Homo

        ident = Homo(C2, C2, (((0, 1),),))
        nontrivial = SchemeConfig(
            [Component("A", C2)], [Singular("P", C2)],
            [Branch("b1", "A", "P", C2, ident, ident),
             Branch("b2", "A", "P", C2, ident, ident)])
        cases = [
            (SchemeConfig([Component("A", TRIV)], [], []), 2),
            (SchemeConfig([Component("A", C2)], [], []), 2),
            (nodal_config(), 2),
            (SchemeConfig(
                [Component("A", TRIV)], [Singular("P", TRIV)],
                [trivial_branch("b", "A", "P")]), 2),
            (nontrivial, 2),
        ]
        for cfg, d in cases:
            assert orbit_groupoid_cardinality(cfg, d) \
                == groupoid_cardinality(cfg, d)


class TestCompare:
    def test_nodal_master_identity(self):
        result = pi1_devissage(nodal_config())
        for d in (2, 3):
            report = compare(nodal_config(), d, result)
            assert report.verdict
            assert report.groupoid_cardinality * factorial(d) \
                == report.presentation_count

    def test_verdict_fails_on_wrong_presentation(self):
        from singular_pi1 import free_presentation

        class Fake:
            presentation = free_presentation(2)

        report = compare(nodal_config(), 2, Fake())
        assert not report.verdict

    def test_report_serialization(self):
        report = compare(nodal_config(), 2, pi1_devissage(nodal_config()))
        doc = report.to_json()
        assert doc["verdict"] == "pass"
        assert doc["groupoid_cardinality"] == {"num": 1, "den": 1}


class TestConnectedCounts:
    def test_nodal_connected_matches_transitive_homs(self):
        cfg = nodal_config()
        for report in connected_reports(cfg, 3, pi1_devissage(cfg))[1:]:
            assert report.connected["rigid_count"] \
                == brute_connected_count(cfg, report.degree)
            assert connected_card_times_d_factorial(cfg, report) \
                == report.connected["transitive_homs"]

    def test_trivial_regular_scheme_has_no_connected_double_cover(self):
        cfg = SchemeConfig([Component("A", TRIV)], [], [])
        assert brute_connected_count(cfg, 2) == 0
        assert connected_reports(cfg, 2)[1].connected["rigid_count"] == 0

    def test_theta_connected_covers(self):
        cfg = theta_config()
        report = connected_reports(cfg, 2, pi1_devissage(cfg))[1]
        assert report.connected["rigid_count"] == brute_connected_count(cfg, 2)
        # infinite cyclic group: one transitive action at each degree
        assert report.connected["transitive_homs"] == 1
        assert connected_card_times_d_factorial(cfg, report) == 1

    def test_chain_matches_enumeration(self):
        cfg = chain_config()
        for report in connected_reports(cfg, 3)[1:]:
            assert report.connected["rigid_count"] \
                == brute_connected_count(cfg, report.degree)
            assert report.connected["verdict"] == "pass"

    def test_random_general_configs_match_enumeration(self):
        # at most four branches: the reference visits every rigid datum
        rng = random.Random(31)
        nontrivial = 0
        for _ in range(12):
            cfg = random_general_config(rng, max_components=2,
                                        max_singulars=2, max_branches=4)
            for report in connected_reports(cfg, 3)[1:]:
                assert report.connected["rigid_count"] \
                    == brute_connected_count(cfg, report.degree), \
                    (cfg, report.degree)
                assert report.connected["verdict"] == "pass"
            nontrivial += any(b.group.order > 1 for b in cfg.branches)
        assert nontrivial >= 3


class TestDescentDatumInvariants:
    def test_actions_respect_relators_and_branches_are_equivariant(self):
        from singular_pi1 import Branch, Homo
        from singular_pi1.perms import compose, identity, invert

        ident = Homo(C2, C2, (((0, 1),),))
        cfg = SchemeConfig(
            [Component("A", C2)], [Singular("P", C2)],
            [Branch("b1", "A", "P", C2, ident, ident),
             Branch("b2", "A", "P", C2, ident, ident)])
        d = 3
        count = 0
        for datum in iter_descent_data(cfg, d):
            rho = datum.component_actions["A"]
            tau = datum.singular_actions["P"]
            assert compose(rho[0], rho[0]) == identity(d)
            assert compose(tau[0], tau[0]) == identity(d)
            for bid in ("b1", "b2"):
                lam = datum.branch_bijections[bid]
                # lam . rho(psi(a)) == tau(phi(a)) . lam, as functions
                assert compose(rho[0], lam) == compose(lam, tau[0])
            count += 1
        assert count == enumerate_descent_data(cfg, d)

    def test_enumeration_is_deterministic(self):
        cfg = nodal_config()
        first = [(d.component_actions, d.singular_actions,
                  d.branch_bijections) for d in iter_descent_data(cfg, 2)]
        second = [(d.component_actions, d.singular_actions,
                   d.branch_bijections) for d in iter_descent_data(cfg, 2)]
        assert first == second


class TestResourceGuards:
    def test_ceiling_estimate_reported(self):
        tight = Limits(ceiling=4)
        with pytest.raises(ResourceError) as err:
            enumerate_descent_data(theta_config(), 3, tight)
        assert err.value.layer == "oracle"
        assert err.value.ceiling == 4
        assert err.value.estimate is not None and err.value.estimate > 4

    def test_action_search_is_gated(self):
        # both S3 generators have 10 candidates at degree 4, so the
        # action search's second level alone tries 100 pairs
        with pytest.raises(ResourceError) as err:
            enumerate_descent_data(family_config("chain", 2), 4,
                                   Limits(ceiling=30))
        assert err.value.layer == "oracle"
        assert err.value.ceiling == 30
        assert err.value.estimate > 30
        assert f"estimate {err.value.estimate} " in str(err.value)

    def test_degree_bound(self):
        with pytest.raises(ResourceError) as err:
            enumerate_descent_data(nodal_config(), 7)
        assert (err.value.estimate, err.value.ceiling) == (7, 5)
        assert str(err.value) == "degree 7 exceeds the configured bound 5"


def test_master_identity_on_random_general_configs():
    # end-to-end: random configurations with non-trivial singular and
    # branch data, compared against the descent-data enumeration
    import random

    from singular_pi1 import validate
    from support import random_general_config

    rng = random.Random(99)
    nontrivial = 0
    for _ in range(25):
        cfg = random_general_config(rng)
        assert validate(cfg).ok
        result = pi1_devissage(cfg)
        for d in (2, 3):
            report = compare(cfg, d, result)
            assert report.verdict, (cfg, d)
        nontrivial += any(s.group.order > 1 for s in cfg.singulars) \
            or any(b.group.order > 1 for b in cfg.branches)
    assert nontrivial >= 5


def test_master_identity_with_permutation_and_presented_kinds():
    from singular_pi1 import Branch
    from support import standard_hom

    klein, s3 = KLEIN, presented_s3()
    h = GroupSpec.cyclic(2)
    cfg = SchemeConfig(
        [Component("A", klein), Component("B", s3)],
        [Singular("P", h)],
        [Branch("b1", "A", "P", h, standard_hom(h, klein),
                standard_hom(h, h)),
         Branch("b2", "B", "P", h, standard_hom(h, s3),
                standard_hom(h, h))])
    for report in connected_reports(cfg, 3, pi1_devissage(cfg))[1:]:
        assert report.verdict
        assert report.connected["verdict"] == "pass"


def test_master_identity_trivial_groups_forces_rank_formula():
    # with all groups trivial the rigid count is (d!)^branches and the
    # identity pins the hom count to (d!)^(cycle rank)
    from singular_pi1 import free_rank
    for cfg in (nodal_config(), theta_config(), chain_config()):
        for d in (2, 3):
            assert enumerate_descent_data(cfg, d) \
                == factorial(d) ** cfg.m_tilde
            result = pi1_devissage(cfg)
            assert count_homs(result.presentation, d) \
                == factorial(d) ** free_rank(cfg)


def test_closed_form_route_also_passes_the_oracle():
    from singular_pi1 import pi1_graph_of_groups
    for cfg in (nodal_config(), theta_config(), chain_config()):
        result = pi1_graph_of_groups(cfg)
        for d in (2, 3):
            assert compare(cfg, d, result).verdict


def test_transitive_counts_of_the_infinite_cyclic_group():
    # transitive actions of one free generator on d points are the
    # d-cycles: (d-1)! of them
    pres = pi1_devissage(nodal_config()).presentation
    transitive = transitive_counts([count_homs(pres, d) for d in (1, 2, 3, 4)])
    assert transitive[2] == 2
    assert transitive[3] == 6
