import json
import random

import pytest

import singular_pi1.scheme as scheme
from singular_pi1 import (Branch, Component, GroupSpec, Homo, InputError,
                          SchemaError, SchemeConfig, Singular, compare,
                          devissage_order, devissage_splits,
                          enumerate_descent_data, free_rank,
                          parse_scheme_config, pi1_devissage,
                          pi1_graph_of_groups, scheme_config_to_json,
                          validate)
from support import (build_union, chain_config, connected_order_reference,
                     connected_reference, count_calls,
                     devissage_order_reference,
                     family_config, load_corpus, nodal_config,
                     off_forest_reference, random_general_config,
                     random_trivial_config, split_unions, theta_config,
                     trivial_branch, walk, TRIV)
from test_golden_cli import VALID_CALLS, configs


def star_config():
    comps = [Component("hub", TRIV)] + [Component(f"L{i}", TRIV)
                                        for i in (1, 2, 3)]
    sings = [Singular(f"P{i}", TRIV) for i in (1, 2, 3)]
    branches = []
    for i in (1, 2, 3):
        branches.append(trivial_branch(f"h{i}", "hub", f"P{i}"))
        branches.append(trivial_branch(f"l{i}", f"L{i}", f"P{i}"))
    return SchemeConfig(comps, sings, branches)


class TestValidate:
    def test_regular_scheme_ok(self):
        cfg = SchemeConfig([Component("A", TRIV)], [], [])
        assert validate(cfg).ok

    def test_nodal_ok(self):
        assert validate(nodal_config()).ok

    def test_two_components_without_branches_disconnected(self):
        cfg = SchemeConfig([Component("A", TRIV), Component("B", TRIV)],
                           [], [])
        result = validate(cfg)
        assert not result.ok and result.invariant == "component-incidence"

    def test_disconnected_graph_reports_isolated_vertices(self):
        # two nodal curves side by side
        cfg = SchemeConfig(
            [Component("A", TRIV), Component("B", TRIV)],
            [Singular("P", TRIV), Singular("Q", TRIV)],
            [trivial_branch("b1", "A", "P"), trivial_branch("b2", "A", "P"),
             trivial_branch("b3", "B", "Q"), trivial_branch("b4", "B", "Q")])
        result = validate(cfg)
        assert not result.ok and result.invariant == "connected"
        assert result.ids

    def test_dangling_singular(self):
        cfg = SchemeConfig([Component("A", TRIV)], [Singular("P", TRIV)], [])
        result = validate(cfg)
        assert not result.ok and result.invariant == "singular-incidence"

    def test_unresolved_reference(self):
        cfg = SchemeConfig([Component("A", TRIV)], [Singular("P", TRIV)],
                           [trivial_branch("b", "A", "XX")])
        result = validate(cfg)
        assert not result.ok and result.invariant == "resolve"

    def test_duplicate_ids(self):
        cfg = SchemeConfig([Component("A", TRIV), Component("A", TRIV)], [],
                           [])
        result = validate(cfg)
        assert not result.ok and result.invariant == "unique-ids"

    def test_empty_configuration_rejected(self):
        result = validate(SchemeConfig([], [], []))
        assert not result.ok and result.invariant == "component-count"

    def test_branch_map_endpoints_checked(self):
        c2 = GroupSpec.cyclic(2)
        bad = trivial_branch("b", "A", "P", comp_group=c2)  # but comp is TRIV
        cfg = SchemeConfig([Component("A", TRIV)], [Singular("P", TRIV)],
                           [bad, trivial_branch("b2", "A", "P")])
        result = validate(cfg)
        assert not result.ok and result.invariant == "branch-maps"


def _branch(bid, cid, sid, group=None, psi=(None, None), phi=(None, None)):
    """A branch with trivial attaching maps.  Its group and each map's
    source and target are fresh trivial groups unless given, so the
    checks of ``validate`` compare groups that are equal but not the
    same object."""
    def fresh(group):
        return group or GroupSpec.trivial()
    return Branch(bid, cid, sid, fresh(group),
                  Homo.trivial(fresh(psi[0]), fresh(psi[1])),
                  Homo.trivial(fresh(phi[0]), fresh(phi[1])))


def _pieces(kind, *ids):
    return [kind(i, GroupSpec.trivial()) for i in ids]


def _nodal_pair():
    return [_branch("b1", "A", "P"), _branch("b2", "A", "P")]


# one configuration per verdict of ``validate``; the "then-" rows break
# two invariants and pin which verdict is reported
VERDICT_CONFIGS = {
    "ok": lambda: SchemeConfig(_pieces(Component, "A"),
                               _pieces(Singular, "P"), _nodal_pair()),
    "unique-ids-component": lambda: SchemeConfig(
        _pieces(Component, "B", "A", "B", "A"), _pieces(Singular, "P"),
        _nodal_pair()),
    "unique-ids-singular": lambda: SchemeConfig(
        _pieces(Component, "A"), _pieces(Singular, "Q", "P", "Q"),
        _nodal_pair()),
    "unique-ids-branch": lambda: SchemeConfig(
        _pieces(Component, "A"), _pieces(Singular, "P"),
        [_branch("b", "A", "P"), _branch("b", "A", "P")]),
    "component-count": lambda: SchemeConfig([], [], []),
    "resolve-component": lambda: SchemeConfig(
        _pieces(Component, "A"), _pieces(Singular, "P"),
        [_branch("b1", "A", "P"), _branch("b2", "X", "P")]),
    "resolve-singular": lambda: SchemeConfig(
        _pieces(Component, "A"), _pieces(Singular, "P"),
        [_branch("b1", "A", "P"), _branch("b2", "A", "X")]),
    "branch-maps-psi-source": lambda: SchemeConfig(
        _pieces(Component, "A"), _pieces(Singular, "P"),
        [_branch("b1", "A", "P", GroupSpec.cyclic(2),
                 psi=(GroupSpec.cyclic(3), None),
                 phi=(GroupSpec.cyclic(2), None)),
         _branch("b2", "A", "P")]),
    "branch-maps-phi-source": lambda: SchemeConfig(
        _pieces(Component, "A"), _pieces(Singular, "P"),
        [_branch("b1", "A", "P", GroupSpec.cyclic(2),
                 psi=(GroupSpec.cyclic(2), None),
                 phi=(GroupSpec.cyclic(3), None)),
         _branch("b2", "A", "P")]),
    "branch-maps-psi-target": lambda: SchemeConfig(
        _pieces(Component, "A"), _pieces(Singular, "P"),
        [_branch("b1", "A", "P"),
         _branch("b2", "A", "P", psi=(None, GroupSpec.cyclic(2)))]),
    "branch-maps-phi-target": lambda: SchemeConfig(
        _pieces(Component, "A"), _pieces(Singular, "P"),
        [_branch("b1", "A", "P"),
         _branch("b2", "A", "P", phi=(None, GroupSpec.cyclic(2)))]),
    "singular-incidence": lambda: SchemeConfig(
        _pieces(Component, "A"), _pieces(Singular, "P", "Q", "R"),
        [_branch("b1", "A", "Q"), _branch("b2", "A", "P")]),
    "component-incidence": lambda: SchemeConfig(
        _pieces(Component, "A", "B", "C"), _pieces(Singular, "P"),
        _nodal_pair()),
    "connected": lambda: SchemeConfig(
        _pieces(Component, "A", "B", "C"), _pieces(Singular, "P", "Q"),
        [_branch("b1", "B", "Q"), _branch("b2", "A", "P"),
         _branch("b3", "C", "Q")]),
    "then-resolve-after-an-earlier-map": lambda: SchemeConfig(
        _pieces(Component, "A"), _pieces(Singular, "P"),
        [_branch("b1", "A", "P", phi=(None, GroupSpec.cyclic(2))),
         _branch("b2", "A", "X")]),
    "then-phi-source-before-psi-target": lambda: SchemeConfig(
        _pieces(Component, "A"), _pieces(Singular, "P"),
        [_branch("b1", "A", "P"),
         _branch("b2", "A", "P", psi=(None, GroupSpec.cyclic(2)),
                 phi=(GroupSpec.cyclic(2), None))]),
    "then-singular-before-component-incidence": lambda: SchemeConfig(
        _pieces(Component, "A", "B"), _pieces(Singular, "P", "Q"),
        _nodal_pair()),
    "then-unique-ids-before-resolve": lambda: SchemeConfig(
        _pieces(Component, "A"), _pieces(Singular, "P"),
        [_branch("b", "A", "X"), _branch("b", "A", "P")]),
}

VERDICTS = {
    "ok": {"ok": True},
    "unique-ids-component": {
        "ok": False, "invariant": "unique-ids",
        "message": "duplicate component ids", "ids": ["A", "B"]},
    "unique-ids-singular": {
        "ok": False, "invariant": "unique-ids",
        "message": "duplicate singular ids", "ids": ["Q"]},
    "unique-ids-branch": {
        "ok": False, "invariant": "unique-ids",
        "message": "duplicate branch ids", "ids": ["b"]},
    "component-count": {
        "ok": False, "invariant": "component-count",
        "message": "at least one component is required", "ids": []},
    "resolve-component": {
        "ok": False, "invariant": "resolve",
        "message": "branch b2 references unknown component X",
        "ids": ["b2"]},
    "resolve-singular": {
        "ok": False, "invariant": "resolve",
        "message": "branch b2 references unknown singular piece X",
        "ids": ["b2"]},
    "branch-maps-psi-source": {
        "ok": False, "invariant": "branch-maps",
        "message": "branch b1: psi does not start at the branch group",
        "ids": ["b1"]},
    "branch-maps-phi-source": {
        "ok": False, "invariant": "branch-maps",
        "message": "branch b1: phi does not start at the branch group",
        "ids": ["b1"]},
    "branch-maps-psi-target": {
        "ok": False, "invariant": "branch-maps",
        "message": "branch b2: psi does not land in the component group",
        "ids": ["b2"]},
    "branch-maps-phi-target": {
        "ok": False, "invariant": "branch-maps",
        "message": "branch b2: phi does not land in the singular group",
        "ids": ["b2"]},
    "singular-incidence": {
        "ok": False, "invariant": "singular-incidence",
        "message": "singular piece R has no branch", "ids": ["R"]},
    "component-incidence": {
        "ok": False, "invariant": "component-incidence",
        "message": "component B has no branch", "ids": ["B"]},
    "connected": {
        "ok": False, "invariant": "connected",
        "message": "incidence graph is disconnected",
        "ids": ["c:B", "c:C", "s:Q"]},
    "then-resolve-after-an-earlier-map": {
        "ok": False, "invariant": "resolve",
        "message": "branch b2 references unknown singular piece X",
        "ids": ["b2"]},
    "then-phi-source-before-psi-target": {
        "ok": False, "invariant": "branch-maps",
        "message": "branch b2: phi does not start at the branch group",
        "ids": ["b2"]},
    "then-singular-before-component-incidence": {
        "ok": False, "invariant": "singular-incidence",
        "message": "singular piece Q has no branch", "ids": ["Q"]},
    "then-unique-ids-before-resolve": {
        "ok": False, "invariant": "unique-ids",
        "message": "duplicate branch ids", "ids": ["b"]},
}

# written as JSON and read back, a configuration has one group per group
# JSON; the parser refuses an unknown id and builds each map between its
# branch's declared groups, so these rows read differently
JSON_VERDICTS = {
    "resolve-component": "$.branches[1].component: unknown component id 'X'",
    "resolve-singular": "$.branches[1].singular: unknown singular id 'X'",
    "branch-maps-psi-source": {"ok": True},
    "branch-maps-phi-source": {"ok": True},
    "branch-maps-psi-target": {"ok": True},
    "branch-maps-phi-target": {"ok": True},
    "then-resolve-after-an-earlier-map":
        "$.branches[1].singular: unknown singular id 'X'",
    "then-phi-source-before-psi-target":
        "$.branches[1].phi.g: unknown branch-group generator 'g'",
    "then-unique-ids-before-resolve":
        "$.branches[0].singular: unknown singular id 'X'",
}


class TestVerdicts:
    @pytest.mark.parametrize("name", sorted(VERDICT_CONFIGS))
    def test_each_verdict_is_pinned_from_both_entries(self, name):
        cfg = VERDICT_CONFIGS[name]()
        assert validate(cfg).to_json() == VERDICTS[name]
        # only a valid configuration carries a record
        assert (cfg._incidence is not None) == (name == "ok")
        doc = json.loads(json.dumps(scheme_config_to_json(cfg)))
        want = JSON_VERDICTS.get(name, VERDICTS[name])
        try:
            parsed = parse_scheme_config(doc)
        except SchemaError as exc:
            assert str(exc) == want
            return
        # a parse leaves a record exactly on a valid configuration
        assert (parsed._incidence is not None) == (want == {"ok": True})
        assert validate(parsed).to_json() == want

    def test_a_configuration_keeps_its_sequences_as_tuples(self):
        # a record left on a configuration cannot go stale
        for cfg in (nodal_config(), VERDICT_CONFIGS["ok"](),
                    parse_scheme_config(scheme_config_to_json(
                        theta_config()))):
            assert all(type(seq) is tuple for seq in
                       (cfg.components, cfg.singulars, cfg.branches))


def _index_configs():
    rng = random.Random(41)
    return ([random_trivial_config(rng) for _ in range(40)]
            + [random_general_config(rng) for _ in range(40)]
            + [family_config(family, n, nontrivial)
               for family in ("chain", "star", "theta")
               for n in (1, 2, 5, 16) for nontrivial in (True, False)]
            + list(load_corpus().values()))


class TestIncidence:
    def test_record_agrees_with_references(self):
        for cfg in _index_configs():
            inc = scheme.incidence(cfg)
            slot = {("c", c.id): k for k, c in enumerate(cfg.components)}
            slot.update({("s", s.id): cfg.n + j
                         for j, s in enumerate(cfg.singulars)})
            assert inc.ends == [(slot["c", b.component], slot["s", b.singular])
                                for b in cfg.branches]
            assert [[cfg.branches[k] for k in mine] for mine in inc.over] \
                == [[b for b in cfg.branches if b.singular == s.id]
                    for s in cfg.singulars]
            assert [cfg.branches[k].id for k in inc.extra] \
                == off_forest_reference(cfg)
            assert len(inc.extra) == cfg.m_tilde - cfg.m - cfg.n + 1

    def test_a_parse_leaves_the_record_validation_computes(self):
        # the corpus, the golden set's valid configurations and the
        # families, parsed, against their parts rebuilt in Python
        docs = [doc for _, doc, calls in configs() if calls is VALID_CALLS]
        docs += [scheme_config_to_json(family_config(family, n, nontrivial))
                 for family in ("chain", "star", "theta")
                 for nontrivial in (True, False) for n in (1, 8)]
        assert len(docs) == 37

        def record(cfg):
            inc = cfg._incidence
            return inc.ends, inc.over, inc.extra

        for doc in docs:
            parsed = parse_scheme_config(json.loads(json.dumps(doc)))
            built = SchemeConfig(parsed.components, parsed.singulars,
                                 parsed.branches)
            assert parsed._incidence is not None
            assert built._incidence is None and validate(built).ok
            assert record(parsed) == record(built)

    def test_readers_take_the_record_of_one_union_find(self, monkeypatch):
        # a configuration built in Python is validated by its first
        # reader, a parsed one by its parse; the others read the record
        calls = count_calls(monkeypatch, scheme, "validate", "_resolve",
                            "_forest")
        for built in _index_configs():
            doc = json.loads(json.dumps(scheme_config_to_json(built)))
            for parse in (False, True):
                for seen in calls.values():
                    seen.clear()
                cfg = parse_scheme_config(doc) if parse else SchemeConfig(
                    built.components, built.singulars, built.branches)
                scheme.incidence(cfg)
                pi1_graph_of_groups(cfg)
                if cfg.m:
                    list(devissage_splits(cfg))
                assert {name: len(seen) for name, seen in calls.items()} \
                    == {"validate": 1 - parse, "_resolve": 1 - parse,
                        "_forest": 1}

    def test_public_entries_validate_one_object_once(self, monkeypatch):
        # one object through every public entry that reads it: a parsed
        # one is checked by its parse, one built in Python by its first
        # reader
        built = load_corpus()["theta"]
        doc = json.loads(json.dumps(scheme_config_to_json(built)))
        calls = count_calls(monkeypatch, scheme, "validate", "_resolve",
                            "_forest")
        for parse in (False, True):
            for seen in calls.values():
                seen.clear()
            cfg = parse_scheme_config(doc) if parse else SchemeConfig(
                built.components, built.singulars, built.branches)
            result = pi1_graph_of_groups(cfg)
            assert compare(cfg, 2, result).verdict
            assert compare(cfg, 3, result).verdict
            pi1_devissage(cfg)
            free_rank(cfg)
            devissage_order(cfg)
            enumerate_descent_data(cfg, 2)
            assert {name: len(seen) for name, seen in calls.items()} \
                == {"validate": 1 - parse, "_resolve": 1 - parse,
                    "_forest": 1}


def _split(cfg, sid):
    """The split of piece ``sid`` in the dévissage's greedy walk."""
    return next(split for prefix, split in walk(cfg) if prefix[-1] == sid)


def _ids(cfg, slots):
    return [cfg.components[c].id for c in slots]


def _declared(cfg, rng):
    """``cfg`` with its singular pieces declared in a shuffled order."""
    sings = list(cfg.singulars)
    rng.shuffle(sings)
    return SchemeConfig(cfg.components, sings, cfg.branches)


class TestPatches:
    def test_nodal_patch_is_whole_config(self):
        cfg = nodal_config()
        split = _split(cfg, "P")
        assert _ids(cfg, split.comps) == ["A"]
        assert len(split.branches) == 2

    def test_chain_patch(self):
        cfg = chain_config()
        split = _split(cfg, "P")
        assert _ids(cfg, split.comps) == ["A", "B"]
        assert cfg.singulars[split.piece - cfg.n].id == "P"
        assert len(split.branches) == 2

    def test_walk_patches_partition_branches_and_pieces(self, monkeypatch):
        # the walk builds no configuration, and its patches share out
        # the branches and the pieces
        built, init = [], SchemeConfig.__init__

        def counted(self, *parts):
            built.append(self)
            init(self, *parts)

        cases = [cfg for cfg in (chain_config(), theta_config(),
                                 star_config(), family_config("theta", 5),
                                 *load_corpus().values()) if cfg.m]
        for cfg in cases:
            scheme.incidence(cfg)
        monkeypatch.setattr(SchemeConfig, "__init__", counted)
        for cfg in cases:
            splits = list(devissage_splits(cfg))
            assert sorted(k for s in splits for k in s.branches) \
                == list(range(cfg.m_tilde))
            assert sorted(s.piece for s in splits) \
                == list(range(cfg.n, cfg.n + cfg.m))
        assert built == []

    def test_unknown_id(self):
        with pytest.raises(InputError, match="must be a permutation"):
            list(devissage_splits(nodal_config(), ("nope",)))


class TestDevissageOrder:
    def test_single_singular(self):
        assert devissage_order(nodal_config()) == ("P",)

    def test_chain_order_prefers_declaration(self):
        assert devissage_order(chain_config()) == ("P", "Q")

    def test_star_order(self):
        assert devissage_order(star_config()) == ("P1", "P2", "P3")

    def test_check_order_accepts_valid_permutations(self):
        cfg = theta_config()
        assert [prefix for prefix, _ in walk(cfg, ("Q", "P"))][-1] \
            == ("Q", "P")
        with pytest.raises(InputError):
            list(devissage_splits(cfg, ("P",)))

    def test_prefix_connectivity_on_random_configs(self):
        rng = random.Random(13)
        for _ in range(20):
            cfg = random_trivial_config(rng)
            if cfg.m < 1:
                continue
            order = devissage_order(cfg)
            for r in range(1, len(order) + 1):
                assert connected_reference(build_union(cfg, order[:r]))

    def test_greedy_order_agrees_with_reference(self):
        # shuffled declarations make the greedy pass over pieces whose
        # patch does not meet the union yet
        rng = random.Random(29)
        cases = [random_trivial_config(rng, max_singulars=6, max_branches=10)
                 for _ in range(120)]
        cases += [random_general_config(rng) for _ in range(40)]
        cases += [family_config(rng.choice(("chain", "star", "theta")),
                                rng.randint(1, 8), rng.random() < 0.5)
                  for _ in range(80)]
        checked = skipped = 0
        for cfg in cases:
            if cfg.m < 1:
                continue
            cfg = _declared(cfg, rng)
            order = devissage_order(cfg)
            assert order == devissage_order_reference(cfg)
            skipped += order != tuple(s.id for s in cfg.singulars)
            checked += 1
        assert checked >= 200 and skipped >= 20

    def test_given_orders_agree_with_reference(self):
        # the walk's check and messages against the id-based check
        rng = random.Random(31)
        for _ in range(200):
            cfg = family_config(rng.choice(("chain", "star", "theta")),
                                rng.randint(1, 6), rng.random() < 0.5)
            cfg = _declared(cfg, rng)
            order = [s.id for s in cfg.singulars]
            rng.shuffle(order)
            if rng.random() < 0.1:
                order[rng.randrange(len(order))] = "nope"
            try:
                expected = connected_order_reference(cfg, order)
            except InputError as err:
                with pytest.raises(InputError) as got:
                    list(devissage_splits(cfg, order))
                assert str(got.value) == str(err)
            else:
                assert [p for p, _ in walk(cfg, order)][-1] == expected

    def test_check_order_agrees_with_union_connectivity(self):
        # the linear check against building every prefix union
        rng = random.Random(23)
        for _ in range(150):
            cfg = family_config(rng.choice(("chain", "star", "theta")),
                                rng.randint(1, 6), nontrivial=False)
            order = [s.id for s in cfg.singulars]
            rng.shuffle(order)
            bad = next((r for r in range(1, len(order) + 1)
                        if not connected_reference(
                            build_union(cfg, order[:r]))),
                       None)
            if bad is None:
                assert [p for p, _ in walk(cfg, order)][-1] == tuple(order)
            else:
                with pytest.raises(InputError) as err:
                    list(devissage_splits(cfg, order))
                assert str(err.value) == (f"prefix {order[:bad]} of the "
                                          "given order is disconnected")

    def test_split_scopes_are_prefix_unions(self):
        rng = random.Random(37)
        cases = [(cfg, None) for cfg in load_corpus().values() if cfg.m]
        cases += [(cfg, None)
                  for cfg in (random_general_config(rng) for _ in range(30))
                  if cfg.m]
        for _ in range(40):
            cfg = family_config(rng.choice(("chain", "star", "theta")),
                                rng.randint(1, 6), nontrivial=False)
            order = [s.id for s in cfg.singulars]
            rng.shuffle(order)
            try:
                cases.append((cfg, connected_order_reference(cfg, order)))
            except InputError:
                pass
        for cfg, order in cases:
            steps = list(walk(cfg, order))
            order = order or devissage_order(cfg)
            assert [step[0] for step in steps] \
                == [order[:r] for r in range(1, len(order) + 1)]
            for prefix, split in steps:
                scope, patch, comp = split_unions(cfg, prefix, split)
                assert (not split.overlap) == (len(prefix) == 1)
                if split.overlap:
                    assert free_rank(scope) == free_rank(patch) \
                        + free_rank(comp) + len(split.overlap) - 1


class TestIntersection:
    def test_chain_overlap_is_middle_component(self):
        # the one split of the order (Q, P) is at P
        cfg = chain_config()
        (_, first), (prefix, split) = walk(cfg, ("Q", "P"))
        assert first.overlap == () and prefix == ("Q", "P")
        scope, patch, comp = split_unions(cfg, prefix, split)
        assert _ids(cfg, split.comps) == ["A", "B"]
        assert [c.id for c in comp.components] == ["B", "C"]
        assert _ids(cfg, split.overlap) == ["B"]
        assert len(split.branches) == 2 and split.m_tilde_2 == 2
        assert free_rank(scope) == free_rank(patch) + free_rank(comp) \
            + len(split.overlap) - 1

    def test_theta_overlap_is_both_components(self):
        cfg = theta_config()
        _, (prefix, split) = walk(cfg, ("Q", "P"))
        scope, patch, comp = split_unions(cfg, prefix, split)
        assert _ids(cfg, split.overlap) == ["A", "B"]
        assert free_rank(scope) == free_rank(patch) + free_rank(comp) \
            + len(split.overlap) - 1


class TestFreeRank:
    def test_baselines(self):
        assert free_rank(nodal_config()) == 1
        assert free_rank(theta_config()) == 1
        assert free_rank(chain_config()) == 0
        assert free_rank(star_config()) == 0
        assert free_rank(SchemeConfig([Component("A", TRIV)], [], [])) == 0

    def test_matches_cycle_rank_on_random_configs(self):
        rng = random.Random(17)
        for _ in range(30):
            cfg = random_trivial_config(rng)
            rank = free_rank(cfg)  # internal assertion checks cycle rank
            assert rank == cfg.m_tilde - cfg.m - cfg.n + 1

    def test_rank_additivity_across_splits(self):
        for cfg in (chain_config(), theta_config(), star_config()):
            for prefix, split in walk(cfg):
                if not split.overlap:
                    continue
                scope, patch, comp = split_unions(cfg, prefix, split)
                assert free_rank(scope) == free_rank(patch) \
                    + free_rank(comp) + len(split.overlap) - 1
