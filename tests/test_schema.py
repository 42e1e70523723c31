import json
import random
import sys
from fractions import Fraction

import pytest

from singular_pi1 import (InputError, Presentation, SchemaError,
                          parse_presentation, parse_scheme_config,
                          pi1_devissage, pi1_result_to_json,
                          presentation_to_json, scheme_config_to_json,
                          validate)
from singular_pi1.cli import main
from singular_pi1.schema import (group_to_json, json_text, parse_group,
                                 parse_word, word_to_json)
from support import load_corpus


def minimal_doc():
    return {
        "components": [{"id": "A", "group": {"kind": "trivial"}}],
        "singulars": [{"id": "P", "group": {"kind": "trivial"}}],
        "branches": [
            {"id": "b1", "component": "A", "singular": "P",
             "group": {"kind": "trivial"}},
            {"id": "b2", "component": "A", "singular": "P",
             "group": {"kind": "trivial"}},
        ],
    }


class TestWords:
    def test_round_trip(self):
        names = ("c1.g", "h")
        w = ((0, 2), (1, -1))
        # the parser reads a word over the names it spells
        assert parse_word(word_to_json(w, names), "$") \
            == (("c1.g", 2), ("h", -1))

    def test_bad_exponent(self):
        with pytest.raises(SchemaError) as err:
            parse_word([["g", 0]], "$.w")
        assert err.value.path == "$.w[0][1]"

    def test_bad_symbol(self):
        with pytest.raises(SchemaError) as err:
            parse_word([["bad name", 1]], "$.w")
        assert "w[0][0]" in err.value.path


class TestGroups:
    def test_round_trip_all_kinds(self):
        docs = [
            {"kind": "trivial"},
            {"kind": "cyclic", "order": 3},
            {"kind": "symmetric", "degree": 3},
            {"kind": "permutation", "degree": 3,
             "generators": [[1, 0, 2], [0, 2, 1]]},
            {"kind": "presented", "generators": ["a"],
             "relators": [[["a", 4]]]},
        ]
        for doc in docs:
            spec = parse_group(doc, "$")
            again = parse_group(group_to_json(spec), "$")
            assert spec == again

    def test_unknown_kind(self):
        with pytest.raises(SchemaError) as err:
            parse_group({"kind": "dihedral"}, "$.g")
        assert err.value.path == "$.g.kind"

    def test_permutation_without_generators_exits_3_at_its_group(
            self, tmp_path, capsys):
        doc = minimal_doc()
        doc["components"][0]["group"] = {"kind": "permutation", "degree": 3,
                                         "generators": []}
        code, out = main_exit(tmp_path, capsys, doc)
        assert code == 3
        assert out["error"]["path"] == "$.components[0].group"
        assert out["error"]["message"] \
            == "permutation kind needs at least one generator"

    def test_bad_permutation(self):
        with pytest.raises(SchemaError):
            parse_group({"kind": "permutation", "degree": 2,
                         "generators": [[0, 0]]}, "$")


class TestPresentations:
    def test_round_trip(self):
        p = Presentation(["a", "b"], [((0, 2),), ((0, 1), (1, -3))])
        doc = presentation_to_json(p)
        assert parse_presentation(doc, "$") == p

    def test_undeclared_relator_symbol(self):
        with pytest.raises(SchemaError):
            parse_presentation({"generators": ["a"],
                                "relators": [[["b", 1]]]}, "$")


class TestSchemeConfig:
    def test_minimal_round_trip(self):
        cfg = parse_scheme_config(minimal_doc())
        assert validate(cfg).ok
        again = parse_scheme_config(scheme_config_to_json(cfg))
        assert scheme_config_to_json(again) == scheme_config_to_json(cfg)

    def test_corpus_round_trips(self):
        for name, cfg in load_corpus().items():
            doc = scheme_config_to_json(cfg)
            again = parse_scheme_config(doc)
            assert scheme_config_to_json(again) == doc, name

    def test_missing_key_path(self):
        doc = minimal_doc()
        del doc["components"][0]["id"]
        with pytest.raises(SchemaError) as err:
            parse_scheme_config(doc)
        assert err.value.path == "$.components[0]"

    def test_unknown_branch_reference_path(self):
        doc = minimal_doc()
        doc["branches"][0]["component"] = "ZZ"
        with pytest.raises(SchemaError) as err:
            parse_scheme_config(doc)
        assert err.value.path == "$.branches[0].component"

    def test_omitted_maps_require_trivial_branch_group(self):
        doc = minimal_doc()
        doc["branches"][0]["group"] = {"kind": "cyclic", "order": 2}
        doc["components"][0]["group"] = {"kind": "cyclic", "order": 2}
        doc["singulars"][0]["group"] = {"kind": "cyclic", "order": 2}
        with pytest.raises(SchemaError) as err:
            parse_scheme_config(doc)
        assert err.value.path == "$.branches[0].psi"

    def test_non_homomorphism_is_semantic_not_schema(self):
        doc = minimal_doc()
        doc["branches"][0]["group"] = {"kind": "cyclic", "order": 2}
        doc["singulars"][0]["group"] = {"kind": "cyclic", "order": 3}
        doc["branches"][0]["psi"] = {"g": []}
        # order-2 generator cannot land on the order-3 generator
        doc["branches"][0]["phi"] = {"g": [["g", 1]]}
        with pytest.raises(InputError):
            parse_scheme_config(doc)

    def test_image_symbols_checked_against_target(self):
        doc = minimal_doc()
        doc["branches"][0]["group"] = {"kind": "cyclic", "order": 2}
        doc["branches"][0]["psi"] = {"g": [["zz", 1]]}
        doc["branches"][0]["phi"] = {"g": []}
        with pytest.raises(SchemaError) as err:
            parse_scheme_config(doc)
        assert err.value.path == "$.branches[0].psi.g"


def presented_c2(name):
    return {"kind": "presented", "generators": [name],
            "relators": [[[name, 2]]]}


def two_c2_doc():
    """Components on presented C2s that differ only in generator name,
    joined through one C2 piece by branches with equal group JSON."""
    c2 = {"kind": "cyclic", "order": 2}
    return {
        "components": [{"id": "A", "group": presented_c2("a")},
                       {"id": "B", "group": presented_c2("b")}],
        "singulars": [{"id": "P", "group": dict(c2)}],
        "branches": [
            {"id": "pa", "component": "A", "singular": "P",
             "group": dict(c2), "psi": {"g": [["a", 1]]},
             "phi": {"g": [["g", 1]]}},
            {"id": "pb", "component": "B", "singular": "P",
             "group": dict(c2), "psi": {"g": [["b", 1]]},
             "phi": {"g": [["g", 1]]}},
        ],
    }


def boolean_doc():
    """A nodal curve on a cyclic component whose branch group is a
    permutation group, with every integer the tests below replace by a
    JSON boolean."""
    return {
        "components": [{"id": "A", "group": {"kind": "cyclic",
                                             "order": 2}}],
        "singulars": [{"id": "P", "group": {"kind": "trivial"}}],
        "branches": [
            {"id": f"b{i}", "component": "A", "singular": "P",
             "group": {"kind": "permutation", "degree": 2,
                       "generators": [[1, 0]]},
             "psi": {"g1": [["g", 1]]}, "phi": {"g1": []}}
            for i in (1, 2)],
    }


class TestBooleansAreNotIntegers:
    """bool subclasses int, but JSON true and false are no order, degree,
    permutation entry or exponent."""

    @pytest.mark.parametrize("where, path", [
        (("components", 0, "group", "order"), "$.components[0].group.order"),
        (("branches", 1, "group", "degree"), "$.branches[1].group.degree"),
        (("branches", 0, "group", "generators", 0, 0),
         "$.branches[0].group.generators[0]"),
        (("branches", 0, "psi", "g1", 0, 1), "$.branches[0].psi.g1[0][1]"),
    ])
    def test_true_is_a_schema_error(self, tmp_path, capsys, where, path):
        doc = boolean_doc()
        assert main_exit(tmp_path, capsys, doc)[0] == 0
        place = doc
        for key in where[:-1]:
            place = place[key]
        place[where[-1]] = True
        code, out = main_exit(tmp_path, capsys, doc)
        assert code == 3, out
        assert out["error"]["path"] == path

    def test_every_boolean_at_once(self, tmp_path, capsys):
        # the parser once read this config as C2 with a permutation group
        # generated by [true, false]
        doc = boolean_doc()
        doc["components"][0]["group"]["order"] = True
        for b in doc["branches"]:
            b["group"]["generators"] = [[True, False]]
            b["psi"]["g1"][0][1] = True
        code, out = main_exit(tmp_path, capsys, doc)
        assert code == 3
        assert out["error"]["path"] == "$.components[0].group.order"
        with pytest.raises(SchemaError) as err:
            parse_group({"kind": "symmetric", "degree": False}, "$.g")
        assert err.value.path == "$.g.degree"


def main_exit(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["present", str(path)])
    return code, json.loads(capsys.readouterr().out)


class TestInterning:
    """Equal group JSON is parsed once per configuration, equal maps are
    checked once, and every error keeps the path of its own occurrence."""

    def run(self, tmp_path, capsys, doc, *argv):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code = main([argv[0], str(path), *argv[1:]])
        return code, json.loads(capsys.readouterr().out)

    def test_groups_equal_up_to_names_stay_apart(self, tmp_path, capsys):
        cfg = parse_scheme_config(two_c2_doc())
        a, b = (c.group for c in cfg.components)
        assert a == b and a is not b
        assert self.run(tmp_path, capsys, two_c2_doc(), "present")[0] == 0
        code, doc = self.run(tmp_path, capsys, two_c2_doc(), "verify",
                             "--degree-max", "3")
        assert code == 0, doc

    def test_equal_json_shares_one_instance(self):
        doc = two_c2_doc()
        doc["components"][1]["group"] = presented_c2("a")
        doc["branches"][1]["psi"] = {"g": [["a", 1]]}
        cfg = parse_scheme_config(doc)
        (a, b), (pa, pb) = cfg.components, cfg.branches
        assert a.group is b.group
        assert pa.group is pb.group is cfg.singulars[0].group
        assert pa.psi is pb.psi and pa.phi is pb.phi

    def test_later_malformed_word_keeps_its_path(self, tmp_path, capsys):
        doc = two_c2_doc()
        doc["components"][1]["group"] = presented_c2("a")
        doc["branches"][1]["psi"] = {"g": [["a", 0]]}
        code, out = self.run(tmp_path, capsys, doc, "present")
        assert code == 3
        assert out["error"]["path"] == "$.branches[1].psi.g[0][1]"

    def test_later_non_homomorphism_exits_2(self, tmp_path, capsys):
        doc = two_c2_doc()
        doc["singulars"][0]["group"] = {"kind": "cyclic", "order": 3}
        doc["branches"][0]["phi"] = {"g": []}
        code, out = self.run(tmp_path, capsys, doc, "present")
        assert code == 2, out


def four_branch_doc():
    """C2 components A, B and C2 pieces P, Q, joined as a theta by four
    branches with one group JSON and one map JSON: every entry at index
    1 repeats the JSON of index 0, so the parser's memos would hit."""
    c2 = {"kind": "cyclic", "order": 2}
    ident = {"g": [["g", 1]]}
    return {
        "components": [{"id": cid, "group": dict(c2)} for cid in "AB"],
        "singulars": [{"id": sid, "group": dict(c2)} for sid in "PQ"],
        "branches": [{"id": f"b{k}", "component": comp, "singular": sing,
                      "group": dict(c2), "psi": dict(ident),
                      "phi": dict(ident)}
                     for k, (comp, sing) in enumerate(
                         [("A", "P"), ("B", "P"), ("A", "Q"), ("B", "Q")])],
    }


DROP = object()
# (section, field or None for the whole entry, bad value or DROP, path)
BAD_FIELDS = [
    (section, field, value, path.format(section))
    for section in ("components", "singulars")
    for field, value, path in [
        (None, 7, "$.{}[1]"), (None, ["id"], "$.{}[1]"),
        ("id", DROP, "$.{}[1]"), ("id", 5, "$.{}[1].id"),
        ("id", True, "$.{}[1].id"), ("id", None, "$.{}[1].id"),
        ("group", DROP, "$.{}[1]"), ("group", "C2", "$.{}[1].group"),
        ("group", True, "$.{}[1].group"),
        ("group", {}, "$.{}[1].group"),
        ("group", {"kind": "dihedral"}, "$.{}[1].group.kind"),
        ("group", {"kind": "cyclic", "order": 0}, "$.{}[1].group.order"),
        ("group", {"kind": "cyclic", "order": True}, "$.{}[1].group.order"),
    ]
] + [
    ("branches", None, 7, "$.branches[1]"),
    ("branches", "id", DROP, "$.branches[1]"),
    ("branches", "id", 5, "$.branches[1].id"),
    ("branches", "component", DROP, "$.branches[1]"),
    ("branches", "component", 5, "$.branches[1].component"),
    ("branches", "component", "Z", "$.branches[1].component"),
    ("branches", "singular", DROP, "$.branches[1]"),
    ("branches", "singular", ["P"], "$.branches[1].singular"),
    ("branches", "singular", "Z", "$.branches[1].singular"),
    ("branches", "group", DROP, "$.branches[1]"),
    ("branches", "group", 2, "$.branches[1].group"),
    ("branches", "group", {"kind": "cyclic"}, "$.branches[1].group"),
    ("branches", "group", {"kind": "symmetric", "degree": -1},
     "$.branches[1].group.degree"),
] + [
    ("branches", name, value, f"$.branches[1].{name}" + suffix)
    for name in ("psi", "phi")
    for value, suffix in [
        (DROP, ""), (None, ""), ([], ""), ("g", ""),
        ({}, ""), ({"h": []}, ".h"),
        ({"g": 1}, ".g"), ({"g": [["zz", 1]]}, ".g"),
        ({"g": [["g", 0]]}, ".g[0][1]"), ({"g": [["g", True]]}, ".g[0][1]"),
        ({"g": [[1, 1]]}, ".g[0][0]"), ({"g": [["bad name", 1]]}, ".g[0][0]"),
        ({"g": [["g"]]}, ".g[0]"), ({"g": ["g"]}, ".g[0]"),
    ]
] + [
    # a float equal to the good integer at index 0: the shared parses
    # are keyed exactly, so it is read, and refused, again
    (section, "group", {"kind": "cyclic", "order": 2.0},
     f"$.{section}[1].group.order")
    for section in ("components", "singulars", "branches")
] + [
    ("branches", name, {"g": [["g", 1.0]]}, f"$.branches[1].{name}.g[0][1]")
    for name in ("psi", "phi")
]


class TestErrorPaths:
    """A bad value at index 1, after a good entry with the same JSON at
    index 0, is reported at its own JSON path."""

    def test_the_document_is_valid(self):
        cfg = parse_scheme_config(four_branch_doc())
        assert validate(cfg).ok

    @pytest.mark.parametrize("section, field, value, path", BAD_FIELDS)
    def test_bad_value_at_index_one(self, section, field, value, path):
        doc = four_branch_doc()
        if field is None:
            doc[section][1] = value
        elif value is DROP:
            del doc[section][1][field]
        else:
            doc[section][1][field] = value
        with pytest.raises(SchemaError) as err:
            parse_scheme_config(doc)
        assert err.value.path == path

    def test_equal_map_json_is_checked_against_each_target(self, tmp_path,
                                                           capsys):
        # psi: g -> g is a homomorphism into A's C2 and not into B's C3,
        # so the second branch's equal map JSON must be checked again
        doc = {"components": [{"id": "A", "group": {"kind": "cyclic",
                                                    "order": 2}},
                              {"id": "B", "group": {"kind": "cyclic",
                                                    "order": 3}}],
               "singulars": [{"id": "P", "group": {"kind": "trivial"}}],
               "branches": [{"id": bid, "component": comp, "singular": "P",
                             "group": {"kind": "cyclic", "order": 2},
                             "psi": {"g": [["g", 1]]}, "phi": {"g": []}}
                            for bid, comp in (("a", "A"), ("b", "B"))]}
        code, out = main_exit(tmp_path, capsys, doc)
        assert code == 2, out
        assert "relator g^2 maps to a non-trivial element" \
            in out["error"]["message"]
        doc["components"][1]["group"]["order"] = 2
        assert main_exit(tmp_path, capsys, doc)[0] == 0

def klein_branch_doc(keys):
    """A C2 component and a C2 piece joined by two branches whose group
    is the Klein group presented on ``p.a`` and ``q.a``; both maps send
    the first generator to ``g`` and the second to the identity, keyed
    by ``keys``."""
    klein = {"kind": "presented", "generators": ["p.a", "q.a"],
             "relators": [[["p.a", 2]], [["q.a", 2]],
                          [["p.a", 1], ["q.a", 1], ["p.a", -1], ["q.a", -1]]]}
    c2 = {"kind": "cyclic", "order": 2}
    maps = dict(zip(keys, ([["g", 1]], [])))
    return {"components": [{"id": "A", "group": c2}],
            "singulars": [{"id": "P", "group": c2}],
            "branches": [{"id": bid, "component": "A", "singular": "P",
                          "group": klein, "psi": maps, "phi": maps}
                         for bid in ("b1", "b2")]}


class TestDottedBranchGenerators:
    """Branch maps are keyed by the full names of the branch group's
    generators, so two generators that share a last segment each get
    their own image."""

    def run(self, tmp_path, capsys, doc, *argv):
        return TestInterning.run(self, tmp_path, capsys, doc, *argv)

    def test_full_names_present_and_verify(self, tmp_path, capsys):
        doc = klein_branch_doc(("p.a", "q.a"))
        assert self.run(tmp_path, capsys, doc, "present")[0] == 0
        code, out = self.run(tmp_path, capsys, doc, "verify",
                             "--degree-max", "3")
        assert code == 0, out
        assert all(r["verdict"] == "pass" for r in out["reports"])

    def test_full_names_are_written_back(self):
        doc = klein_branch_doc(("p.a", "q.a"))
        out = scheme_config_to_json(parse_scheme_config(doc))
        assert out["branches"][0]["psi"] == {"p.a": [["g", 1]], "q.a": []}

    def test_last_segment_key_is_refused(self, tmp_path, capsys):
        code, out = self.run(tmp_path, capsys,
                             klein_branch_doc(("a", "q.a")), "present")
        assert code == 3
        assert out["error"]["path"] == "$.branches[0].psi.a"
        assert out["error"]["message"] \
            == "unknown branch-group generator 'a'"


def check_node_table(doc, devissage):
    """The expression of a ``present`` output is a table whose nodes name
    only earlier nodes, whose root is its last node and whose every other
    node is some node's child.  The nodes a step produced carry its
    ``theorem`` and ``inputs``: the root on the default route, and every
    ``vk`` and ``fibered_coproduct`` node on the dévissage, or its one
    atom for a regular configuration."""
    assert set(doc) - {"hom_counts"} == {"expression", "presentation"}
    nodes, root = doc["expression"]["nodes"], doc["expression"]["root"]
    assert root == len(nodes) - 1
    used = set()
    for i, node in enumerate(nodes):
        children = [node[key] for key in ("child", "pi", "pi_prime")
                    if key in node] + node.get("children", [])
        if node["type"] == "fibered_coproduct":
            children += node["legs"]
        assert all(isinstance(c, int) and 0 <= c < i for c in children), \
            (i, node)
        used.update(children)
    assert used == set(range(root))
    stepped = {i for i, node in enumerate(nodes) if "theorem" in node}
    assert stepped == {i for i, node in enumerate(nodes) if "inputs" in node}
    glued = {i for i, node in enumerate(nodes)
             if node["type"] in ("vk", "fibered_coproduct")}
    assert stepped == (glued if devissage and glued else {root})


class TestResultSerialization:
    def test_nodal_result_shape(self):
        cfg = parse_scheme_config(minimal_doc())
        result = pi1_devissage(cfg)
        doc = pi1_result_to_json(result)
        trivial = {"kind": "trivial"}
        assert doc["expression"]["nodes"][-1] == {
            "type": "vk", "pi": 0, "pi_prime": 1,
            "legs": [{"ref": "branch", "ref_id": b, "group": trivial}
                     for b in ("b1", "b2")],
            "theorem": "vk-connected-singular",
            "inputs": {"component": "A", "singular": "P",
                       "branches": ["b1", "b2"], "form": "i"}}
        text = json.dumps(doc)
        assert json.loads(text) == doc
        # presentation block re-parses to the same presentation
        assert parse_presentation(doc["presentation"], "$") \
            == result.presentation
        check_node_table(doc, devissage=True)

    @pytest.mark.parametrize("route", [
        [], *(["--route", "devissage", "--form", form]
              for form in ("i", "ii", "iii", "iv"))])
    def test_corpus_expressions_are_node_tables(self, tmp_path, capsys,
                                                route):
        for name, cfg in load_corpus().items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(scheme_config_to_json(cfg)))
            code = main(["present", str(path)] + route)
            doc = json.loads(capsys.readouterr().out)
            assert code == 0, (name, doc)
            check_node_table(doc, devissage=bool(route))


# quotes, backslashes, control characters, non-ASCII text, an astral
# character and lone surrogates
CHARS = list("ab Z09_.") + ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                             "\u00e9", "\u20ac", "\U0001d11e", "\ud800",
                             "\udfff"]


def random_text(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 6)))


def random_value(rng, depth=0):
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([0, 1, -1, rng.randint(-10 ** 30, 10 ** 30)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([[], {}, ""])
    size = rng.randint(0, 4)
    if kind == 4:
        return [random_value(rng, depth + 1) for _ in range(size)]
    return {random_text(rng): random_value(rng, depth + 1)
            for _ in range(size)}


class TestJsonText:
    def test_matches_indented_dumps_on_random_values(self):
        rng = random.Random(18)
        for _ in range(400):
            value = random_value(rng)
            assert json_text(value) == json.dumps(value, indent=2)

    def test_a_refusal_with_a_null_estimate(self, capsys, tmp_path):
        # a presented group with a relator-free generator is refused
        # before any work is estimated
        trivial = {"kind": "trivial"}
        doc = {"components": [{"id": "A", "group": {
                   "kind": "presented", "generators": ["a", "b"],
                   "relators": [[["a", 2]]]}}],
               "singulars": [{"id": "P", "group": trivial}],
               "branches": [{"id": f"b{i}", "component": "A",
                             "singular": "P", "group": trivial}
                            for i in (1, 2)]}
        path = tmp_path / "free.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["present", str(path)])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 4
        assert doc["error"]["estimate"] is None
        assert out == json.dumps(doc, indent=2) + "\n"

    def test_an_int_over_the_digit_limit_is_exact(self):
        value = [-(7 ** 6000), {"n": 10 ** 5000}]
        limit = sys.get_int_max_str_digits()
        text = json_text(value)
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert text == json.dumps(value, indent=2)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 2), {1: "a"},
                                       [{"a": {("t",): 0}}]])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json_text(value)
