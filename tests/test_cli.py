import contextlib
import copy
import functools
import gc
import inspect
import io
import json
import logging
import operator
import os
import random
import re
import subprocess
import sys
import time
import weakref
from importlib import resources
from pathlib import Path

import pytest

import singular_pi1
from singular_pi1 import cli, scheme_config_to_json
from singular_pi1.cli import main
from support import (argparse_reference, closed_family_homs, count_calls,
                     family_config, load_corpus)

SRC = Path(singular_pi1.__file__).resolve().parent.parent


def config_path(name):
    return str(resources.files("singular_pi1") / "configs" / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def root_of(doc):
    """The root node of a ``present`` output's expression."""
    return doc["expression"]["nodes"][doc["expression"]["root"]]


def names_in(doc):
    """The generator names a configuration's JSON spells: the symbols of
    its words and the generators of its presented groups."""
    if isinstance(doc, list):
        if len(doc) == 2 and isinstance(doc[0], str) \
                and isinstance(doc[1], int):
            return 1
        return sum(map(names_in, doc))
    if isinstance(doc, dict):
        own = len(doc["generators"]) if doc.get("kind") == "presented" else 0
        return own + sum(map(names_in, doc.values()))
    return 0


class TestValidate:
    def test_nodal_ok(self, capsys):
        code, doc = run(capsys, "validate", config_path("nodal"))
        assert code == 0 and doc == {"ok": True}

    def test_truncated_file_is_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"components": [')
        code, doc = run(capsys, "validate", str(bad))
        assert code == 3
        assert doc["error"]["kind"] == "schema"

    def test_missing_file_is_schema_error(self, capsys):
        code, doc = run(capsys, "validate", "/nonexistent/x.json")
        assert code == 3

    def test_non_utf8_file_is_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + '{"components": []}'.encode("utf-16-le"))
        code, doc = run(capsys, "validate", str(bad))
        assert code == 3
        assert doc["error"]["kind"] == "schema"
        assert doc["error"]["path"] == "$"

    @pytest.mark.parametrize("text", [
        '{"components": [{"id": "A", "group": {"kind": "cyclic", "order": '
        + "9" * 5000 + '}}]}',               # over the int digit limit
        "[" * 200000 + "]" * 200000,         # past the parser's recursion
    ], ids=["long-integer", "deep-nesting"])
    def test_unparsable_json_is_schema_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, doc = run(capsys, "validate", str(bad))
        assert code == 3 and doc["error"]["path"] == "$"

    def test_non_integer_permutation_entry_is_schema_error(self, tmp_path,
                                                          capsys):
        group = {"kind": "permutation", "degree": 2, "generators": [[0, "a"]]}
        path = tmp_path / "perm.json"
        path.write_text(json.dumps({"components": [{"id": "A",
                                                    "group": group}]}))
        code, doc = run(capsys, "validate", str(path))
        assert code == 3
        assert doc["error"]["kind"] == "schema"
        assert doc["error"]["path"] == "$.components[0].group.generators[0]"

    def test_disconnected_config_names_isolated_vertex(self, tmp_path, capsys):
        doc = {
            "components": [{"id": "A", "group": {"kind": "trivial"}},
                           {"id": "B", "group": {"kind": "trivial"}}],
            "singulars": [{"id": "P", "group": {"kind": "trivial"}},
                          {"id": "Q", "group": {"kind": "trivial"}}],
            "branches": [
                {"id": "b1", "component": "A", "singular": "P",
                 "group": {"kind": "trivial"}},
                {"id": "b2", "component": "A", "singular": "P",
                 "group": {"kind": "trivial"}},
                {"id": "b3", "component": "B", "singular": "Q",
                 "group": {"kind": "trivial"}},
                {"id": "b4", "component": "B", "singular": "Q",
                 "group": {"kind": "trivial"}},
            ],
        }
        path = tmp_path / "two-nodal.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert out["invariant"] == "connected"
        assert out["ids"]


class TestPresent:
    def test_nodal_closed_route(self, capsys):
        code, doc = run(capsys, "present", config_path("nodal"),
                        "--degrees", "2,3,4")
        assert code == 0
        assert root_of(doc) == {
            "type": "free", "rank": 1, "theorem": "graph-of-groups",
            "inputs": {"n": 1, "m": 1, "m_tilde": 2, "rank": 1,
                       "stable_branches": ["b2"]}}
        assert doc["hom_counts"] == {"2": 2, "3": 6, "4": 24}

    def test_regular_is_single_atom(self, capsys):
        code, doc = run(capsys, "present", config_path("regular"))
        assert code == 0
        assert root_of(doc)["type"] == "atom"

    def test_theta_devissage_counts(self, capsys):
        code, doc = run(capsys, "present", config_path("theta"),
                        "--route", "devissage", "--degrees", "2,3")
        assert code == 0
        assert doc["hom_counts"] == {"2": 2, "3": 6}

    @pytest.mark.parametrize("form", ["ii", "iv"])
    def test_six_piece_theta_devissage_counts(self, tmp_path, capsys, form):
        # the raw presentation has thousands of relators in form iv
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(
            scheme_config_to_json(family_config("theta", 6))))
        code, doc = run(capsys, "present", str(path), "--route", "devissage",
                        "--form", form, "--degrees", "2,3")
        assert code == 0
        assert doc["hom_counts"] == {str(d): closed_family_homs("theta", 6, d)
                                     for d in (2, 3)}

    def test_raw_presentation_on_request(self, capsys):
        code, simplified = run(capsys, "present", config_path("nodal"))
        code2, raw = run(capsys, "present", config_path("nodal"),
                         "--simplify", "false")
        assert code == code2 == 0
        assert len(raw["presentation"]["generators"]) \
            >= len(simplified["presentation"]["generators"])

    def test_default_route_is_graph_of_groups(self, capsys):
        code, doc = run(capsys, "present", config_path("nontrivial-Z2"))
        assert code == 0
        assert [i for i, node in enumerate(doc["expression"]["nodes"])
                if "theorem" in node] == [doc["expression"]["root"]]
        assert root_of(doc) == {
            "type": "quotient", "child": 4, "relations": 2,
            "theorem": "graph-of-groups",
            "inputs": {"n": 2, "m": 2, "m_tilde": 4, "rank": 1,
                       "stable_branches": ["bq"]}}

    def test_deep_devissage_needs_no_recursion_and_prints_linear_output(
            self, tmp_path, capsys):
        n = 300
        paths = []
        for pieces in (n, 2 * n):
            path = tmp_path / f"chain-{pieces}.json"
            path.write_text(json.dumps(scheme_config_to_json(
                family_config("chain", pieces, nontrivial=False))))
            paths.append(str(path))
        limit = sys.getrecursionlimit()
        # room for about half the smaller chain's pieces above this frame
        sys.setrecursionlimit(len(inspect.stack(0)) + n // 2)
        try:
            codes, sizes = [], []
            for path in paths:
                codes.append(main(["present", path, "--route", "devissage"]))
                sizes.append(len(capsys.readouterr().out.encode()))
            codes.append(main(["present", paths[1]]))
        finally:
            sys.setrecursionlimit(limit)
        assert codes == [0, 0, 0]
        assert sizes[1] <= 2.2 * sizes[0]

    def test_generator_names_are_checked_once(self, tmp_path, capsys,
                                              monkeypatch):
        """Names are checked where the JSON is read, and not again on the
        presentations the glue steps build."""
        import singular_pi1.words as words

        check_name, calls = words.check_name, 0

        def counting(text):
            nonlocal calls
            calls += 1
            return check_name(text)

        for name, module in list(sys.modules.items()):
            if name.startswith("singular_pi1") \
                    and getattr(module, "check_name", None) is check_name:
                monkeypatch.setattr(module, "check_name", counting)
        for n in (8, 16):
            doc = scheme_config_to_json(family_config("chain", n))
            path = tmp_path / f"chain{n}.json"
            path.write_text(json.dumps(doc))
            calls = 0
            code, _ = run(capsys, "present", str(path),
                          "--route", "devissage")
            assert code == 0
            assert 0 < calls <= names_in(doc), (n, calls)

    def test_hom_count_refusal_names_layer_estimate_and_ceiling(self,
                                                                capsys):
        code, doc = run(capsys, "present", config_path("nontrivial-Z2"),
                        "--degrees", "3", "--ceiling", "1")
        assert code == 4
        # C2 * Z: g ranges over the two conjugacy classes of involutions
        # of Sym(3), the identity's and the transpositions'
        assert doc["error"] == {"kind": "resource", "layer": "homcount",
                                "estimate": 2, "ceiling": 1,
                                "message": "hom search space 2 exceeds "
                                           "ceiling 1"}

    def test_three_piece_chain_counts_at_degree_five(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(
            scheme_config_to_json(family_config("chain", 3))))
        code, doc = run(capsys, "present", str(path), "--degrees", "5")
        assert code == 0
        assert doc["hom_counts"] == {"5": closed_family_homs("chain", 3, 5)}

    def test_a_count_over_the_digit_limit_exits_0(self, tmp_path, capsys):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(scheme_config_to_json(
            family_config("theta", 2100, nontrivial=False))))
        limit = sys.get_int_max_str_digits()
        code = main(["present", str(path), "--degrees", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            count = json.loads(out)["hom_counts"]["5"]
        finally:
            sys.set_int_max_str_digits(limit)
        assert count == 120 ** 2099

    def test_counts_at_several_degrees_simplify_once(self, tmp_path, capsys,
                                                     monkeypatch):
        import singular_pi1.homcount as homcount
        import singular_pi1.presentation as presentation
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(
            scheme_config_to_json(family_config("chain", 3))))
        calls, real = [], presentation.tietze_eliminations
        monkeypatch.setattr(presentation, "tietze_eliminations",
                            lambda p: calls.append(p) or real(p))
        homcount._components.cache_clear()
        code, doc = run(capsys, "present", str(path),
                        "--degrees", "2,3,4,5")
        assert code == 0
        # once for the output; the counts take the simplified one as it is
        assert len(calls) == 1
        assert doc["hom_counts"] == {str(d): closed_family_homs("chain", 3, d)
                                     for d in (2, 3, 4, 5)}

    def test_malformed_degrees_is_an_input_error(self, capsys):
        code, doc = run(capsys, "present", config_path("nodal"),
                        "--degrees", "2,x")
        assert code == 2
        assert doc["error"]["kind"] == "input"
        assert "'2,x'" in doc["error"]["message"]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, _ = run(capsys, "present", config_path("nodal"),
                      "--output", str(target))
        assert code == 0
        assert json.loads(target.read_text())["presentation"]

    def test_unwritable_output_is_a_schema_error_on_stdout(self, tmp_path,
                                                           capsys):
        target = tmp_path / "missing" / "out.json"
        for path in (config_path("nodal"), str(tmp_path / "absent.json")):
            code, doc = run(capsys, "present", path, "--output", str(target))
            assert code == 3
            assert doc["error"]["kind"] == "schema"
            assert doc["error"]["path"] == "--output"
        assert not target.exists()


class TestVerify:
    def test_nodal_passes_at_depth_three(self, capsys):
        code, doc = run(capsys, "verify", config_path("nodal"),
                        "--degree-max", "3")
        assert code == 0
        assert [r["verdict"] for r in doc["reports"]] == ["pass", "pass"]

    def test_chain_passes_at_depth_two(self, capsys):
        code, doc = run(capsys, "verify", config_path("chain"),
                        "--degree-max", "2")
        assert code == 0

    def test_ceiling_produces_partial_results_and_exit_4(self, capsys):
        # the oracle estimates one action, one restriction labelled in
        # d * d steps, one comparison and 7 elimination steps for the
        # all-trivial star, whose six branches are identical: 13 at
        # degree 2, 18 at degree 3
        code, doc = run(capsys, "verify", config_path("star"),
                        "--degree-max", "3", "--ceiling", "15")
        assert code == 4
        reports = doc["reports"]
        assert reports[0]["verdict"] == "pass"      # degree 2 fits
        assert "error" in reports[1]                # degree 3 does not

    @pytest.mark.parametrize("flags", [(), ("--connected",)])
    def test_a_huge_degree_max_stops_at_the_first_refusal(self, capsys,
                                                          flags):
        # the degree bound refuses degree 6, and so every higher one: the
        # run emits that one refusal and stops
        code, doc = run(capsys, "verify", config_path("regular"),
                        "--degree-max", str(10 ** 9), *flags)
        assert code == 4
        reports = doc["reports"]
        assert [r["degree"] for r in reports] == [2, 3, 4, 5, 6]
        assert all(r["verdict"] == "pass" for r in reports[:4])
        # the refusal is the whole error object the layer raised
        assert reports[4] == {"degree": 6, "error": {
            "kind": "resource", "layer": "oracle", "estimate": 6,
            "ceiling": 5, "message": "degree 6 exceeds the configured "
                                     "bound 5"}}

    def test_one_validation_by_the_oracle_per_run(self, capsys,
                                                  monkeypatch):
        # the parse checks the configuration and leaves its record; the
        # oracle, at every degree, reads it
        import singular_pi1.scheme as scheme
        calls = count_calls(monkeypatch, scheme, "validate", "_resolve",
                            "_forest")
        code, _ = run(capsys, "verify", config_path("star"), "--degree-max",
                      "5", "--connected", "--ceiling", str(10 ** 16))
        assert code == 0
        assert {name: len(seen) for name, seen in calls.items()} \
            == {"validate": 0, "_resolve": 0, "_forest": 1}

    @pytest.mark.parametrize("argv", [("plan",),
                                      ("present", "--route", "devissage")])
    def test_one_validation_per_devissage_call(self, tmp_path, capsys,
                                               monkeypatch, argv):
        # the walk reads the checked configuration: no split or part of
        # it is validated again, and the parse's union-find, which gives
        # connectivity and the spanning forest, is the only one
        import singular_pi1.scheme as scheme
        calls = count_calls(monkeypatch, scheme, "validate", "_resolve",
                            "_forest")
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(
            scheme_config_to_json(family_config("chain", 32))))
        code, _ = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        assert {name: len(seen) for name, seen in calls.items()} \
            == {"validate": 0, "_resolve": 0, "_forest": 1}

    @pytest.mark.parametrize("argv", [
        ("validate",), ("present",), ("present", "--degrees", "2"),
        ("verify",), ("verify", "--connected"), ("rank",)])
    def test_every_other_command_validates_once(self, tmp_path, capsys,
                                                monkeypatch, argv):
        # the test above counts plan and the devissage route.  The parse
        # runs the one union-find; the validate command's ``validate``,
        # which the CLI calls by its own name, takes the record, and no
        # reader resolves an id again
        import singular_pi1.scheme as scheme
        calls = count_calls(monkeypatch, scheme, "_resolve", "_forest")
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(
            scheme_config_to_json(family_config("theta", 3))))
        code, _ = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 0
        assert {name: len(seen) for name, seen in calls.items()} \
            == {"_resolve": 0, "_forest": 1}

    @pytest.mark.parametrize("family", ["chain", "star", "theta"])
    def test_eight_piece_families_pass_to_degree_five(self, tmp_path, capsys,
                                                      family):
        # under the default ceiling
        path = tmp_path / f"{family}.json"
        path.write_text(json.dumps(
            scheme_config_to_json(family_config(family, 8))))
        code, doc = run(capsys, "verify", str(path), "--degree-max", "5",
                        "--connected")
        assert code == 0
        assert [(r["verdict"], r["connected"]["verdict"])
                for r in doc["reports"]] == [("pass", "pass")] * 4

    def test_connected_flag(self, capsys):
        code, doc = run(capsys, "verify", config_path("nontrivial-Z"),
                        "--degree-max", "2", "--connected")
        assert code == 0
        assert doc["reports"][0]["connected"]["verdict"] == "pass"


def two_branch_config(exponent, big_first):
    """A C2 component and a C2 singular piece joined by two branches, one
    mapping g to g on both sides and one with psi: g -> g^exponent."""
    def branch(bid, e):
        return {"id": bid, "component": "A", "singular": "P",
                "group": {"kind": "cyclic", "order": 2},
                "psi": {"g": [["g", e]]}, "phi": {"g": [["g", 1]]}}
    branches = [branch("b1", 1), branch("b2", exponent)]
    if big_first:
        branches.reverse()
    c2 = {"kind": "cyclic", "order": 2}
    return {"components": [{"id": "A", "group": c2}],
            "singulars": [{"id": "P", "group": c2}], "branches": branches}


def long_image_config(exponent):
    """An S3 component and a C2 piece joined by two C2 branches: one maps
    g to s1 s2 s1 and to g, the other to s2 and to g^exponent."""
    c2 = {"kind": "cyclic", "order": 2}

    def branch(bid, psi, e):
        return {"id": bid, "component": "A", "singular": "P", "group": c2,
                "psi": {"g": psi}, "phi": {"g": [["g", e]]}}
    return {"components": [{"id": "A",
                            "group": {"kind": "symmetric", "degree": 3}}],
            "singulars": [{"id": "P", "group": c2}],
            "branches": [branch("b1", [["s1", 1], ["s2", 1], ["s1", 1]], 1),
                         branch("b2", [["s2", 1]], exponent)]}


class TestLargeExponents:
    """An exponent of any size in a branch map costs no more than a small
    one: a map's exponents are reduced modulo the orders of their
    generators as it is read, Tietze powers a one-syllable core by
    multiplying, and both counters reduce exponents modulo the exponent
    of Sym(d)."""

    CALLS = [("present", "--degrees", "1,2,3,4,5"),
             ("present", "--route", "devissage", "--degrees", "3"),
             ("verify", "--degree-max", "5", "--connected")]

    @pytest.mark.parametrize("exponent", [10 ** 21 + 1, 10 ** 7 + 1])
    @pytest.mark.parametrize("big_first", [False, True])
    @pytest.mark.parametrize("argv", CALLS)
    def test_counts_and_reports_equal_exponent_one(
            self, tmp_path, capsys, exponent, big_first, argv):
        docs = []
        for e in (exponent, 1):
            path = tmp_path / f"two-{e}.json"
            path.write_text(json.dumps(two_branch_config(e, big_first)))
            start = time.perf_counter()
            code, doc = run(capsys, argv[0], str(path), *argv[1:])
            assert time.perf_counter() - start < 1
            assert code == 0, doc
            docs.append(doc)
        big, one = docs
        if argv[0] == "present":
            assert big["hom_counts"] == one["hom_counts"]
        else:
            assert big == one

    @pytest.mark.parametrize("argv", CALLS)
    def test_power_of_a_long_image_is_read_at_its_order(self, tmp_path,
                                                         capsys, argv):
        # Tietze substitutes g = s1 s2 s1 into g^exponent: unreduced, a
        # word of 3 * 10^21 syllables
        docs = []
        for e in (10 ** 21 + 1, 1):
            path = tmp_path / f"long-{e}.json"
            path.write_text(json.dumps(long_image_config(e)))
            code, doc = run(capsys, argv[0], str(path), *argv[1:])
            assert code == 0, doc
            docs.append(doc)
        assert docs[0] == docs[1]


class TestPlan:
    def test_nodal_single_step(self, capsys):
        code, doc = run(capsys, "plan", config_path("nodal"))
        assert code == 0
        assert doc["order"] == ["P"] and doc["splits"] == []

    def test_regular_scheme_has_nothing_to_plan(self, capsys):
        code, doc = run(capsys, "plan", config_path("regular"))
        assert code == 2
        assert doc["error"] == {"kind": "input",
                                "message": "regular scheme, nothing to plan"}

    def test_chain_split(self, capsys):
        code, doc = run(capsys, "plan", config_path("chain"))
        assert code == 0
        assert len(doc["splits"]) == 1
        split = doc["splits"][0]
        assert split["d"] == 1 and split["additivity_ok"]

    def test_star_two_splits_additivity(self, capsys):
        code, doc = run(capsys, "plan", config_path("star"))
        assert code == 0
        assert len(doc["splits"]) == 2
        assert all(s["additivity_ok"] for s in doc["splits"])

    def test_rows_count_the_union_before_the_anchor(self, capsys):
        # a row lists what its split adds; the union before it is
        # counted, not listed, so the output grows linearly
        code, doc = run(capsys, "plan", config_path("star"))
        assert code == 0
        for row in doc["splits"]:
            assert sorted(row) == sorted([
                "S", "S1", "s2", "d", "m_tilde_1", "m_tilde_2", "anchor",
                "rank_total", "rank_patch", "rank_complement",
                "additivity_ok"])
        covered = set()
        expected = []
        cfg = load_corpus()["star"]
        for sid in doc["order"]:
            comps = {b.component for b in cfg.branches if b.singular == sid}
            if covered:
                expected.append(len(covered))
            covered |= comps
        assert [row["s2"] for row in doc["splits"]] == expected[::-1]

    def test_devissage_derivation_spells_the_planned_order(self, capsys):
        for name in ("nodal", "chain", "theta", "star", "semistable-C2",
                     "nontrivial-Z", "nontrivial-Z2"):
            code, plan = run(capsys, "plan", config_path(name))
            code2, doc = run(capsys, "present", config_path(name),
                             "--route", "devissage")
            assert code == code2 == 0
            # the first patch's piece, then the anchor of each split
            steps = [node for node in doc["expression"]["nodes"]
                     if "theorem" in node]
            order = [steps[0]["inputs"]["singular"]] \
                + [s["inputs"]["anchor"] for s in steps
                   if s["theorem"] == "devissage-split"]
            assert order == plan["order"], name


class TestRank:
    def test_theta(self, capsys):
        code, doc = run(capsys, "rank", config_path("theta"))
        assert code == 0
        assert doc == {"n": 2, "m": 2, "m_tilde": 4, "rank": 1}


class TestGlobalBounds:
    def test_a_recursion_error_exits_4_from_the_pi1_layer(self, capsys,
                                                          monkeypatch):
        def deep(cfg):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "pi1_graph_of_groups", deep)
        code, doc = run(capsys, "present", config_path("nodal"))
        assert code == 4
        assert list(doc) == ["error"]
        assert (doc["error"]["kind"], doc["error"]["layer"]) \
            == ("resource", "pi1")

    def test_degree_bound_flag(self, capsys):
        code, doc = run(capsys, "present", config_path("nodal"),
                        "--degrees", "3", "--bound-degree", "2")
        assert code == 4
        assert doc["error"]["kind"] == "resource"

    @pytest.mark.parametrize("flag", ["--ceiling", "--bound-degree",
                                      "--bound-order"])
    def test_negative_bound_is_an_input_error(self, capsys, flag):
        code, doc = run(capsys, "verify", config_path("theta"), flag, "-5")
        assert code == 2
        assert doc["error"] == {"kind": "input", "message":
                                f"{flag} must be non-negative, got -5"}

    @pytest.mark.parametrize("argv", [("--degree-max", "0"),
                                      ("--degree-max", "-3", "--connected")],
                             ids=["zero", "negative-connected"])
    def test_degree_max_below_two_is_an_input_error(self, capsys, argv):
        # the reports start at degree 2, so it would compare nothing
        code, doc = run(capsys, "verify", config_path("theta"), *argv)
        assert code == 2
        assert doc["error"]["kind"] == "input"
        assert "--degree-max must be at least 2" in doc["error"]["message"]

    def test_order_bound_flag_rejects_large_groups(self, tmp_path, capsys):
        doc = {"components": [{"id": "A",
                               "group": {"kind": "symmetric", "degree": 6}}],
               "singulars": [], "branches": []}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(path),
                        "--bound-order", "100")
        assert code == 4
        assert out["error"]["kind"] == "resource"

    def test_order_and_degree_refusals_name_their_numbers(self, tmp_path,
                                                          capsys):
        c7 = {"kind": "presented", "generators": ["a"],
              "relators": [[["a", 7]]]}
        path = tmp_path / "c7.json"
        path.write_text(json.dumps({"components": [{"id": "A",
                                                    "group": c7}]}))
        code, out = run(capsys, "present", str(path), "--bound-order", "6")
        assert code == 4
        assert out["error"] == {"kind": "resource", "layer": "groups",
                                "estimate": 7, "ceiling": 6,
                                "message": "group order 7 exceeds bound 6"}
        code, out = run(capsys, "present", config_path("nodal"),
                        "--degrees", "6")
        assert code == 4
        assert out["error"] == {
            "kind": "resource", "layer": "homcount", "estimate": 6,
            "ceiling": 5,
            "message": "degree 6 exceeds the configured bound 5"}

    @pytest.mark.parametrize("config, argv, gate", [
        ("regular", ("present", "--degrees", "3", "--ceiling", "0"),
         ("charge", "hom search space")),
        ("s3-chain", ("verify", "--degree-max", "2", "--ceiling", "1"),
         ("charge", "action search estimate")),
        ("star", ("verify", "--degree-max", "3", "--ceiling", "15"),
         ("charge", "cover contraction estimate")),
        ("q8", ("validate", "--ceiling", "5"),
         ("charge", "relator length estimate")),
        ("nodal", ("present", "--degrees", "6"), ("check_degree",)),
        ("nodal", ("verify", "--degree-max", "6"), ("check_degree",)),
        ("regular", ("validate", "--bound-order", "1"), ("check_order",)),
        ("q8", ("present", "--bound-order", "7"), ("check_order",)),
    ], ids=["homcount-search", "oracle-actions", "oracle-contraction",
            "relator-length", "homcount-degree", "oracle-degree",
            "cyclic-order", "presented-order"])
    def test_each_refusal_reports_the_numbers_of_its_gate(
            self, tmp_path, capsys, monkeypatch, config, argv, gate):
        # every bound is checked by a method of Limits: the one refusing
        # call's arguments are the layer, estimate and ceiling printed
        from singular_pi1 import Limits, ResourceError
        from test_golden_cli import VALID_EXTRA
        refused = []

        def spy(name, check):
            def checked(limits, *args):
                try:
                    return check(limits, *args)
                except ResourceError:
                    refused.append((name, limits, args))
                    raise
            return checked

        for name in ("charge", "check_degree", "check_order"):
            monkeypatch.setattr(Limits, name, spy(name, getattr(Limits, name)))
        docs = {"s3-chain": scheme_config_to_json(family_config("chain", 2)),
                "q8": VALID_EXTRA["presented-q8"]}
        path = config_path(config)
        if config in docs:
            path = tmp_path / f"{config}.json"
            path.write_text(json.dumps(docs[config]))
        code, doc = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 4
        error = doc["error"] if "error" in doc else doc["reports"][-1]["error"]
        (name, limits, args), = refused
        if name == "charge":
            work, what, layer = args
            assert (name, what) == gate
            numbers = layer, work, limits.ceiling
        elif name == "check_degree":
            d, layer = args
            numbers = layer, d, limits.degree_bound
        else:
            numbers = "groups", args[0], limits.order_bound
        assert name == gate[0]
        assert error["kind"] == "resource"
        assert (error["layer"], error["estimate"], error["ceiling"]) \
            == numbers

    @pytest.mark.parametrize("group, code, layer", [
        # 1800! has more digits than an int may print
        ({"kind": "symmetric", "degree": 1800}, 4, "groups"),
        ({"kind": "symmetric", "degree": 10 ** 30}, 4, "groups"),
        ({"kind": "permutation", "degree": 10 ** 12, "generators": [[0]]},
         3, None),
    ], ids=["symmetric-1800", "symmetric-1e30", "permutation-1e12"])
    def test_huge_group_sizes_are_refused_at_once(self, tmp_path, capsys,
                                                  group, code, layer):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"components": [{"id": "A",
                                                    "group": group}]}))
        start = time.perf_counter()
        got, out = run(capsys, "validate", str(path))
        assert time.perf_counter() - start < 1.0
        assert (got, out["error"].get("layer")) == (code, layer)

    @pytest.mark.parametrize("command", ["validate", "present"])
    def test_huge_relator_exponent_is_refused_before_expansion(
            self, tmp_path, capsys, command):
        # the coset closure would write a^(10^21) out letter by letter
        group = {"kind": "presented", "generators": ["a", "b", "c"],
                 "relators": [[["a", 1], ["b", -1], ["c", -1]],
                              [["a", 10 ** 21]], [["b", 2]], [["c", 2]]]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"components": [{"id": "A",
                                                    "group": group}]}))
        code, out = run(capsys, command, str(path))
        assert code == 4
        assert out["error"] == {
            "kind": "resource", "layer": "groups",
            "estimate": 10 ** 21 + 7, "ceiling": 10 ** 8,
            "message": f"relator length estimate {10 ** 21 + 7} exceeds "
                       f"ceiling {10 ** 8}"}

    def test_a_lifted_ceiling_still_refuses_a_relator_no_list_holds(
            self, tmp_path, capsys):
        # above the ceiling's reach, a^(10^21) is still longer than any
        # list: the refusal keeps exit 4 instead of an OverflowError
        from test_golden_cli import INVALID
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(INVALID["huge-relator-exponent"]))
        code, out = run(capsys, "present", str(path),
                        "--ceiling", str(10 ** 22))
        assert code == 4
        assert out["error"] == {
            "kind": "resource", "layer": "groups",
            "estimate": 10 ** 21 + 7, "ceiling": sys.maxsize,
            "message": f"relator length {10 ** 21 + 7} exceeds the longest "
                       f"list, {sys.maxsize}"}

def test_corpus_validates_and_verifies_at_degree_two(capsys):
    for name in ("regular", "nodal", "chain", "theta", "star",
                 "semistable-C2", "nontrivial-Z", "nontrivial-Z2"):
        code, _ = run(capsys, "validate", config_path(name))
        assert code == 0, name
        code, doc = run(capsys, "verify", config_path(name),
                        "--degree-max", "2")
        assert code == 0, name
        assert all(r["verdict"] == "pass" for r in doc["reports"]), name


# -- mutated documents -----------------------------------------------------

# what a mutation may write in place of a node, besides another node of
# the same document: wrong types, edge integers, names the corpus uses,
# and groups of every kind
FUZZ_VALUES = [
    None, True, 0, 1, -1, 2, 3, 6, 10 ** 30, 2.5, "", "A", "P", "g", "b1",
    "cyclic", [], {}, [["g", 1]], ["g", 2], {"g": [["g", 3]]},
    {"kind": "symmetric", "degree": 3}, {"kind": "symmetric", "degree": 8},
    {"kind": "cyclic", "order": 10 ** 30},
    {"kind": "permutation", "degree": 3, "generators": [[1, 2, 0]]},
    {"kind": "presented", "generators": ["g"], "relators": [[["g", 4]]]},
]
FUZZ_ARGVS = [
    ["validate"], ["present"], ["present", "--route", "devissage"],
    ["present", "--degrees", "2,3"],
    ["verify", "--degree-max", "3", "--connected"], ["plan"], ["rank"],
    # a refusal partway through verify's reports
    ["verify", "--degree-max", "3", "--ceiling", "10"],
]


def nodes_of(doc, path=()):
    """The path of every node of ``doc``, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from nodes_of(value, path + (key,))


def mutate(doc, rng):
    """A copy of ``doc`` with one to three nodes replaced, deleted or
    duplicated.  A replacement is a node of the document or one of
    ``FUZZ_VALUES``, half the time one of the replaced node's type."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice((1, 1, 2, 3))):
        paths = list(nodes_of(doc))
        nodes = [functools.reduce(operator.getitem, p, doc) for p in paths]
        if len(paths) == 1:
            break
        *path, key = rng.choice(paths[1:])
        parent = functools.reduce(operator.getitem, path, doc)
        move = rng.choice(("replace", "delete", "duplicate"))
        if move == "replace":
            pool = nodes + FUZZ_VALUES
            if rng.random() < 0.5:
                pool = [v for v in pool if type(v) is type(parent[key])]
            parent[key] = copy.deepcopy(rng.choice(pool))
        elif move == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[rng.choice(list(parent))] = copy.deepcopy(parent[key])
    return doc


def test_mutated_corpus_documents_keep_the_exit_code_contract(tmp_path,
                                                               capsys):
    """Every command on a mutated corpus document exits 0 to 4 and
    prints one JSON object; on exits 2 to 4 that is an error object of
    the exit's kind, ``validate``'s failed report or ``verify``'s
    reports with a refusal."""
    rng = random.Random(38)
    docs = [json.loads(Path(config_path(name)).read_text())
            for name in sorted(load_corpus())]
    path = str(tmp_path / "mutated.json")
    kinds = {"input": 2, "schema": 3, "resource": 4}
    codes = set()
    for _ in range(400):
        doc = mutate(rng.choice(docs), rng)
        Path(path).write_text(json.dumps(doc))
        for command, *flags in FUZZ_ARGVS:
            code = main([command, path, *flags])
            payload = json.loads(capsys.readouterr().out)
            where = (command, flags, doc)
            assert 0 <= code <= 4 and isinstance(payload, dict), where
            if code >= 2 and "error" in payload:
                assert len(payload) == 1, where
                assert kinds[payload["error"]["kind"]] == code, where
            elif code >= 2:
                assert (command, code) in (("validate", 2), ("verify", 4)), \
                    where
                assert ("ok" if command == "validate" else "reports") \
                    in payload, where
            codes.add(code)
    # the documents reach success and the three error exits
    assert {0, 2, 3, 4} <= codes


# -- argv ------------------------------------------------------------------

P = "c.json"
EVERY = ("--bound-order", "--bound-degree", "--ceiling", "--output")
OWN = {"validate": (), "plan": (), "rank": (),
       "present": ("--route", "--form", "--simplify", "--degrees"),
       "verify": ("--degree-max", "--connected")}
CHOICES = ("auto", "devissage", "i", "ii", "iii", "iv", "true", "false")

ARGVS = [
    *[[command, P] for command in OWN],
    # every flag of every command, spelled out and with "="
    *[[command, P, "--bound-order", "7", "--bound-degree", "4",
       "--ceiling", "100", "--output", "o.json"] for command in OWN],
    *[[command, "--bound-order=7", "--bound-degree=4", "--ceiling=100",
       "--output=o.json", P] for command in OWN],
    ["present", P, "--route", "devissage", "--form", "iii", "--simplify",
     "false", "--degrees", "2,3"],
    ["present", "--route=auto", "--form=iv", P, "--simplify=true",
     "--degrees=2"],
    ["verify", P, "--degree-max", "5", "--connected"],
    ["verify", "--connected", "--degree-max=4", P],
    ["validate", P, "--output="],
    # unique prefixes, and an ambiguous one
    ["present", P, "--deg", "2,3"], ["verify", P, "--deg", "4"],
    ["verify", P, "--conn"], ["validate", P, "--c", "5"],
    ["present", P, "--r", "devissage", "--f", "ii", "--s", "false"],
    ["rank", P, "--bound-o", "3", "--o", "x.json", "--he"],
    ["validate", P, "--b", "3"], ["verify", P, "--c", "3"],
    ["validate", "-h", "--b", "3"],
    # the path before, between and after the flags
    ["verify", "--degree-max", "4", P, "--connected"],
    ["verify", "--connected", "--degree-max", "4", P],
    # a repeated flag keeps its last value
    ["present", P, "--form", "ii", "--form", "iv"],
    ["verify", P, "--degree-max", "3", "--degree-max=5", "--connected",
     "--connected"],
    # negative numbers are values
    ["verify", P, "--bound-order", "-1"], ["verify", P, "--degree-max", "-3"],
    ["validate", P, "--ceiling=-5"], ["validate", "-1"],
    ["validate", "-2.5", "--output", "-1"],
    ["verify", P, "--bound-degree", "-2.5"],
    # usage errors
    ["present", P, "--route", "bad"], ["present", P, "--simplify", "yes"],
    ["verify", P, "--degree-max", "three"], ["validate", P, "--ceiling", ""],
    ["validate", P, "--bound-order"], ["validate", P, "--output", "--c", "3"],
    ["validate"], ["verify", "--connected"], ["validate", P, "extra.json"],
    ["validate", P, "--degree-max", "3"], ["plan", P, "--route", "auto"],
    ["verify", P, "--connected=yes"], ["validate", P, "--nope"],
    ["validate", "--nope"], ["verify", "--route", "auto"],
    ["validate", P, "-x"], ["bogus", P], [], ["--output", "o", "rank", P],
    # help, with or without a command, wins over what follows it
    ["-h"], ["--help"], ["--he"], ["-h", "bogus"], ["validate", "-h"],
    ["present", P, "--help"], ["verify", "--he", "--degree-max", "x"],
    ["rank", P, "--bogus", "-h"], ["plan", "a", "b", "-h"],
    ["verify", P, "--degree-max", "x", "-h"], ["--help=x"],
    ["validate", "--help=x", "-h"], ["bogus", "-h"],
]

# argv where the flag table deliberately differs from argparse:
# "--" is no end-of-flags marker, "-h" does not bundle with other
# short flags, only a first argument can ask for help before the command,
# and a flag spelled "--=value" is unknown rather than ambiguous
DIFFERENT = [["validate", "--", "-x.json"], ["validate", P, "-hh"],
             ["validate", "-hx", "-h"], ["--bogus", "-h"],
             ["validate", "--=x", "-h"]]

TOKENS = [*OWN, "bogus", *EVERY, *[f for own in OWN.values() for f in own],
          "--deg", "--conn", "--b", "--c", "--bound-o", "--r", "--s", "--f",
          "--o", "--d", "--h", "--he", "-h", "--help", "--help=x", "-x",
          "--nope", "--route=auto", "--route=x", "--deg=2,3",
          "--degree-max=4", "--connected=1", "--bound-order=-1", "--c=5",
          "--output=", "--b=3", "x.json", "y.json", "3", "-1", "-2.5", "abc",
          *CHOICES, "2,3", "", "-", "-1x", "- x", "-a b"]


def outcome(parse, argv):
    """``("ok", attributes)`` of a parsed argv, or ``("exit", code)``."""
    try:
        return "ok", vars(parse(list(argv)))
    except cli.Usage as exc:
        return "exit", exc.args[0]
    except SystemExit as exc:
        return "exit", exc.code


def reference(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return outcome(argparse_reference().parse_args, argv)


class TestArgv:
    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_fixed_argv_matches_argparse(self, argv):
        assert outcome(cli.parse_args, argv) == reference(argv)

    def test_random_argv_matches_argparse(self):
        rng = random.Random(15)
        for _ in range(500):
            argv = rng.choices(TOKENS, k=rng.randint(0, 5))
            argv.insert(rng.randint(0, len(argv)), P)
            argv.insert(0, rng.choice(list(OWN)))
            assert outcome(cli.parse_args, argv) == reference(argv), argv

    @pytest.mark.parametrize("argv", DIFFERENT, ids=" ".join)
    def test_listed_differences_from_argparse(self, argv):
        assert outcome(cli.parse_args, argv) != reference(argv)

    def test_help_names_every_command_flag_and_choice(self, capsys):
        assert main(["-h"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: singular-pi1 ") and err == ""
        for name in [*OWN, *EVERY, *OWN["present"], *OWN["verify"],
                     "-h", "--help", *CHOICES]:
            assert re.search(rf"(?<![\w-]){name}(?![\w-])", out), name

    def test_command_help_lists_its_own_flags_only(self, capsys):
        assert main(["verify", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--degree-max" in out and "--bound-order" in out
        assert "--route" not in out and "present" not in out

    @pytest.mark.parametrize("argv", [
        ["present", P, "--route", "bad"], ["verify", P, "--degree-max", "x"],
        ["validate", P, "--output"], ["validate"], ["validate", P, P],
        ["validate", P, "--connected"], ["bogus"], []])
    def test_usage_error_exits_2_with_nothing_on_stdout(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: singular-pi1 ")
        assert error.startswith("singular-pi1: error: ")


    @pytest.mark.parametrize("flag", ["--bound-order", "--bound-degree",
                                      "--ceiling", "--degree-max"])
    def test_non_integer_value_names_its_flag(self, capsys, flag):
        assert main(["verify", P, flag, "abc"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] \
            == f"singular-pi1: error: {flag} cannot take 'abc'"
        assert "invalid literal" not in err


def test_closed_stdout_exits_3_without_a_traceback(tmp_path):
    # about 240 KB of output, far more than a pipe holds, so the write
    # after the reader has gone fails every time
    path = tmp_path / "chain64.json"
    path.write_text(json.dumps(scheme_config_to_json(
        family_config("chain", 64))))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "singular_pi1.cli", "present", str(path),
         "--route", "devissage"], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, bufsize=0, env=env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 3
    assert err == b""


class TestCollector:
    """``main`` freezes what the import allocated for the length of the
    call and leaves no freeze behind, however the call ends."""

    @pytest.fixture
    def freezes(self, monkeypatch):
        """The freeze count inside each call, seen by ``_run``."""
        seen, run_ = [], cli._run

        def spy(args):
            seen.append(gc.get_freeze_count())
            return run_(args)
        monkeypatch.setattr(cli, "_run", spy)
        return seen

    @pytest.mark.parametrize("argv, code", [
        (["validate", "nodal"], 0),
        (["verify", "nodal", "--degree-max", "1"], 2),
        (["validate", "missing"], 3),
        (["verify", "nodal", "--ceiling", "0"], 4),
    ])
    def test_each_exit_code_unfreezes(self, capsys, freezes, argv, code):
        argv[1] = config_path(argv[1])
        assert gc.get_freeze_count() == 0
        assert main(argv) == code
        assert freezes[0] > 0 and gc.get_freeze_count() == 0

    def test_a_usage_error_unfreezes(self, capsys):
        assert main(["validate"]) == 2
        assert gc.get_freeze_count() == 0

    def test_a_closed_stdout_unfreezes(self, monkeypatch, freezes):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

            def fileno(self):
                return fd

        fd = os.open(os.devnull, os.O_WRONLY)
        try:
            monkeypatch.setattr(sys, "stdout", Closed())
            assert main(["validate", config_path("nodal")]) == 3
        finally:
            os.close(fd)
        assert freezes[0] > 0 and gc.get_freeze_count() == 0

    def test_an_escaping_exception_unfreezes(self, monkeypatch):
        def fail(args):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "_run", fail)
        with pytest.raises(KeyboardInterrupt):
            main(["validate", config_path("nodal")])
        assert gc.get_freeze_count() == 0

    def test_a_host_freeze_is_left_alone(self, capsys, freezes):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert main(["validate", config_path("nodal")]) == 0
            assert freezes == [frozen] and gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_a_cycle_dropped_before_the_call_is_collected_after_it(
            self, capsys, freezes):
        class Node:
            pass

        node = Node()
        node.cycle = node
        ref = weakref.ref(node)
        # no automatic pass may take the cycle before the freeze does
        gc.disable()
        try:
            del node
            assert main(["validate", config_path("nodal")]) == 0
        finally:
            gc.enable()
        assert freezes[0] > 0 and ref() is not None
        gc.collect()
        assert ref() is None


def test_verify_logs_the_oracle_estimate_at_debug(capsys, caplog):
    caplog.set_level(logging.DEBUG, logger="singular_pi1.oracle")
    assert main(["verify", config_path("nodal"), "--degree-max", "2"]) == 0
    assert [r.getMessage() for r in caplog.records
            if r.name == "singular_pi1.oracle"] == [
        "oracle degree 2: classes [1, 1], estimate 8, ceiling 100000000"]
