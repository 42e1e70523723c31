"""The package's shape: which modules may import which, what importing
the CLI loads, the library entry points README documents, and the one
value record, ``Limits``."""

import ast
import copy
import json
import os
import pickle
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from singular_pi1 import (DEFAULT_LIMITS, GroupSpec, InputError, Limits,
                          ResourceError, count_homs, devissage_splits,
                          enumerate_descent_data, free_presentation)
from singular_pi1.vk import vk_glue
from support import load_corpus

PACKAGE = Path(resources.files("singular_pi1"))
README = Path(__file__).resolve().parent.parent / "README.md"


def imported_modules(name):
    """Short names of the package modules that module ``name`` imports."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level and node.module is None:        # from . import x
            out.update(alias.name for alias in node.names)
        elif node.level or node.module.startswith("singular_pi1."):
            out.add(node.module.rsplit(".", 1)[-1])
    return out


def test_the_data_model_and_assembly_do_not_import_the_hom_counter():
    for name in ("words", "presentation", "groups", "homomorphism", "scheme",
                 "schema", "vk"):
        assert "homcount" not in imported_modules(name), name
    assert "homomorphism" not in imported_modules("vk")


def test_the_oracle_shares_no_counting_code_with_the_hom_counter():
    # the master identity compares two independent counts: the oracle
    # may call count_homs only for the right-hand side, in ``compare``,
    # and otherwise only Hall's formula, in ``attach_connected``
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) in ("homcount",
                                              "singular_pi1.homcount"):
            imported.update(alias.name for alias in node.names)
        else:
            assert not any(alias.name.endswith("homcount")
                           for alias in node.names)
    assert imported == {"count_homs", "transitive_counts"}
    used = {}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in imported:
                used.setdefault(node.id, set()).add(getattr(top, "name", None))
    assert used == {"count_homs": {"compare"},
                    "transitive_counts": {"attach_connected"}}


def test_the_cli_import_leaves_out_dataclasses_inspect_and_logging():
    # each costs every CLI call its import; compared with what the bare
    # interpreter already holds, as a host may have imported them
    script = ("import json, sys; bare = set(sys.modules); "
              "import singular_pi1.cli; "
              "print(json.dumps(sorted(set(sys.modules) - bare)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    added = json.loads(subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, check=True).stdout)
    assert "singular_pi1.cli" in added
    assert not {"dataclasses", "inspect", "logging"} & set(added)


def test_limits_are_a_frozen_value():
    tight = Limits(ceiling=10)
    assert tight == Limits(5040, 5, 10) == DEFAULT_LIMITS.replace(ceiling=10)
    assert tight != DEFAULT_LIMITS and hash(tight) == hash(Limits(ceiling=10))
    assert tight.replace(order_bound=7) == Limits(7, 5, 10)
    assert tight == Limits(ceiling=10)            # replace copies
    assert pickle.loads(pickle.dumps(tight)) == copy.copy(tight) == tight
    assert repr(tight) == "Limits(order_bound=5040, degree_bound=5, " \
        "ceiling=10)"
    with pytest.raises(AttributeError):
        tight.ceiling = 0
    with pytest.raises(ValueError):
        tight.replace(bound=1)


def test_readme_library_entry_points_run():
    section = README.read_text(encoding="utf-8").split(
        "## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    block = block.replace('"theta.json"',
                          repr(str(PACKAGE / "configs" / "theta.json")))
    lines = block.splitlines()
    namespace = {"json": json}
    checked = []
    for statement in ast.parse(block).body:
        source = ast.get_source_segment(block, statement)
        if not isinstance(statement, ast.Expr):
            exec(source, namespace)
            continue
        # the comment after an expression states its value
        comment = re.search(r"#\s*([^,]+)", lines[statement.end_lineno - 1])
        assert repr(eval(source, namespace)) == comment.group(1).strip()
        checked.append(comment.group(1).strip())
    assert checked == ["6", "True", "6"]


@pytest.mark.parametrize("call, error, message", [
    (lambda: GroupSpec.symmetric(-1), InputError,
     "symmetric group degree must be >= 0"),
    (lambda: GroupSpec.cyclic(3).evaluate(((1, 1),)), InputError,
     "unknown generator 1 for C3"),
    (lambda: count_homs(free_presentation(1), -1), InputError,
     "degree must be a non-negative integer, got -1"),
    (lambda: count_homs(free_presentation(1), 2.0), InputError,
     "degree must be a non-negative integer, got 2.0"),
    (lambda: enumerate_descent_data(load_corpus()["nodal"], 0),
     ResourceError, "cover enumeration needs degree >= 1"),
    (lambda: free_presentation(-1), InputError,
     "rank must be non-negative"),
    (lambda: next(devissage_splits(load_corpus()["regular"])), InputError,
     "a regular configuration admits no ordering"),
    (lambda: vk_glue([], [], 0, free_presentation(1), [], "v", ""),
     InputError, "unknown form 'v'; expected one of"),
], ids=["symmetric", "evaluate", "count-negative", "count-float",
        "oracle-degree-0", "free-rank", "regular-splits", "vk-form"])
def test_each_precondition_refuses_its_bad_value(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value).startswith(message)
