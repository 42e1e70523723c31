"""The package's shape: which modules may import which, and the library
entry points README documents."""

import ast
import json
import re
from importlib import resources
from pathlib import Path

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
                 "schema", "expression", "vk"):
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
