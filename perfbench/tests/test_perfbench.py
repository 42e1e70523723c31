"""Tests of the benchmark itself: inputs, references, worker and tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import families  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

from singular_pi1.cli import main as cli_main  # noqa: E402

CORPUS = ROOT / "src" / "singular_pi1" / "configs"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main([str(a) for a in argv])
    return code, json.loads(buf.getvalue())


@pytest.mark.parametrize("family", families.FAMILIES)
@pytest.mark.parametrize("variant", families.VARIANTS)
@pytest.mark.parametrize("n,seed", [(1, 1), (2, 7), (5, 3)])
def test_generated_configs_validate(tmp_path, family, variant, n, seed):
    path = families.write_config(tmp_path, family, variant, n, seed)
    assert run_cli(["validate", path]) == (0, {"ok": True})


def test_seed_relabels_and_shuffles_but_keeps_the_singular_order():
    a = families.family_config("chain", "nontrivial", 6, 1)
    assert a == families.family_config("chain", "nontrivial", 6, 1)
    b = families.family_config("chain", "nontrivial", 6, 2)
    assert {c["id"] for c in a["components"]} \
        != {c["id"] for c in b["components"]}
    for doc in (a, b):
        comps = {}
        for br in doc["branches"]:
            comps.setdefault(br["singular"], set()).add(br["component"])
        order = [s["id"] for s in doc["singulars"]]
        # consecutive pieces of a chain share exactly one component
        for left, right in zip(order, order[1:]):
            assert len(comps[left] & comps[right]) == 1


def test_reference_formulas_reproduce_the_known_counts():
    assert reference.family_homs("chain", "nontrivial", 3, 5) == 33386
    assert reference.family_homs("chain", "nontrivial", 6, 4) == 468754
    assert reference.family_homs("theta", "nontrivial", 3, 5) == 108960
    assert reference.family_homs("theta", "nontrivial", 4, 4) == 24960


def test_hall_recursion():
    # Z: h_d = d!, and (d-1)! of those homs are transitive
    homs = [factorial(d) for d in range(1, 6)]
    assert reference.transitive_homs(homs) \
        == [factorial(d - 1) for d in range(1, 6)]
    # the trivial group has one transitive action, on one point
    assert reference.transitive_homs([1, 1, 1]) == [1, 0, 0]


def _counts(pres, d):
    gens, rels = pres["generators"], pres["relators"]
    if d == 2:
        return reference.count_homs_d2(gens, rels)
    return reference.count_homs_elimination(gens, rels, d)


@pytest.mark.parametrize("family", families.FAMILIES)
@pytest.mark.parametrize("variant", families.VARIANTS)
def test_presentation_counters_agree_with_the_formulas(tmp_path, family,
                                                       variant):
    for n in (2, 3):
        path = families.write_config(tmp_path, family, variant, n, 5)
        code, out = run_cli(["present", path])
        assert code == 0
        for d in (2, 3):
            assert _counts(out["presentation"], d) \
                == reference.family_homs(family, variant, n, d)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_corpus_formulas_agree_with_the_presentation_counters(path):
    doc = json.loads(path.read_text())
    code, out = run_cli(["present", path])
    assert code == 0
    for d in (2, 3):
        assert _counts(out["presentation"], d) \
            == reference.corpus_homs(path.stem, doc, d)


def test_elimination_gives_up_beyond_its_table_bound():
    gens = [f"x{i}" for i in range(5)]
    rel = [[g, 1] for g in gens]
    assert reference.count_homs_elimination(gens, [rel], 3,
                                            max_table=1000) is None
    assert reference.count_homs_elimination(gens, [rel], 3) == 6 ** 4


def _worker(path, trace):
    request = json.dumps({"argv": ["present", str(path)], "trace": trace})
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=request, capture_output=True, text=True,
                          env=ENV, check=True, timeout=120)
    return json.loads(proc.stdout)


def test_fresh_passes_and_tracing_give_identical_outputs(tmp_path):
    path = families.write_config(tmp_path, "theta", "nontrivial", 4, 1)
    first, second, traced = (_worker(path, False), _worker(path, False),
                             _worker(path, True))
    assert first["exit"] == second["exit"] == traced["exit"] == 0
    assert first["stdout"] == second["stdout"] == traced["stdout"]
    assert first["reference_s"] > 0 and first["seconds"] > 0
    layers = traced["trace"]["layers"]
    assert layers["pi1.devissage"]["calls"] >= 2
    # only the top-level simplification reaches the output
    assert traced["trace"]["counters"]["presentation.tietze_kept"] == 1
    assert traced["trace"]["absent"] == []


def test_tracer_records_absent_names_and_self_time():
    tracer = Tracer()
    tracer.install([("gone", "singular_pi1.pi1", "no_such_function")])
    assert tracer.absent == ["singular_pi1.pi1.no_such_function"]

    def inner():
        return sum(range(10000))

    tracer.call("outer", lambda: tracer.call("inner", inner))
    layers = tracer.summary()["layers"]
    outer, child = tracer.spans
    assert child.parent is outer
    assert layers["outer"]["self"] == pytest.approx(outer.busy - child.busy)
    assert layers["inner"]["self"] == pytest.approx(child.busy)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "present-trivial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
