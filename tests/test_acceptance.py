"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance here is exact integer/rational equality; the only
numeric budgets are the wall-clock limits stated per criterion.
"""

import json
import random
import time
from importlib import resources
from math import factorial

from singular_pi1 import (GroupSpec, InputError, compare, count_homs,
                          devissage_order, free_rank, pi1_devissage,
                          tietze_simplify, validate)
from singular_pi1.cli import main as cli_main
from support import (brute_count_homs, build_union, check_vk_forms,
                     connected_reference, leg_pairs, load_corpus,
                     random_presentation, random_trivial_config,
                     search_count_homs, split_unions, standard_hom, walk)

GRID_GROUPS = [GroupSpec.trivial(), GroupSpec.cyclic(2), GroupSpec.cyclic(3),
               GroupSpec.symmetric(3)]


def config_path(name):
    return str(resources.files("singular_pi1") / "configs" / f"{name}.json")


def _report(criterion, detail, elapsed, budget):
    line = f"PASS criterion {criterion}: {detail} ({elapsed:.2f}s)"
    print(line)
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s budget"


def test_criterion_1_nodal_curve(capsys):
    start = time.time()
    code = cli_main(["present", config_path("nodal")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    expression = out["expression"]
    assert expression["nodes"][expression["root"]] == {
        "type": "free", "rank": 1, "theorem": "graph-of-groups",
        "inputs": {"n": 1, "m": 1, "m_tilde": 2, "rank": 1,
                   "stable_branches": ["b2"]}}

    corpus = load_corpus()
    result = pi1_devissage(corpus["nodal"])
    for d in (2, 3, 4):
        assert count_homs(result.presentation, d) == factorial(d)

    code = cli_main(["verify", config_path("nodal"), "--degree-max", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(r["verdict"] == "pass" for r in out["reports"])
    elapsed = time.time() - start
    with capsys.disabled():
        _report(1, "nodal curve is infinite cyclic, oracle passes to "
                   "degree 3", elapsed, 1.0)


def test_criterion_2_rank_formula(capsys):
    start = time.time()
    corpus = load_corpus()
    configs = [cfg for cfg in corpus.values()
               if all(s.group.order == 1 for s in cfg.singulars)
               and all(b.group.order == 1 for b in cfg.branches)]
    rng = random.Random(2024)
    generated = []
    while len(generated) < 20:
        cfg = random_trivial_config(rng, max_components=4, max_singulars=4,
                                    max_branches=7)
        assert validate(cfg).ok
        generated.append(cfg)
    checked = 0
    for cfg in configs + generated:
        rank = free_rank(cfg)  # internally asserts the cycle-rank identity
        assert rank == cfg.m_tilde - cfg.m - cfg.n + 1
        result = pi1_devissage(cfg)
        for d in (2, 3):
            expected = factorial(d) ** rank
            for comp in cfg.components:
                expected *= count_homs(comp.group.canonical_presentation, d)
            assert count_homs(result.presentation, d) == expected, \
                f"rank identity failed at degree {d}"
        checked += 1
    elapsed = time.time() - start
    with capsys.disabled():
        _report(2, f"rank formula exact on {checked} configurations "
                   f"({len(generated)} generated)", elapsed, 60.0)


def test_criterion_3_master_oracle_identity(capsys):
    start = time.time()
    corpus = load_corpus()
    nontrivial = [name for name, cfg in corpus.items()
                  if any(s.group.order > 1 for s in cfg.singulars)
                  and any(any(b.psi.images) for b in cfg.branches)]
    assert len(nontrivial) >= 2, "corpus must carry two non-trivial-Z configs"
    for name, cfg in corpus.items():
        result = pi1_devissage(cfg)
        for d in (2, 3):
            report = compare(cfg, d, result)
            assert report.verdict, f"{name} fails the master identity at {d}"
            assert report.groupoid_cardinality * factorial(d) \
                == report.presentation_count
    elapsed = time.time() - start
    with capsys.disabled():
        _report(3, f"groupoid cardinality x d! equals hom count on "
                   f"{len(corpus)} configs at degrees 2 and 3 "
                   f"(non-trivial singular groups: {sorted(nontrivial)})",
                elapsed, 300.0)


def test_criterion_4_vk_form_equivalences(capsys):
    start = time.time()
    cells = 0
    for pi in GRID_GROUPS:
        for pi_prime in GRID_GROUPS:
            for pi_double in GRID_GROUPS:
                leg = leg_pairs(pi_double, standard_hom(pi_double, pi),
                                standard_hom(pi_double, pi_prime))
                for s in (1, 2, 3):
                    counts, ok = check_vk_forms(
                        pi.canonical_presentation,
                        pi_prime.canonical_presentation, [leg] * s, [2, 3])
                    assert ok, (f"forms disagree or maps fail for {pi},"
                                f"{pi_prime},{pi_double},s={s}: {counts}")
                    cells += 1
    elapsed = time.time() - start
    with capsys.disabled():
        _report(4, f"all four forms agree and the explicit maps invert on "
                   f"{cells} grid cells", elapsed, 120.0)


def test_criterion_5_devissage_robustness(capsys):
    start = time.time()
    corpus = load_corpus()
    order_pairs = 0
    for name, cfg in corpus.items():
        if cfg.m < 1:
            continue
        order = devissage_order(cfg)
        for r in range(1, len(order) + 1):
            assert connected_reference(build_union(cfg, order[:r])), \
                f"{name}: prefix {order[:r]} disconnected"
        if cfg.m >= 2:
            alt = tuple(reversed(order))
            try:
                b = pi1_devissage(cfg, order=alt)
            except InputError:
                continue  # this configuration admits only one order
            a = pi1_devissage(cfg, order=order)
            for d in (2, 3):
                assert count_homs(a.presentation, d) \
                    == count_homs(b.presentation, d), name
            order_pairs += 1
    assert order_pairs >= 3
    elapsed = time.time() - start
    with capsys.disabled():
        _report(5, f"prefixes connected on all corpus configs; "
                   f"{order_pairs} alternative orders give equal counts",
                elapsed, 60.0)


def test_criterion_6_rank_additivity(capsys):
    start = time.time()
    corpus = load_corpus()
    splits = 0
    for name, cfg in corpus.items():
        if cfg.m < 2:
            continue
        for prefix, split in walk(cfg):
            if not split.overlap:
                continue
            scope, patch, complement = split_unions(cfg, prefix, split)
            assert free_rank(scope) == free_rank(patch) \
                + free_rank(complement) + len(split.overlap) - 1, \
                (name, prefix[-1])
            splits += 1
    assert splits >= 4
    elapsed = time.time() - start
    with capsys.disabled():
        _report(6, f"rank additivity exact across {splits} planned splits",
                elapsed, 60.0)


def test_criterion_7_simplification_soundness(capsys):
    start = time.time()
    rng = random.Random(777)
    for i in range(100):
        p = random_presentation(rng, max_gens=4, max_relators=4, max_len=6)
        q = tietze_simplify(p)
        for d in (2, 3, 4):
            # count_homs simplifies too: the reference must not; the full
            # scan of four generators at degree 4 alone takes about 40 s
            reference = brute_count_homs if d < 4 else search_count_homs
            assert count_homs(q, d) == reference(p, d), \
                f"presentation {i} changed its degree-{d} count"
    elapsed = time.time() - start
    with capsys.disabled():
        _report(7, "tietze simplification preserves hom counts at degrees "
                   "2-4 on 100 random presentations", elapsed, 120.0)
