"""Deterministic chain, star and theta dual graphs, written as CLI configs.

* chain N: components C0..CN, singular piece Pi joins C(i-1) and Ci;
* star N:  a hub component and leaves L1..LN, Pi joins the hub and Li;
* theta N: components A and B, every Pi joins A and B.

The "nontrivial" variant gives every component the group S3, every
singular piece and branch the group C2, with psi: g -> s1 and
phi: g -> g.  The "trivial" variant makes every group trivial.

A seed relabels every id and shuffles the declaration order of the
components and the branches.  The singular pieces keep their generated
order, because the first declared piece and the declaration order fix
the dévissage order, and with it the work the assembly does.
"""

import json
import random

FAMILIES = ("chain", "star", "theta")
VARIANTS = ("nontrivial", "trivial")


def _edges(family, n):
    """(components, [(singular, component, component), ...]) by role."""
    if family == "chain":
        comps = [f"C{i}" for i in range(n + 1)]
        return comps, [(f"P{i}", f"C{i - 1}", f"C{i}") for i in range(1, n + 1)]
    if family == "star":
        comps = ["hub"] + [f"L{i}" for i in range(1, n + 1)]
        return comps, [(f"P{i}", "hub", f"L{i}") for i in range(1, n + 1)]
    if family == "theta":
        return ["A", "B"], [(f"P{i}", "A", "B") for i in range(1, n + 1)]
    raise ValueError(f"unknown family {family!r}")


def family_config(family, variant, n, seed):
    """The configuration document of one family member."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if n < 1:
        raise ValueError("a family needs at least one singular piece")
    rng = random.Random(f"{family}/{variant}/{n}/{seed}")
    comps, pieces = _edges(family, n)
    names = comps + [p for p, _, _ in pieces] \
        + [f"{p}.{k}" for p, _, _ in pieces for k in (0, 1)]
    labels = rng.sample(range(10 * len(names)), len(names))
    label = {name: f"x{labels[i]}" for i, name in enumerate(names)}

    nontrivial = variant == "nontrivial"
    comp_group = {"kind": "symmetric", "degree": 3} if nontrivial \
        else {"kind": "trivial"}
    edge_group = {"kind": "cyclic", "order": 2} if nontrivial \
        else {"kind": "trivial"}

    components = [{"id": label[c], "group": comp_group} for c in comps]
    singulars = [{"id": label[p], "group": edge_group} for p, _, _ in pieces]
    branches = []
    for p, left, right in pieces:
        for k, comp in enumerate((left, right)):
            branch = {"id": label[f"{p}.{k}"], "component": label[comp],
                      "singular": label[p], "group": edge_group}
            if nontrivial:
                branch["psi"] = {"g": [["s1", 1]]}
                branch["phi"] = {"g": [["g", 1]]}
            branches.append(branch)
    rng.shuffle(components)
    rng.shuffle(branches)
    return {"components": components, "singulars": singulars,
            "branches": branches}


def write_config(directory, family, variant, n, seed):
    """Write one family member under ``directory``; return its path."""
    path = directory / f"{family}-{variant}-{n}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_config(family, variant, n, seed), fh, indent=1)
    return path
