"""Pinned CLI output: the exit code and the sha256 of the standard output
of every call in a fixed set, held in ``golden_cli.json``.

The configurations are the bundled corpus, the chain, star and theta of
``support.family_config`` with 2 and 3 singular pieces (non-trivial and
trivial), two valid configurations with dotted generator names, a
presented Q8 and a presented trivial group that the coset closure
reaches only by merging cosets, a 4-piece chain whose pieces are
declared out of the dévissage order,
hand-made invalid ones that reach each name and word error of the
parser, a presented group whose relator is too long to write out, and
two with a duplicated id whose map reads only against the last entry of
that id.  Every call runs ``cli.main`` in this process.

To write the file for an intended change of output:

    PYTHONPATH=src:tests python tests/test_golden_cli.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from importlib import resources
from pathlib import Path

from singular_pi1 import scheme_config_to_json
from singular_pi1.cli import main
from support import family_config

GOLDEN = Path(__file__).with_name("golden_cli.json")

C2 = {"kind": "cyclic", "order": 2}
C3 = {"kind": "cyclic", "order": 3}
S3 = {"kind": "symmetric", "degree": 3}
TRIVIAL = {"kind": "trivial"}
KLEIN = {"kind": "presented", "generators": ["p.a", "q.a"],
         "relators": [[["p.a", 2]], [["q.a", 2]],
                      [["p.a", 1], ["q.a", 1], ["p.a", -1], ["q.a", -1]]]}


def _one_branch(component, branch, psi=None):
    """Component ``A`` and trivial piece ``P`` joined by two branches;
    the first has group ``branch`` and map ``psi`` into ``component``."""
    first = {"id": "b1", "component": "A", "singular": "P",
             "group": branch}
    if psi is not None:
        first["psi"] = psi
        first["phi"] = {name: [] for name in psi}
    return {"components": [{"id": "A", "group": component}],
            "singulars": [{"id": "P", "group": TRIVIAL}],
            "branches": [first,
                         {"id": "b2", "component": "A", "singular": "P",
                          "group": TRIVIAL}]}


def _duplicated(section):
    """Two entries ``section`` with one id, C2 first and S3 last, and a
    branch whose map sends ``g`` to ``s1`` there: it reads only where
    the last entry is the one a reference resolves to."""
    doc = {"components": [{"id": "A", "group": TRIVIAL}],
           "singulars": [{"id": "P", "group": TRIVIAL}],
           "branches": [{"id": "b1", "component": "A", "singular": "P",
                         "group": C2, "psi": {"g": []}, "phi": {"g": []}},
                        {"id": "b2", "component": "A", "singular": "P",
                         "group": TRIVIAL}]}
    doc[section] = [{**doc[section][0], "group": C2},
                    {**doc[section][0], "group": S3}]
    doc["branches"][0]["psi" if section == "components" else "phi"] = \
        {"g": [["s1", 1]]}
    return doc


def _presented(generators, relators):
    return _one_branch({"kind": "presented", "generators": generators,
                        "relators": relators}, TRIVIAL)


def _declared(doc, order):
    """``doc`` with its singular pieces, and the branches over each,
    declared in ``order``."""
    return {"components": doc["components"],
            "singulars": sorted(doc["singulars"],
                                key=lambda s: order.index(s["id"])),
            "branches": sorted(doc["branches"],
                               key=lambda b: order.index(b["singular"]))}


VALID_EXTRA = {
    "dotted-component": _one_branch(KLEIN, TRIVIAL),
    "dotted-target": _one_branch(KLEIN, C2, {"g": [["p.a", 1]]}),
    "presented-q8": _presented(["i", "j"], [[["i", 4]], [["i", 2], ["j", -2]],
                                            [["j", -1], ["i", 1], ["j", 1],
                                             ["i", 1]]]),
    # trivial, but the coset closure only finds it by merging cosets
    "presented-trivial-coincidence": _presented(
        ["a", "b"], [[["a", 1], ["b", 1], ["a", -1], ["b", -2]],
                     [["b", 1], ["a", 1], ["b", -1], ["a", -2]]]),
    # the greedy dévissage order P1, P2, P3, P4 passes over the second
    # declared piece, whose patch does not meet the first
    "chain-skip-4": _declared(
        scheme_config_to_json(family_config("chain", 4)),
        ["P1", "P3", "P2", "P4"]),
}

INVALID = {
    "malformed-name": _presented(["1a"], [[["1a", 2]]]),
    "bad-namespace-segment": _presented(["a-b.c"], [[["a-b.c", 2]]]),
    "malformed-word-symbol": _one_branch(C2, C2, {"g": [["9x", 1]]}),
    "bad-word-namespace": _one_branch(C2, C2, {"g": [["a-b.g", 1]]}),
    "leading-dot-symbol": _one_branch(C2, C2, {"g": [[".g", 1]]}),
    "undeclared-relator-symbol": _presented(["a"], [[["a", 2]], [["z", 1]]]),
    "duplicate-generator": _presented(["a", "a"], [[["a", 2]]]),
    "unknown-branch-generator": _one_branch(C2, C2, {"h": [["g", 1]]}),
    "image-outside-target": _one_branch(C2, C2, {"g": [["z", 1]]}),
    "missing-image": _one_branch(C2, C2, {}),
    "non-homomorphism": _one_branch(C3, C2, {"g": [["g", 1]]}),
    "huge-relator-exponent": _presented(
        ["a", "b", "c"], [[["a", 1], ["b", -1], ["c", -1]],
                          [["a", 10 ** 21]], [["b", 2]], [["c", 2]]]),
    # the last of two entries with one id wins: unique-ids, exit 2
    "duplicate-component-last-wins": _duplicated("components"),
    "duplicate-singular-last-wins": _duplicated("singulars"),
}

VALID_CALLS = (
    [["present"] + route + ["--simplify", simplify]
     for route in [[]] + [["--route", "devissage", "--form", form]
                          for form in ("i", "ii", "iii", "iv")]
     for simplify in ("true", "false")]
    + [["present", "--degrees", "2,3,4"],
       ["present", "--degrees", "2,3,4,5", "--ceiling", "3"],
       ["verify", "--degree-max", "3", "--connected"],
       ["plan"], ["rank"], ["validate"]])

INVALID_CALLS = [["validate"], ["present"], ["verify"]]


def configs():
    """Every configuration of the set as ``(name, JSON document, calls)``."""
    out = []
    root = resources.files("singular_pi1") / "configs"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out.append((f"corpus/{entry.name[:-5]}",
                        json.loads(entry.read_text(encoding="utf-8")),
                        VALID_CALLS))
    for family in ("chain", "star", "theta"):
        for nontrivial in (True, False):
            for n in (2, 3):
                kind = "nontrivial" if nontrivial else "trivial"
                doc = scheme_config_to_json(family_config(family, n,
                                                          nontrivial))
                out.append((f"{family}-{kind}-{n}", doc, VALID_CALLS))
    out += [(name, doc, VALID_CALLS) for name, doc in VALID_EXTRA.items()]
    out += [(name, doc, INVALID_CALLS) for name, doc in INVALID.items()]
    return out


def outputs(directory):
    """``{call id: [exit code, sha256 of stdout]}`` for the whole set."""
    out = {}
    for name, doc, calls in configs():
        path = Path(directory) / (name.replace("/", "-") + ".json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        for call in calls:
            argv = [call[0], str(path)] + call[1:]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            out[" ".join([name] + call)] = [code, digest]
    return out


def test_cli_output_matches_the_pinned_set(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = outputs(tmp_path)
    assert sorted(got) == sorted(golden)
    changed = [call for call in golden if got[call] != golden[call]]
    assert not changed, changed


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_cli.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(outputs(tmp), indent=1, sort_keys=True)
                          + "\n", encoding="utf-8")
