"""Time ``present`` and ``plan`` on large scaled families.

Run from the repository root:

    python3 tools/bench_present_families.py --label after
    python3 tools/bench_present_families.py --label after \
        --other-tree ../parent --other-label before

Rows (seed 1, written by ``perfbench/families.py``; the variant is
the non-trivial S3/C2 one unless named):

* ``present`` by the default route on chain, star and theta at N = 64,
  128, 256, 1024 and 4096;
* ``present --route devissage --form iv`` on theta at N = 6, 8, 64,
  256 and 1024, and ``--form ii`` on theta at N = 6, 8, 10, 64, 256 and
  1024;
* ``present --route devissage`` (form i) on chain at N = 64, 128, 256,
  512 and 1024, and on theta and star at N = 64, 128, 256, 512 and
  1024;
* ``present --route devissage`` on the trivial chain at N = 1000 and
  2000;
* ``plan`` on chain, star and theta at N = 256 and 1024;
* ``present --degrees 2,3,4,5`` (the default route, counted under the
  default ceiling) on chain, star and theta at N = 256 and 1024;
* ``present`` on a nodal curve whose component group is presented:
  one component, one trivial piece and two trivial branches, like the
  corpus's ``nodal``, with the component group ⟨a | a^k⟩ for k = 720,
  2520 and 5040 (variants ``C720``, ``C2520``, ``C5040``), or the
  Coxeter presentation of Sym(7) (variant ``S7``).  The script writes
  these configurations itself; their family is ``nodal`` and their N is
  1.  Nearly all of such a call is the coset closure of the group.

Each row makes ``CALLS`` CLI calls, each in a fresh interpreter under
the default flags, with the runner of ``bench_verify_families.py``, and
records the median of their wall times, so that one slow call on a VM
whose speed drifts does not move the row.  A row records its command,
variant and flags, that median and every call's wall time, the exit
code, and the size and SHA-256 digest of what the calls wrote to
stdout; a call still running after the runner's timeout ends the row,
which is recorded with exit null.  (Rows of labels recorded before the
command and the digest were added ran ``present`` and have no digest;
rows of labels recorded before ``wall_s_calls`` was added are one call
each.  The ``before-vk`` label has no form iv row above N = 8: there
form iv still copied the union once per overlap component, so its raw
presentation doubled with every piece of the theta.)

The rows are stored under ``--label`` in ``--output`` (default
``BENCH_present_families.json`` at the root), next to the rows of other
labels already in the file, so one file holds a before/after pair.
With ``--other-tree DIR --other-label LABEL`` the same run also calls
the package under ``DIR/src``, such as a checkout of the parent commit,
on the same input files: each call of one tree is followed by a call of
the other, the two in turn first, so a drift of the machine's speed
falls on both labels alike, and the rows of ``DIR`` are stored under
``LABEL``.  A label recorded alone runs all its rows minutes before or
after another label, and the speed of a small VM drifts by more than
the change of a row whose code did not change, so only ratios of 4x or
more are read between such labels (rows of labels recorded before
``before-twins`` and ``after-twins`` were recorded so).
"""

import hashlib
import json
import tempfile
from pathlib import Path
from statistics import median

from bench_verify_families import (SEED, families, in_turn, parse_trees,
                                   run_cli, run_record, tree_parser)

CALLS = 5          # fresh-interpreter calls per row; a row is their median

ROWS = [("present", "nontrivial", family, n, ())
        for n in (64, 128, 256, 1024, 4096) for family in families.FAMILIES] \
    + [("present", "nontrivial", "theta", n,
        ("--route", "devissage", "--form", "iv"))
       for n in (6, 8, 64, 256, 1024)] \
    + [("present", "nontrivial", "theta", n,
        ("--route", "devissage", "--form", "ii"))
       for n in (6, 8, 10, 64, 256, 1024)] \
    + [("present", "nontrivial", family, n, ("--route", "devissage"))
       for family in ("chain", "theta", "star")
       for n in (64, 128, 256, 512, 1024)] \
    + [("present", "trivial", "chain", n, ("--route", "devissage"))
       for n in (1000, 2000)] \
    + [("plan", "nontrivial", family, n, ())
       for n in (256, 1024) for family in families.FAMILIES] \
    + [("present", "nontrivial", family, n, ("--degrees", "2,3,4,5"))
       for n in (256, 1024) for family in families.FAMILIES] \
    + [("present", variant, "nodal", 1, ())
       for variant in ("C720", "C2520", "C5040", "S7")]


def presented_group(variant):
    """The presented group of a nodal row: ``C<k>`` is ⟨a | a^k⟩ and
    ``S7`` the Coxeter presentation of Sym(7) on s1 .. s6."""
    if variant == "S7":
        names = [f"s{i}" for i in range(1, 7)]
        relators = [[[s, 2]] for s in names]
        relators += [[[s, 1], [t, 1]] * 3 for s, t in zip(names, names[1:])]
        relators += [[[s, 1], [t, 1]] * 2 for i, s in enumerate(names)
                     for t in names[i + 2:]]
        return {"kind": "presented", "generators": names,
                "relators": relators}
    return {"kind": "presented", "generators": ["a"],
            "relators": [[["a", int(variant[1:])]]]}


def write_nodal(directory, variant):
    """A nodal curve whose component has the group of ``variant``."""
    trivial = {"kind": "trivial"}
    doc = {"components": [{"id": "A", "group": presented_group(variant)}],
           "singulars": [{"id": "P", "group": trivial}],
           "branches": [{"id": f"b{i}", "component": "A", "singular": "P",
                         "group": trivial} for i in (1, 2)]}
    path = directory / f"nodal-{variant}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def main():
    args, trees = parse_trees(tree_parser(__doc__,
                                          "BENCH_present_families.json"))

    rows = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        turn = 0
        for command, variant, family, n, flags in ROWS:
            path = write_nodal(Path(tmp), variant) if family == "nodal" \
                else families.write_config(Path(tmp), family, variant, n,
                                           SEED)
            runs = {label: [] for label in trees}
            for _ in range(CALLS):
                order = in_turn(trees, turn)
                turn += 1
                for label in order:
                    mine = runs[label]
                    if not mine or mine[-1]["exit"] is not None:
                        mine.append(run_cli((command,), path, flags,
                                            trees[label]))
            for label, mine in runs.items():
                walls = [run["wall_s"] for run in mine]
                stdout = mine[0]["stdout"]
                assert all(run["stdout"] == stdout for run in mine
                           if run["exit"] is not None), \
                    "a row's calls disagree"
                stdout = stdout.encode()
                row = {"command": command, "variant": variant,
                       "family": family, "n": n, "flags": list(flags),
                       "exit": mine[-1]["exit"], "wall_s": median(walls),
                       "wall_s_calls": walls, "stdout_bytes": len(stdout),
                       "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
                print(json.dumps({"label": label, **row}), flush=True)
                rows[label].append(row)

    out = Path(args.output)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["command"] = ["COMMAND", "CONFIG", "FLAGS"]
    doc["configs"] = f"perfbench/families.py, seed {SEED}, the row's " \
        "variant (nontrivial where a row names none); family nodal: " \
        "written by this script, with the variant's presented group"
    for label, mine in rows.items():
        doc.setdefault("runs", {})[label] = {**run_record(trees, label),
                                             "rows": mine}
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
