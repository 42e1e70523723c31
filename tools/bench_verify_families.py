"""Time ``verify --degree-max D --connected`` on the scaled families.

Run from the repository root:

    python3 tools/bench_verify_families.py --label after
    python3 tools/bench_verify_families.py --label after-d7 --degree-max 7
    python3 tools/bench_verify_families.py --label after \
        --other-tree ../parent --other-label before

For chain, star and theta at N = 8, 16, 32, 64, 256, 1024 (the
non-trivial S3/C2 variant, seed 1, written by ``perfbench/families.py``),
one CLI call per row runs in a fresh interpreter.  ``--degree-max`` defaults to 5, the
default degree bound, and runs under the default ceiling; above 5 the
call also passes ``--bound-degree D --ceiling 10^11``.  Each row
records the wall time of that interpreter, the exit code, the verdicts
and the cover oracle's estimate at the highest degree.  The estimate is
read from a refusal's error object, or else from the oracle's debug log
line, which the child interpreter routes to its standard error.

With ``--oracle`` a row times the cover oracle alone instead:
``enumerate_descent_data`` at ``--degree-max`` with the ceiling lifted
(``10^16``), in a fresh interpreter that reads the configuration first
and then runs the call three times; the row records the median seconds
(``oracle_s``) and the logged estimate.

The rows are stored under ``--label`` in ``--output`` (default
``BENCH_verify_families.json`` at the root), with the command they ran,
next to the rows of other labels already in the file, so one file holds
a before/after pair.  The labels before ``before-orders`` have no rows
at N = 256 and 1024, and those before ``before-twins`` no verdicts of
chain and star at N = 1024: their counts have more digits than Python
converts to an int by default, so the row read no report.  With ``--other-tree DIR --other-label LABEL`` the
same run also calls the package under ``DIR/src``, such as a checkout of
the parent commit, on the same input files: each row runs one call of
each tree back to back, the two in turn first, so a drift of the
machine's speed falls on both labels alike, and the rows of ``DIR`` are
stored under ``LABEL``.  Two labels recorded minutes apart have moved by
more than the changes they were meant to show.

``tree_parser``, ``parse_trees``, ``in_turn`` and ``run_record`` are the
flags, the alternation and the run record that the other ``bench_*``
tools share with this one.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import families  # noqa: E402

SIZES = (8, 16, 32, 64, 256, 1024)
SEED = 1
TIMEOUT_S = 600   # a row still running then is recorded with exit null
CHILD = """
import logging, sys
logging.basicConfig(level=logging.DEBUG, stream=sys.stderr,
                    format="%(name)s %(message)s")
from singular_pi1.cli import main
sys.exit(main(sys.argv[1:]))
"""
ORACLE_CHILD = """
import json, logging, statistics, sys, time
logging.basicConfig(level=logging.DEBUG, stream=sys.stderr,
                    format="%(name)s %(message)s")
from singular_pi1 import Limits, enumerate_descent_data, parse_scheme_config
with open(sys.argv[1], encoding="utf-8") as fh:
    cfg = parse_scheme_config(json.load(fh))
d, limits, times = int(sys.argv[2]), Limits(ceiling=10 ** 16), []
for _ in range(3):
    start = time.perf_counter()
    enumerate_descent_data(cfg, d, limits)
    times.append(time.perf_counter() - start)
print(statistics.median(times))
"""
LOGGED = re.compile(r"oracle degree (\d+):.* estimate (\d+)")


def tree_parser(doc, output):
    """The parser of a tool whose docstring is ``doc``: ``--label``,
    ``--output`` (default ``output`` at the root), and ``--other-tree``
    with ``--other-label``.  Add the tool's own flags, then read the
    arguments with ``parse_trees``."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="key the rows are stored under")
    parser.add_argument("--output", default=str(ROOT / output))
    parser.add_argument("--other-tree", type=Path,
                        help="a second source tree, called in alternation")
    parser.add_argument("--other-label",
                        help="key the second tree's rows are stored under")
    return parser


def parse_trees(parser):
    """The parsed arguments, and ``{label: source tree}``: this tree under
    ``--label`` and ``--other-tree`` under ``--other-label``."""
    args = parser.parse_args()
    if (args.other_tree is None) != (args.other_label is None):
        parser.error("--other-tree and --other-label go together")
    trees = {args.label: ROOT}
    if args.other_tree is not None:
        if args.other_label == args.label:
            parser.error("--other-label must differ from --label")
        trees[args.other_label] = args.other_tree.resolve()
    return args, trees


def in_turn(trees, turn):
    """The labels of ``trees`` in the order of ``turn``: each tree in
    turn first, so a drift of the machine's speed falls on all alike."""
    return list(trees) if turn % 2 == 0 else list(trees)[::-1]


def run_record(trees, label):
    """What a run of ``label`` records besides its rows: the machine, and
    the labels it was called in alternation with."""
    run = {"machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                      f"Python {platform.python_version()}"}
    if len(trees) > 1:
        run["alternated_with"] = [other for other in trees if other != label]
    return run


def run_cli(command, path, flags, tree=ROOT, child=CHILD):
    """One call of ``child`` with the package of ``tree`` in a fresh
    interpreter, by default a CLI call: its exit code (None when it
    timed out), wall seconds, standard output and standard error."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-c", child, *command, str(path), *flags]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "wall_s": round(time.perf_counter() - start, 3),
                "stdout": "", "stderr": ""}
    return {"exit": proc.returncode,
            "wall_s": round(time.perf_counter() - start, 3),
            "stdout": proc.stdout, "stderr": proc.stderr}


def flags(degree):
    """The ``verify`` flags of a run to ``degree``."""
    out = ("--degree-max", str(degree), "--connected")
    if degree > 5:
        out += ("--bound-degree", str(degree), "--ceiling", str(10 ** 11))
    return out


def run_row(path, flags, tree=ROOT):
    run = run_cli(("verify",), path, flags, tree)
    if run["exit"] is None:
        return {"exit": None, "wall_s": run["wall_s"], "verdicts": [],
                "refused_degrees": [], "estimate": None}
    estimates = {int(d): int(e) for d, e in LOGGED.findall(run["stderr"])}
    verdicts, refused = [], []
    try:
        # a count at N = 1024 has more digits than Python converts to an
        # int by default; the counts are not read, so they stay text
        reports = json.loads(run["stdout"], parse_int=str).get("reports", [])
    except ValueError:
        reports = []
    for r in reports:
        if "error" in r:
            refused.append(int(r["degree"]))
            if r["error"]["estimate"] is not None:
                estimates[int(r["degree"])] = int(r["error"]["estimate"])
        else:
            verdicts.append(r["verdict"])
            if "connected" in r:
                verdicts.append(r["connected"]["verdict"])
    top = max(estimates) if estimates else None
    return {"exit": run["exit"], "wall_s": run["wall_s"],
            "verdicts": sorted(set(verdicts)), "refused_degrees": refused,
            "estimate": estimates[top] if estimates else None,
            "estimate_degree": top}


def oracle_row(path, degree, tree=ROOT):
    run = run_cli((), path, (str(degree),), tree, ORACLE_CHILD)
    logged = LOGGED.search(run["stderr"])
    return {"exit": run["exit"],
            "oracle_s": round(float(run["stdout"]), 4)
            if run["exit"] == 0 else None,
            "estimate": int(logged.group(2)) if logged else None}


def main():
    parser = tree_parser(__doc__, "BENCH_verify_families.json")
    parser.add_argument("--degree-max", type=int, default=5,
                        help="highest degree verified (default 5)")
    parser.add_argument("--oracle", action="store_true",
                        help="time enumerate_descent_data alone")
    args, trees = parse_trees(parser)
    argv = flags(args.degree_max)

    rows = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        members = [(n, family) for n in SIZES for family in families.FAMILIES]
        for r, (n, family) in enumerate(members):
            path = families.write_config(Path(tmp), family, "nontrivial",
                                         n, SEED)
            for label in in_turn(trees, r):
                row = {"family": family, "n": n,
                       **(oracle_row(path, args.degree_max, trees[label])
                          if args.oracle
                          else run_row(path, argv, trees[label]))}
                print(json.dumps({"label": label, **row}), flush=True)
                rows[label].append(row)

    out = Path(args.output)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["configs"] = f"perfbench/families.py, nontrivial, seed {SEED}"
    command = ["enumerate_descent_data", "CONFIG", args.degree_max,
               "ceiling 10^16"] if args.oracle \
        else ["verify", "CONFIG", *argv]
    for label, mine in rows.items():
        doc.setdefault("runs", {})[label] = {
            "command": command, **run_record(trees, label), "rows": mine}
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
