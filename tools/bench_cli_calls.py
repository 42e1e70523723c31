"""Time ``cli.main`` on the bundled corpus, one fresh interpreter per call.

Run from the repository root:

    python3 tools/bench_cli_calls.py --label after

For ``validate``, ``present``, ``verify --degree-max 3`` and the two
``verify`` calls of perfbench's verify-corpus workload (``--degree-max
5`` with the ceiling lifted, and ``--degree-max 3 --connected``) on
each of the 8 bundled configurations, for ``present`` on the chain,
star and theta with 16 singular pieces (the non-trivial S3/C2 variant)
and with 48 (the all-trivial variant, where reading and checking the
configuration is nearly all the work), for ``verify --degree-max 3
--connected`` on the chain, star and theta with 2 pieces (S3/C2, as in
verify-corpus), and for the six ``present --degrees`` calls of
perfbench's count-families workload (small S3/C2 families, counted at
degrees 2..5 or 2..4 with the ceiling lifted), each at seed 1 and
written by ``perfbench/families.py``, the script
starts a fresh interpreter ``REPEATS`` times.  Each one imports
``singular_pi1.cli`` and then times ``cli.main(argv)`` alone, with its
output captured, so the start of the interpreter and the import are
left out and the parsing of the command line is counted, as a user
pays for it.  A row records the exit code and the medians over the
repeats of four numbers: ``ms``, the call; ``gc_ms``, the cyclic
collector's pauses inside the call, timed from ``gc.callbacks``;
``import_ms``, from just before the interpreter is started until
``singular_pi1.cli`` is imported, on the system-wide monotonic clock;
and ``norm``, the call's milliseconds over the mean milliseconds of
perfbench's reference work (``worker.reference_work``), run
``EDGE_SAMPLES`` times just before and just after the call in the same
process.  The speed of a shared machine drifts by more than a small
change between two recordings, and the call and the reference work
drift together, so ``norm`` compares across labels where ``ms`` does
not.  ``total_ms``, ``total_norm`` and ``gc_ms`` sum the rows,
``gc_share`` is the quotient of the last by the first, and
``import_ms`` is the median of the rows.  A run records its
``repeats``; the runs without that key took 5, and a call of about a
millisecond moved by up to a fifth of its ``norm`` between two of
them, hence 21.  The labels ``before-argv``
and ``after-argv`` predate the family rows and the two collector and
import numbers, every label before ``before-ingest`` the all-trivial
rows, and every label before ``before-order`` the count-families rows
and ``norm``.  ``before-onepass`` and ``after-onepass`` are the first
pair recorded in one run, in alternation (``alternated_with``), and
every label before ``before-orders`` lacks the verify-corpus rows.

The rows are stored under ``--label`` in ``--output`` (default
``BENCH_cli_calls.json`` at the root), next to the rows of other labels
already in the file.  With ``--other-tree DIR --other-label LABEL`` the
same run also times the package under ``DIR/src``, such as a checkout of
the parent commit, on the same input files and reference work: each
repeat of a row runs one call of each tree back to back, the two in
turn first, so a drift of the machine's speed falls on both labels
alike, and the rows of ``DIR`` are stored under ``LABEL``.  Two
recordings of one tree made minutes apart have differed by a fifth of
their total, more than most changes a before/after pair is meant to
show.

    python3 tools/bench_cli_calls.py --label after \\
        --other-tree ../parent --other-label before
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import families  # noqa: E402

CORPUS = ("chain", "nodal", "nontrivial-Z", "nontrivial-Z2", "regular",
          "semistable-C2", "star", "theta")
NO_CEILING = ("--ceiling", str(10 ** 16))
# perfbench's verify-corpus calls of verify
CONNECTED = ("verify", "--degree-max", "3", "--connected")
CALLS = (("validate",), ("present",), ("verify", "--degree-max", "3"),
         ("verify", "--degree-max", "5", *NO_CEILING), CONNECTED)
# (variant, number of singular pieces) of the family rows
FAMILY_ROWS, SEED = (("nontrivial", 16), ("trivial", 48)), 1
# the small families of verify-corpus, verified with CONNECTED
SMALL = 2
# perfbench's count-families operations: (family, pieces, degrees)
COUNT_ROWS = (("chain", 3, "2,3,4,5"), ("star", 3, "2,3,4,5"),
              ("theta", 2, "2,3,4,5"), ("chain", 5, "2,3,4"),
              ("star", 5, "2,3,4"), ("theta", 4, "2,3,4"))
REPEATS = 21
EDGE_SAMPLES = 3
CHILD = """
import time
from singular_pi1.cli import main
imported_at = time.monotonic()
import contextlib, gc, io, json, statistics, sys
from worker import reference_work
marks = []
def mark(phase, info):
    marks.append(time.perf_counter())
samples = [reference_work() for _ in range(EDGE_SAMPLES)]
gc.callbacks.append(mark)
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    code = main(sys.argv[1:])
    seconds = time.perf_counter() - start
gc.callbacks.remove(mark)
samples += [reference_work() for _ in range(EDGE_SAMPLES)]
# the callbacks come in start, stop pairs
paused = sum(end - begin for begin, end in zip(marks[::2], marks[1::2]))
print(json.dumps({"exit": code, "ms": seconds * 1e3, "gc_ms": paused * 1e3,
                  "imported_at": imported_at,
                  "norm": seconds / statistics.fmean(samples)}))
""".replace("EDGE_SAMPLES", str(EDGE_SAMPLES))


def time_call(argv, tree=ROOT):
    """Exit code, milliseconds of ``cli.main(argv)`` with the package of
    ``tree``, milliseconds of collector pauses inside it, milliseconds
    from spawning a fresh interpreter until it has imported
    ``singular_pi1.cli``, and the call's time in units of the reference
    work."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src"), str(ROOT / "perfbench")]))
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          capture_output=True, text=True, env=env,
                          check=True)
    result = json.loads(proc.stdout)
    return (result["exit"], result["ms"], result["gc_ms"],
            (result["imported_at"] - spawned) * 1e3, result["norm"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="key the rows are stored under")
    parser.add_argument("--output", default=str(ROOT / "BENCH_cli_calls.json"))
    parser.add_argument("--other-tree", type=Path,
                        help="a second source tree, timed in alternation")
    parser.add_argument("--other-label",
                        help="key the second tree's rows are stored under")
    args = parser.parse_args()
    if (args.other_tree is None) != (args.other_label is None):
        parser.error("--other-tree and --other-label go together")
    trees = {args.label: ROOT}
    if args.other_tree is not None:
        if args.other_label == args.label:
            parser.error("--other-label must differ from --label")
        trees[args.other_label] = args.other_tree.resolve()

    rows = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        calls = [(name, ROOT / "src" / "singular_pi1" / "configs"
                  / f"{name}.json", call)
                 for name in CORPUS for call in CALLS]
        calls += [(f"{family}-{variant}-{n}",
                   families.write_config(Path(tmp), family, variant, n,
                                         SEED), ("present",))
                  for variant, n in FAMILY_ROWS
                  for family in families.FAMILIES]
        calls += [(f"{family}-nontrivial-{n}",
                   families.write_config(Path(tmp), family, "nontrivial", n,
                                         SEED),
                   ("present", "--degrees", degrees, *NO_CEILING))
                  for family, n, degrees in COUNT_ROWS]
        calls += [(f"{family}-nontrivial-{SMALL}",
                   families.write_config(Path(tmp), family, "nontrivial",
                                         SMALL, SEED), CONNECTED)
                  for family in families.FAMILIES]
        for name, path, (command, *flags) in calls:
            argv = [command, str(path), *flags]
            runs = {label: [] for label in trees}
            for r in range(REPEATS):
                # each tree in turn first
                order = list(trees) if r % 2 == 0 else list(trees)[::-1]
                for label in order:
                    runs[label].append(time_call(argv, trees[label]))
            for label, times in runs.items():
                row = {"command": " ".join([command, *flags]),
                       "config": name, "exit": times[0][0]}
                for k, key in enumerate(("ms", "gc_ms", "import_ms", "norm"),
                                        start=1):
                    row[key] = round(statistics.median(t[k] for t in times),
                                     3)
                print(json.dumps({"label": label, **row}), flush=True)
                rows[label].append(row)

    out = Path(args.output)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["calls"] = (f"cli.main(argv) after import, median of the run's "
                    f"repeats, fresh interpreters per row; gc_ms: collector "
                    f"pauses inside the call; import_ms: spawn until "
                    f"singular_pi1.cli is imported; norm: ms over the "
                    f"mean ms of perfbench's reference work, sampled "
                    f"{EDGE_SAMPLES} times before and after the call")
    for label, mine in rows.items():
        total = sum(row["ms"] for row in mine)
        paused = sum(row["gc_ms"] for row in mine)
        run = {"machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                          f"Python {platform.python_version()}",
               "repeats": REPEATS}
        if len(trees) > 1:
            run["alternated_with"] = [other for other in trees
                                      if other != label]
        doc.setdefault("runs", {})[label] = {
            **run,
            "total_ms": round(total, 3),
            "total_norm": round(sum(row["norm"] for row in mine), 3),
            "gc_ms": round(paused, 3),
            "gc_share": round(paused / total, 3),
            "import_ms": round(statistics.median(
                row["import_ms"] for row in mine), 3),
            "rows": mine}
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
