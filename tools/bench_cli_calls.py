"""Time ``cli.main`` on the bundled corpus, one fresh interpreter per call.

Run from the repository root:

    python3 tools/bench_cli_calls.py --label after

For ``validate``, ``present`` and ``verify --degree-max 3`` on each of
the 8 bundled configurations, and for ``present`` on the chain, star
and theta with 16 singular pieces (the non-trivial S3/C2 variant) and
with 48 (the all-trivial variant, where reading and checking the
configuration is nearly all the work), each at seed 1 and written by
``perfbench/families.py``, the script starts a fresh
interpreter ``REPEATS`` times.  Each one imports ``singular_pi1.cli``
and then times ``cli.main(argv)`` alone, with its output captured, so
the start of the interpreter and the import are left out and the parsing
of the command line is counted, as a user pays for it.  A row records
the exit code and the medians over the repeats of three numbers:
``ms``, the call; ``gc_ms``, the cyclic collector's pauses inside the
call, timed from ``gc.callbacks``; and ``import_ms``, from just before
the interpreter is started until ``singular_pi1.cli`` is imported, on
the system-wide monotonic clock.  ``total_ms`` and ``gc_ms`` sum the
rows, ``gc_share`` is their quotient, and ``import_ms`` is the median
of the rows.  The labels ``before-argv`` and ``after-argv`` predate the
family rows and the two collector and import numbers, and every label
before ``before-ingest`` the all-trivial rows.

The rows are stored under ``--label`` in ``--output`` (default
``BENCH_cli_calls.json`` at the root), next to the rows of other labels
already in the file, so one file holds a before/after pair.
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
CALLS = (("validate",), ("present",), ("verify", "--degree-max", "3"))
# (variant, number of singular pieces) of the family rows
FAMILY_ROWS, SEED = (("nontrivial", 16), ("trivial", 48)), 1
REPEATS = 5
CHILD = """
import time
from singular_pi1.cli import main
imported_at = time.monotonic()
import contextlib, gc, io, json, sys
marks = []
def mark(phase, info):
    marks.append(time.perf_counter())
gc.callbacks.append(mark)
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    code = main(sys.argv[1:])
    seconds = time.perf_counter() - start
gc.callbacks.remove(mark)
# the callbacks come in start, stop pairs
paused = sum(end - begin for begin, end in zip(marks[::2], marks[1::2]))
print(json.dumps({"exit": code, "ms": seconds * 1e3, "gc_ms": paused * 1e3,
                  "imported_at": imported_at}))
"""


def time_call(argv):
    """Exit code, milliseconds of ``cli.main(argv)``, milliseconds of
    collector pauses inside it, and milliseconds from spawning a fresh
    interpreter until it has imported ``singular_pi1.cli``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          capture_output=True, text=True, env=env,
                          check=True)
    result = json.loads(proc.stdout)
    return (result["exit"], result["ms"], result["gc_ms"],
            (result["imported_at"] - spawned) * 1e3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="key the rows are stored under")
    parser.add_argument("--output", default=str(ROOT / "BENCH_cli_calls.json"))
    args = parser.parse_args()

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        calls = [(name, ROOT / "src" / "singular_pi1" / "configs"
                  / f"{name}.json", call)
                 for name in CORPUS for call in CALLS]
        calls += [(f"{family}-{variant}-{n}",
                   families.write_config(Path(tmp), family, variant, n,
                                         SEED), ("present",))
                  for variant, n in FAMILY_ROWS
                  for family in families.FAMILIES]
        for name, path, (command, *flags) in calls:
            runs = [time_call([command, str(path), *flags])
                    for _ in range(REPEATS)]
            row = {"command": " ".join([command, *flags]), "config": name,
                   "exit": runs[0][0]}
            for k, key in enumerate(("ms", "gc_ms", "import_ms"), start=1):
                row[key] = round(statistics.median(r[k] for r in runs), 3)
            print(json.dumps(row), flush=True)
            rows.append(row)

    out = Path(args.output)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["calls"] = (f"cli.main(argv) after import, median of {REPEATS} "
                    f"fresh interpreters per row; gc_ms: collector pauses "
                    f"inside the call; import_ms: spawn until "
                    f"singular_pi1.cli is imported")
    total = sum(row["ms"] for row in rows)
    paused = sum(row["gc_ms"] for row in rows)
    doc.setdefault("runs", {})[args.label] = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                   f"Python {platform.python_version()}",
        "total_ms": round(total, 3),
        "gc_ms": round(paused, 3),
        "gc_share": round(paused / total, 3),
        "import_ms": round(statistics.median(
            row["import_ms"] for row in rows), 3),
        "rows": rows}
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
