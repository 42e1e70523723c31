"""Time ``cli.main`` on the bundled corpus, one fresh interpreter per call.

Run from the repository root:

    python3 tools/bench_cli_calls.py --label after

For ``validate``, ``present`` and ``verify --degree-max 3`` on each of
the 8 bundled configurations, the script starts a fresh interpreter
``REPEATS`` times.  Each one imports ``singular_pi1.cli`` and then times
``cli.main(argv)`` alone, with its output captured, so the start of the
interpreter and the import are left out and the parsing of the command
line is counted, as a user pays for it.  A row records the exit code and
the median milliseconds of the repeats; ``total_ms`` sums the medians.

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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ("chain", "nodal", "nontrivial-Z", "nontrivial-Z2", "regular",
          "semistable-C2", "star", "theta")
CALLS = (("validate",), ("present",), ("verify", "--degree-max", "3"))
REPEATS = 5
CHILD = """
import contextlib, io, json, sys, time
from singular_pi1.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    code = main(sys.argv[1:])
    seconds = time.perf_counter() - start
print(json.dumps({"exit": code, "ms": seconds * 1e3}))
"""


def time_call(argv):
    """Exit code and milliseconds of ``cli.main(argv)`` in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          capture_output=True, text=True, env=env,
                          check=True)
    result = json.loads(proc.stdout)
    return result["exit"], result["ms"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="key the rows are stored under")
    parser.add_argument("--output", default=str(ROOT / "BENCH_cli_calls.json"))
    args = parser.parse_args()

    rows = []
    for name in CORPUS:
        path = ROOT / "src" / "singular_pi1" / "configs" / f"{name}.json"
        for command, *flags in CALLS:
            runs = [time_call([command, str(path), *flags])
                    for _ in range(REPEATS)]
            row = {"command": " ".join([command, *flags]), "config": name,
                   "exit": runs[0][0],
                   "ms": round(statistics.median(ms for _, ms in runs), 3)}
            print(json.dumps(row), flush=True)
            rows.append(row)

    out = Path(args.output)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["calls"] = (f"cli.main(argv) after import, median of {REPEATS} "
                    f"fresh interpreters per row")
    doc.setdefault("runs", {})[args.label] = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                   f"Python {platform.python_version()}",
        "total_ms": round(sum(row["ms"] for row in rows), 3),
        "rows": rows}
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
