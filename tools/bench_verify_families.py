"""Time ``verify --degree-max D --connected`` on the scaled families.

Run from the repository root:

    python3 tools/bench_verify_families.py --label after
    python3 tools/bench_verify_families.py --label after-d7 --degree-max 7

For chain, star and theta at N = 8, 16, 32, 64 (the non-trivial S3/C2
variant, seed 1, written by ``perfbench/families.py``), one CLI call per
row runs in a fresh interpreter.  ``--degree-max`` defaults to 5, the
default degree bound, and runs under the default ceiling; above 5 the
call also passes ``--bound-degree D --ceiling 10^11``.  Each row
records the wall time of that interpreter, the exit code, the verdicts
and the cover oracle's estimate at the highest degree.  The estimate is
read from a refusal's message, or else from the oracle's debug log line,
which the child interpreter routes to its standard error.

The rows are stored under ``--label`` in ``--output`` (default
``BENCH_verify_families.json`` at the root), with the command they ran,
next to the rows of other labels already in the file, so one file holds
a before/after pair.
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

SIZES = (8, 16, 32, 64)
SEED = 1
TIMEOUT_S = 600   # a row still running then is recorded with exit null
CHILD = """
import logging, sys
logging.basicConfig(level=logging.DEBUG, stream=sys.stderr,
                    format="%(name)s %(message)s")
from singular_pi1.cli import main
sys.exit(main(sys.argv[1:]))
"""
ESTIMATE = re.compile(r"estimate (\d+)")
LOGGED = re.compile(r"oracle degree (\d+):.* estimate (\d+)")


def run_cli(command, path, flags):
    """One CLI call in a fresh interpreter: its exit code (None when it
    timed out), wall seconds, standard output and standard error."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", CHILD, command, str(path), *flags]
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


def run_row(path, flags):
    run = run_cli("verify", path, flags)
    if run["exit"] is None:
        return {"exit": None, "wall_s": run["wall_s"], "verdicts": [],
                "refused_degrees": [], "estimate": None}
    estimates = {int(d): int(e) for d, e in LOGGED.findall(run["stderr"])}
    verdicts, refused = [], []
    try:
        reports = json.loads(run["stdout"]).get("reports", [])
    except ValueError:
        reports = []
    for r in reports:
        if "error" in r:
            refused.append(r["degree"])
            found = ESTIMATE.search(r["error"])
            if found:
                estimates[r["degree"]] = int(found.group(1))
        else:
            verdicts.append(r["verdict"])
            if "connected" in r:
                verdicts.append(r["connected"]["verdict"])
    top = max(estimates) if estimates else None
    return {"exit": run["exit"], "wall_s": run["wall_s"],
            "verdicts": sorted(set(verdicts)), "refused_degrees": refused,
            "estimate": estimates[top] if estimates else None,
            "estimate_degree": top}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="key the rows are stored under")
    parser.add_argument("--output", default=str(ROOT /
                                                "BENCH_verify_families.json"))
    parser.add_argument("--degree-max", type=int, default=5,
                        help="highest degree verified (default 5)")
    args = parser.parse_args()
    argv = flags(args.degree_max)

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            for family in families.FAMILIES:
                path = families.write_config(Path(tmp), family, "nontrivial",
                                             n, SEED)
                row = {"family": family, "n": n, **run_row(path, argv)}
                print(json.dumps(row), flush=True)
                rows.append(row)

    out = Path(args.output)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["configs"] = f"perfbench/families.py, nontrivial, seed {SEED}"
    doc.setdefault("runs", {})[args.label] = {
        "command": ["verify", "CONFIG", *argv],
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                   f"Python {platform.python_version()}",
        "rows": rows}
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
