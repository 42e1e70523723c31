"""Time ``present`` and ``plan`` on large scaled families.

Run from the repository root:

    python3 tools/bench_present_families.py --label after

Rows (seed 1, written by ``perfbench/families.py``; the variant is
the non-trivial S3/C2 one unless named):

* ``present`` by the default route on chain, star and theta at N = 64,
  128, 256 and 1024;
* ``present --route devissage --form iv`` on theta at N = 6, 8, 64,
  256 and 1024, and ``--form ii`` on theta at N = 6, 8, 10, 64, 256 and
  1024;
* ``present --route devissage`` (form i) on chain at N = 64, 128, 256,
  512 and 1024, and on theta and star at N = 64, 128, 256, 512 and
  1024;
* ``present --route devissage`` on the trivial chain at N = 1000 and
  2000;
* ``plan`` on chain, star and theta at N = 256 and 1024.

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

A label runs all its rows minutes before or after another label, and
the speed of a small VM drifts by more than the change of a row whose
code did not change, so only ratios of 4x or more, between labels or
between the sizes of one label, are read from these rows.

The rows are stored under ``--label`` in ``--output`` (default
``BENCH_present_families.json`` at the root), next to the rows of other
labels already in the file, so one file holds a before/after pair.
"""

import argparse
import hashlib
import json
import os
import platform
import tempfile
from pathlib import Path
from statistics import median

from bench_verify_families import ROOT, SEED, families, run_cli

CALLS = 5          # fresh-interpreter calls per row; a row is their median

ROWS = [("present", "nontrivial", family, n, ())
        for n in (64, 128, 256, 1024) for family in families.FAMILIES] \
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
       for n in (256, 1024) for family in families.FAMILIES]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="key the rows are stored under")
    parser.add_argument("--output", default=str(ROOT /
                                                "BENCH_present_families.json"))
    args = parser.parse_args()

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for command, variant, family, n, flags in ROWS:
            path = families.write_config(Path(tmp), family, variant, n, SEED)
            runs = [run_cli(command, path, flags)]
            while len(runs) < CALLS and runs[-1]["exit"] is not None:
                runs.append(run_cli(command, path, flags))
            walls = [run["wall_s"] for run in runs]
            stdout = runs[0]["stdout"]
            assert all(run["stdout"] == stdout for run in runs
                       if run["exit"] is not None), "a row's calls disagree"
            stdout = stdout.encode()
            row = {"command": command, "variant": variant, "family": family,
                   "n": n, "flags": list(flags), "exit": runs[-1]["exit"],
                   "wall_s": median(walls), "wall_s_calls": walls,
                   "stdout_bytes": len(stdout),
                   "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
            print(json.dumps(row), flush=True)
            rows.append(row)

    out = Path(args.output)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["command"] = ["COMMAND", "CONFIG", "FLAGS"]
    doc["configs"] = f"perfbench/families.py, seed {SEED}, the row's " \
        "variant (nontrivial where a row names none)"
    doc.setdefault("runs", {})[args.label] = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                   f"Python {platform.python_version()}",
        "rows": rows}
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
