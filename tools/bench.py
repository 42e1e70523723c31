"""Time calls of the package, one fresh interpreter per call, and store
the rows in a ``BENCH_*.json`` file at the root.

Run from the repository root:

    python3 tools/bench.py SUITE --label after
    python3 tools/bench.py SUITE --label after \\
        --other-tree ../parent --other-label before

The suites, with the file they write and the calls per row and tree:

* ``calls`` (``BENCH_cli_calls.json``, 21 calls): ``validate``,
  ``present``, ``verify --degree-max 3`` and the two ``verify`` calls of
  perfbench's verify-corpus workload (``--degree-max 5`` with the
  ceiling lifted, and ``--degree-max 3 --connected``) on each of the 8
  bundled configurations; ``present`` on the chain, star and theta with
  8 and 16 singular pieces (the S3/C2 variant, as in present-nontrivial)
  and with 48 (the all-trivial variant, as in present-trivial); the six
  ``present --degrees`` calls of count-families; and ``verify
  --degree-max 3 --connected`` on the chain, star and theta with 2
  pieces (as in verify-corpus).
* ``present`` (``BENCH_present_families.json``, 11 calls): ``present``
  on chain, star and theta at N = 64, 128, 256, 1024 and 4096; ``present
  --route devissage`` with ``--form iv`` on theta at N = 6, 8, 64, 256
  and 1024, with ``--form ii`` on theta at N = 6, 8, 10, 64, 256 and
  1024, and with form i on chain, theta and star at N = 64 … 1024 and on
  the trivial chain at N = 1000 and 2000; ``plan`` and ``present
  --degrees 2,3,4,5`` on chain, star and theta at N = 256 and 1024; and
  ``present`` on a nodal curve whose component group is presented, as
  ⟨a | a^k⟩ for k = 720, 2520 and 5040 or as the Coxeter presentation of
  Sym(7) (family ``nodal``, N = 1), where nearly all of the call is the
  coset closure of the group.
* ``verify`` (``BENCH_verify_families.json``, 11 calls): ``verify
  --degree-max D --connected`` on chain, star and theta at N = 8, 16,
  32, 64, 256 and 1024.  D is ``--degree-max``, 5 by default, the
  default degree bound; above 5 the call also passes ``--bound-degree D
  --ceiling 10^11``.
* ``oracle`` (``BENCH_verify_families.json``, 11 calls): the cover
  oracle alone, ``enumerate_descent_data`` at degree D on the configs
  of ``verify``, under the limits of its command line (the ceiling
  lifted to 10^16), after the child has read the configuration as the
  CLI does.

The families are written by ``perfbench/families.py`` at seed 1, in the
S3/C2 variant where a row names none.

Every call runs the child program below in a fresh interpreter.  It
imports ``singular_pi1.cli``, runs perfbench's reference work
(``worker.reference_work``) ``EDGE_SAMPLES`` times, times the call with
its output captured and the cyclic collector's pauses counted through
``gc.callbacks``, and runs the reference work again.  A row records the
exit code, the size and SHA-256 digest of the call's output, which
every call of a tree must reproduce, and the medians over its calls of
``ms``, the call; ``norm``, the call's time over the mean time of the
reference work; ``gc_ms``, the collector's pauses inside the call; and
``import_ms``, from just before the interpreter is started until it has
imported ``singular_pi1.cli``, on the system-wide monotonic clock.
``norm_iqr`` is the distance between the quartiles of the ``norm`` of
the row's calls.  The speed of a shared machine drifts by more than a
small change between two recordings, and the call and the reference
work drift together, so ``norm`` compares across labels where ``ms``
does not.  Rows of ``verify`` and ``oracle`` also record the cover
oracle's estimate at the highest degree, from a refusal's error object
or else from the oracle's debug log line, which their child routes to
its standard error; ``verify`` rows add the verdicts and the refused
degrees.  Before the first call, ``compileall`` compiles each tree's
``src``, which it does even where the environment forbids writing
bytecode, so that ``import_ms`` does not count compiling the package.

The rows are stored under ``--label`` in ``--output`` (default: the
suite's file), next to the runs of other labels already in the file.
With ``--other-tree DIR --other-label LABEL`` the same run also times
the package under ``DIR/src``, such as a checkout of the parent commit,
on the same input files and reference work: each call of one tree is
followed by a call of the other, the two in turn first, so a drift of
the machine's speed falls on both labels alike, and the runs of ``DIR``
are stored under ``LABEL``.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import count
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "src" / "singular_pi1" / "configs"
sys.path.insert(0, str(ROOT / "perfbench"))

import families  # noqa: E402

SEED = 1
EDGE_SAMPLES = 3
TIMEOUT_S = 600   # a call still running then ends the run
# suite: (its file at the root, calls per row and tree); 11 calls per
# side resolve a 10% change in a present row, 21 a call of a millisecond
SUITES = {"calls": ("BENCH_cli_calls.json", 21),
          "present": ("BENCH_present_families.json", 11),
          "verify": ("BENCH_verify_families.json", 11),
          "oracle": ("BENCH_verify_families.json", 11)}
CORPUS = ("chain", "nodal", "nontrivial-Z", "nontrivial-Z2", "regular",
          "semistable-C2", "star", "theta")
NO_CEILING = ("--ceiling", str(10 ** 16))
# perfbench's verify-corpus calls of verify
CONNECTED = ("verify", "--degree-max", "3", "--connected")
# perfbench's count-families operations: (family, pieces, degrees)
COUNT_ROWS = (("chain", 3, "2,3,4,5"), ("star", 3, "2,3,4,5"),
              ("theta", 2, "2,3,4,5"), ("chain", 5, "2,3,4"),
              ("star", 5, "2,3,4"), ("theta", 4, "2,3,4"))
VERIFY_SIZES = (8, 16, 32, 64, 256, 1024)
LOGGED = re.compile(r"oracle degree (\d+):.* estimate (\d+)")
CHILD = """
import time
from singular_pi1 import cli
imported_at = time.monotonic()
import contextlib, gc, io, json, statistics, sys
from worker import reference_work
argv, suite = json.loads(sys.argv[1])
if suite in ("verify", "oracle"):
    import logging
    logging.basicConfig(level=logging.DEBUG, stream=sys.stderr,
                        format="%(name)s %(message)s")
if suite == "oracle":
    from singular_pi1 import enumerate_descent_data
    args = cli.parse_args(argv)
    limits = cli._limits_from(args)
    cfg = cli._load(args, limits)
    def call():
        # hex: a count has more digits than an int converts to decimal
        print(hex(enumerate_descent_data(cfg, args.degree_max, limits)))
        return 0
else:
    def call():
        return cli.main(argv)
marks = []
def mark(phase, info):
    marks.append(time.perf_counter())
samples = [reference_work() for _ in range(EDGE_SAMPLES)]
out = io.StringIO()
gc.callbacks.append(mark)
with contextlib.redirect_stdout(out):
    start = time.perf_counter()
    code = call()
    seconds = time.perf_counter() - start
gc.callbacks.remove(mark)
samples += [reference_work() for _ in range(EDGE_SAMPLES)]
# the callbacks come in start, stop pairs
paused = sum(end - begin for begin, end in zip(marks[::2], marks[1::2]))
print(json.dumps({"exit": code, "ms": seconds * 1e3, "gc_ms": paused * 1e3,
                  "imported_at": imported_at, "stdout": out.getvalue(),
                  "norm": seconds / statistics.fmean(samples)}))
""".replace("EDGE_SAMPLES", str(EDGE_SAMPLES))


def suite_rows(suite, degree=5):
    """The rows of ``suite``: ``((family, variant, n), argv)``, where
    ``argv`` is a command line without the configuration's path, and
    ``family`` is one of ``families.FAMILIES``, ``nodal`` or ``corpus``
    (whose variant is a bundled configuration's name)."""
    fams = families.FAMILIES
    if suite == "calls":
        return [(("corpus", name, None), argv) for name in CORPUS
                for argv in (("validate",), ("present",),
                             ("verify", "--degree-max", "3"),
                             ("verify", "--degree-max", "5", *NO_CEILING),
                             CONNECTED)] \
            + [((family, variant, n), ("present",))
               for variant, n in (("nontrivial", 8), ("nontrivial", 16),
                                  ("trivial", 48)) for family in fams] \
            + [((family, "nontrivial", n),
                ("present", "--degrees", degrees, *NO_CEILING))
               for family, n, degrees in COUNT_ROWS] \
            + [((family, "nontrivial", 2), CONNECTED) for family in fams]
    if suite == "present":
        return [((family, "nontrivial", n), ("present",))
                for n in (64, 128, 256, 1024, 4096) for family in fams] \
            + [(("theta", "nontrivial", n),
                ("present", "--route", "devissage", "--form", "iv"))
               for n in (6, 8, 64, 256, 1024)] \
            + [(("theta", "nontrivial", n),
                ("present", "--route", "devissage", "--form", "ii"))
               for n in (6, 8, 10, 64, 256, 1024)] \
            + [((family, "nontrivial", n), ("present", "--route", "devissage"))
               for family in ("chain", "theta", "star")
               for n in (64, 128, 256, 512, 1024)] \
            + [(("chain", "trivial", n), ("present", "--route", "devissage"))
               for n in (1000, 2000)] \
            + [((family, "nontrivial", n), (command, *flags))
               for command, flags in (("plan", ()),
                                      ("present", ("--degrees", "2,3,4,5")))
               for n in (256, 1024) for family in fams] \
            + [(("nodal", variant, 1), ("present",))
               for variant in ("C720", "C2520", "C5040", "S7")]
    flags = ("--degree-max", str(degree))
    if suite == "verify":
        flags += ("--connected",)
        if degree > 5:
            flags += ("--bound-degree", str(degree), "--ceiling",
                      str(10 ** 11))
    else:
        if degree > 5:
            flags += ("--bound-degree", str(degree))
        flags += NO_CEILING
    return [((family, "nontrivial", n), ("verify", *flags))
            for n in VERIFY_SIZES for family in fams]


def nodal_config(variant):
    """A nodal curve, like the corpus's ``nodal``, whose component group
    is presented: ``C<k>`` is ⟨a | a^k⟩ and ``S7`` the Coxeter
    presentation of Sym(7) on s1 .. s6."""
    if variant == "S7":
        names = [f"s{i}" for i in range(1, 7)]
        relators = [[[s, 2]] for s in names]
        relators += [[[s, 1], [t, 1]] * 3 for s, t in zip(names, names[1:])]
        relators += [[[s, 1], [t, 1]] * 2 for i, s in enumerate(names)
                     for t in names[i + 2:]]
        group = {"kind": "presented", "generators": names,
                 "relators": relators}
    else:
        group = {"kind": "presented", "generators": ["a"],
                 "relators": [[["a", int(variant[1:])]]]}
    trivial = {"kind": "trivial"}
    return {"components": [{"id": "A", "group": group}],
            "singulars": [{"id": "P", "group": trivial}],
            "branches": [{"id": f"b{i}", "component": "A", "singular": "P",
                          "group": trivial} for i in (1, 2)]}


def config_path(directory, family, variant, n):
    """The file of a row's configuration, written into ``directory``
    unless it is bundled."""
    if family == "corpus":
        return CORPUS_DIR / f"{variant}.json"
    if family == "nodal":
        path = directory / f"nodal-{variant}.json"
        path.write_text(json.dumps(nodal_config(variant)), encoding="utf-8")
        return path
    return families.write_config(directory, family, variant, n, SEED)


def call(suite, argv, tree):
    """One call of the child with the package of ``tree``: its result,
    with ``import_ms`` and the child's standard error added."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src"), str(ROOT / "perfbench")]))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([argv, suite])],
        capture_output=True, text=True, env=env, check=True,
        timeout=TIMEOUT_S)
    result = json.loads(proc.stdout)
    result["import_ms"] = (result.pop("imported_at") - spawned) * 1e3
    result["stderr"] = proc.stderr
    return result


def oracle_fields(suite, stdout, stderr):
    """The cover oracle's estimate at the highest degree and, for
    ``verify``, the verdicts and the refused degrees."""
    estimates = {int(d): int(e) for d, e in LOGGED.findall(stderr)}
    fields = {}
    if suite == "verify":
        # a count at N = 1024 has more digits than Python converts to an
        # int by default; the counts are not read, so they stay text
        reports = json.loads(stdout, parse_int=str).get("reports", [])
        refused = [r for r in reports if "error" in r]
        estimates.update((int(r["degree"]), int(r["error"]["estimate"]))
                         for r in refused
                         if r["error"]["estimate"] is not None)
        fields["verdicts"] = sorted(
            {r["verdict"] for r in reports if "error" not in r}
            | {r["connected"]["verdict"] for r in reports
               if "connected" in r})
        fields["refused_degrees"] = [int(r["degree"]) for r in refused]
    top = max(estimates, default=None)
    return {**fields, "estimate": estimates.get(top), "estimate_degree": top}


def summary(suite, calls):
    """One row's record of the calls of one tree, which must agree."""
    first = calls[0]
    if any((c["exit"], c["stdout"]) != (first["exit"], first["stdout"])
           for c in calls):
        raise RuntimeError("the calls of a row disagree")
    stdout = first["stdout"].encode()
    row = {"exit": first["exit"]}
    for key in ("ms", "norm", "gc_ms", "import_ms"):
        row[key] = round(statistics.median(c[key] for c in calls), 3)
    q1, _, q3 = statistics.quantiles([c["norm"] for c in calls], n=4)
    row.update(norm_iqr=round(q3 - q1, 3), stdout_bytes=len(stdout),
               stdout_sha256=hashlib.sha256(stdout).hexdigest())
    if suite in ("verify", "oracle"):
        row.update(oracle_fields(suite, first["stdout"], first["stderr"]))
    return row


def bench(suite, rows, trees, repeats, directory):
    """``{label: rows}``: every row called ``repeats`` times per tree,
    the trees alternating, each in turn first."""
    out = {label: [] for label in trees}
    turn, order = count(), list(trees)
    for spec, (command, *flags) in rows:
        argv = [command, str(config_path(directory, *spec)), *flags]
        calls = {label: [] for label in trees}
        for _ in range(repeats):
            for label in order if next(turn) % 2 == 0 else order[::-1]:
                calls[label].append(call(suite, argv, trees[label]))
        for label, mine in calls.items():
            row = {"config": spec[1] if spec[0] == "corpus"
                   else "-".join(map(str, spec)),
                   "command": " ".join([command, *flags]),
                   **summary(suite, mine)}
            print(json.dumps({"label": label, **row}), flush=True)
            out[label].append(row)
    return out


def write(path, suite, trees, repeats, rows):
    """Store each label's rows, with the run's totals, in ``path``."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    for label, mine in rows.items():
        total = sum(row["ms"] for row in mine)
        paused = sum(row["gc_ms"] for row in mine)
        doc.setdefault("runs", {})[label] = {
            "suite": suite,
            "machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                       f"Python {platform.python_version()}",
            "repeats": repeats,
            "alternated_with": [other for other in trees if other != label],
            "total_ms": round(total, 3),
            "total_norm": round(sum(row["norm"] for row in mine), 3),
            "gc_ms": round(paused, 3),
            "gc_share": round(paused / total, 3),
            "import_ms": round(statistics.median(
                row["import_ms"] for row in mine), 3),
            "rows": mine}
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--label", required=True,
                        help="key the rows are stored under")
    parser.add_argument("--output", type=Path,
                        help="default: the suite's file at the root")
    parser.add_argument("--other-tree", type=Path,
                        help="a second source tree, called in alternation")
    parser.add_argument("--other-label",
                        help="key the second tree's rows are stored under")
    parser.add_argument("--degree-max", type=int, default=5,
                        help="degree of the verify and oracle suites")
    args = parser.parse_args()
    if (args.other_tree is None) != (args.other_label is None):
        parser.error("--other-tree and --other-label go together")
    trees = {args.label: ROOT}
    if args.other_tree is not None:
        if args.other_label == args.label:
            parser.error("--other-label must differ from --label")
        trees[args.other_label] = args.other_tree.resolve()
    output, repeats = SUITES[args.suite]
    path = args.output or ROOT / output
    # verify and oracle share a file: a label keeps the suite it was run by
    runs = json.loads(path.read_text()).get("runs", {}) \
        if path.exists() else {}
    if any(runs.get(label, {}).get("suite", args.suite) != args.suite
           for label in trees):
        parser.error("a label of the file is a run of another suite")
    for tree in trees.values():
        if not compileall.compile_dir(tree / "src", quiet=1):
            sys.exit(f"cannot compile {tree / 'src'}")
    with tempfile.TemporaryDirectory() as tmp:
        rows = bench(args.suite, suite_rows(args.suite, args.degree_max),
                     trees, repeats, Path(tmp))
    write(path, args.suite, trees, repeats, rows)


if __name__ == "__main__":
    main()
