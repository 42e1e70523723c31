"""Benchmark of the singular-pi1 command line, with every answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload present-nontrivial --seed 1 \\
        --seconds 25 --trace 0

Every operation is one documented CLI call, ``singular_pi1.cli.main(argv)``,
with default flags except ``--degrees``, ``--degree-max``, ``--connected``
and ``--ceiling``, so a later change of the default route or of the
internals is measured unchanged.  Each operation runs in a fresh
interpreter (``worker.py``), as a CLI call does, so neither homcount's
component memo nor the ``perms.table`` cache carries over; one worker runs
at a time.  A pass runs every operation of the workload once, and passes
repeat until the pass boundary nearest to ``--seconds``.

After each operation, outside the timed region, its output is checked
against ``reference.py``, which shares no code with the package: every
``hom_counts`` value, every ``verify`` report, and a hom count of every
emitted presentation.  An operation also fails when it exits non-zero or
when its output differs from its output in the first pass.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over operations of the wall time from starting a
  fresh interpreter until ``singular_pi1.cli`` is imported, which every
  CLI call pays;
* ``pass_norm``: the time of one pass, set-up excluded, in units of a
  fixed reference work (``worker.reference_work``) sampled in the same
  process before, during and after each operation: the sum over the
  operations of each one's median, over the passes, of its wall time
  over the reference work's mean.  The speed of a shared machine drifts
  by tens of percent within seconds, and the operations and the
  reference work drift together, so the quotient is steady where the
  seconds are not; the seconds are in the summary line and, split by
  command, in the traced run;
* ``ok_share``: operations that exit 0 and agree with their reference,
  over operations attempted;
* ``peak_rss_mb``: median over passes of the largest peak resident
  memory of an operation's process;
* ``pres_generators``, ``pres_size``: generators, and generators plus
  relators, summed over the presentations one pass of ``present`` emits
  (the all-trivial families have no relators at all).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``tracer.py``; span times in
seconds include the reference samples taken during a call, about 2.5%),
the split of the untraced pass time by command, and the tracing
overhead.  The spans
are written to ``.perfbench_run/``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from fractions import Fraction
from math import factorial
from pathlib import Path
from time import perf_counter

import families
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS_DIR = SRC / "singular_pi1" / "configs"
WORK = ROOT / ".perfbench_run"

CORPUS = ("chain", "nodal", "nontrivial-Z", "nontrivial-Z2", "regular",
          "semistable-C2", "star", "theta")
# The default ceiling gates the size of the answer, not the work done: at
# the default, count-families and the oracle at d >= 4 are refused while
# they finish in about a second.
NO_CEILING = ("--ceiling", str(10 ** 16))
RUN_DEADLINE_S = 170

# kind: "present", "verify" or "verify_connected"; source: ("family",
# family, variant, n) or ("corpus", name); args: flags after the path
Op = namedtuple("Op", "kind source args")


def _family_ops(kind, variant, sizes, args=()):
    return [Op(kind, ("family", f, variant, n), args)
            for n in sizes for f in families.FAMILIES]


def _workloads():
    # Sizes take about a second per operation at the first measured
    # commit; they are never shrunk.  Why each workload is there:
    # present-nontrivial: Tietze and assembly do nearly all the work.
    # present-trivial: the same pi1_devissage path where the scheme
    #   bookkeeping dominates and Tietze does nearly nothing.
    # count-families: hom counting dominates; the oracle is not run.
    # verify-corpus: the cover oracle dominates; homcount is bypassed.
    count = []
    for family, n, degrees in (("chain", 3, "2,3,4,5"), ("star", 3, "2,3,4,5"),
                               ("theta", 2, "2,3,4,5"), ("chain", 5, "2,3,4"),
                               ("star", 5, "2,3,4"), ("theta", 4, "2,3,4")):
        count.append(Op("present", ("family", family, "nontrivial", n),
                        ("--degrees", degrees) + NO_CEILING))
    corpus = [("corpus", name) for name in CORPUS]
    small = [("family", f, "nontrivial", 2) for f in families.FAMILIES]
    verify = [Op("present", src, ()) for src in corpus + small]
    verify += [Op("verify", src, ("--degree-max", "5") + NO_CEILING)
               for src in corpus]
    verify += [Op("verify_connected", src, ("--degree-max", "3",
                                            "--connected"))
               for src in corpus + small]
    return {
        "present-nontrivial": _family_ops("present", "nontrivial", (8, 16)),
        "present-trivial": _family_ops("present", "trivial", (48,)),
        "count-families": count,
        "verify-corpus": verify,
    }


WORKLOADS = _workloads()


class Inputs:
    """Config files of one run, and the reference answer for each."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        self.paths = {}
        self.docs = {}

    def path(self, source):
        if source not in self.paths:
            if source[0] == "family":
                _, family, variant, n = source
                path = families.write_config(self.workdir, family, variant,
                                             n, self.seed)
            else:
                path = CORPUS_DIR / f"{source[1]}.json"
            with open(path, encoding="utf-8") as fh:
                self.docs[source] = json.load(fh)
            self.paths[source] = path
        return self.paths[source]

    def homs(self, source, d):
        """Reference #Hom(pi_1, Sym(d))."""
        if source[0] == "family":
            return reference.family_homs(*source[1:], d)
        return reference.corpus_homs(source[1], self.docs[source], d)


def _argv(op, inputs):
    command = "verify" if op.kind == "verify_connected" else op.kind
    return [command, str(inputs.path(op.source)), *op.args]


def _flag(args, name):
    return args[args.index(name) + 1] if name in args else None


def check(op, inputs, out):
    """Why an operation's parsed output is wrong, or None."""
    def homs(d):
        return inputs.homs(op.source, d)

    if op.kind == "present":
        pres = out["presentation"]
        gens, rels = pres["generators"], pres["relators"]
        if reference.count_homs_d2(gens, rels) != homs(2):
            return "presentation disagrees with the reference at d=2"
        at3 = reference.count_homs_elimination(gens, rels, 3)
        if at3 is not None and at3 != homs(3):
            return "presentation disagrees with the reference at d=3"
        degrees = _flag(op.args, "--degrees")
        wanted = degrees.split(",") if degrees else []
        counts = out.get("hom_counts", {})
        if sorted(counts) != sorted(wanted):
            return f"hom_counts has degrees {sorted(counts)}"
        for d, value in counts.items():
            if value != homs(int(d)):
                return f"hom count at d={d} is {value}, expected {homs(int(d))}"
        return None

    top = int(_flag(op.args, "--degree-max"))
    reports = out["reports"]
    if [r.get("degree") for r in reports] != list(range(2, top + 1)):
        return "verify reports do not cover the requested degrees"
    hall = reference.transitive_homs([homs(d) for d in range(1, top + 1)])
    for r in reports:
        d = r["degree"]
        if "error" in r:
            return f"refused at d={d}: {r['error']}"
        if r["verdict"] != "pass":
            return f"verdict at d={d} is {r['verdict']}"
        card = Fraction(r["groupoid_cardinality"]["num"],
                        r["groupoid_cardinality"]["den"])
        if r["presentation_count"] != homs(d) or card * factorial(d) != homs(d):
            return f"counts at d={d} disagree with the reference"
        if op.kind == "verify_connected":
            conn = r["connected"]
            if conn["verdict"] != "pass":
                return f"connected verdict at d={d} is {conn['verdict']}"
            if conn["transitive_homs"] != hall[d - 1]:
                return f"transitive homs at d={d} disagree with the reference"
    return None


class Runner:
    def __init__(self, workload, inputs, deadline):
        self.ops = WORKLOADS[workload]
        self.inputs = inputs
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.first_output = {}
        self.verdicts = {}
        self.failures = []
        self.spans = []
        self.setup = []

    def warm_up(self):
        """Compile the package's bytecode, as an installed package has it."""
        subprocess.run([sys.executable, "-c", "import singular_pi1.cli"],
                       env=self.env, cwd=ROOT, check=True)

    def _work(self, argv, traced):
        request = json.dumps({"argv": argv, "trace": traced})
        timeout = max(1.0, self.deadline - perf_counter())
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                                  input=request, capture_output=True,
                                  text=True, env=self.env, cwd=ROOT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "timed out"
        if proc.returncode != 0:
            return None, f"worker exited {proc.returncode}: {proc.stderr[-500:]}"
        result = json.loads(proc.stdout)
        self.setup.append(result["imported_at"] - spawned)
        return result, None

    def _verdict(self, i, op, result):
        if result["error"] is not None:
            return "raised " + result["error"].strip().splitlines()[-1]
        if result["exit"] != 0:
            return f"exit code {result['exit']}"
        text = result["stdout"]
        first = self.first_output.setdefault(i, text)
        if text != first:
            return "output differs from the first pass"
        if i not in self.verdicts:
            try:
                self.verdicts[i] = check(op, self.inputs, json.loads(text))
            except (KeyError, TypeError, ValueError) as exc:
                self.verdicts[i] = f"malformed output: {exc!r}"
        return self.verdicts[i]

    def run_pass(self, traced):
        row = {"traced": traced, "ops": [], "norm": [], "ok": 0,
               "attempted": 0,
               "rss_mb": 0.0, "generators": 0, "relators": 0,
               "layers": {}, "counters": {}, "absent": set()}
        for i, op in enumerate(self.ops):
            argv = _argv(op, self.inputs)
            result, problem = self._work(argv, traced)
            row["attempted"] += 1
            row["ops"].append(None if result is None else result["seconds"])
            row["norm"].append(None if result is None else
                               result["seconds"] / result["reference_s"])
            if result is not None:
                row["rss_mb"] = max(row["rss_mb"], result["rss_kb"] / 1024)
                problem = self._verdict(i, op, result)
            if problem is not None:
                self.failures.append(f"{' '.join(argv)}: {problem}")
                continue
            row["ok"] += 1
            if op.kind == "present":
                pres = json.loads(result["stdout"])["presentation"]
                row["generators"] += len(pres["generators"])
                row["relators"] += len(pres["relators"])
            if traced:
                _merge_trace(row, result["trace"])
                self.spans.append({"argv": argv, "spans": result["spans"]})
        return row


def _merge_trace(row, trace):
    for name, layer in trace["layers"].items():
        into = row["layers"].setdefault(name,
                                        {"calls": 0, "time": 0.0, "self": 0.0})
        for key in into:
            into[key] += layer[key]
    for name, value in trace["counters"].items():
        row["counters"][name] = row["counters"].get(name, 0) + value
    row["absent"].update(trace["absent"])


def _median(values):
    return statistics.median(values) if values else 0.0


def op_total(ops, passes, key="ops",
             kinds=("present", "verify", "verify_connected")):
    """Sum over the operations of the given kinds of each one's median
    over the passes of ``key``: "ops" for wall seconds, "norm" for
    seconds over the reference work's seconds.  A slow spell of the
    machine then moves one sample of an operation, not the whole
    figure."""
    total = 0.0
    for i, op in enumerate(ops):
        if op.kind in kinds:
            total += _median([p[key][i] for p in passes
                              if p[key][i] is not None])
    return total


def end_to_end(ops, setup, passes):
    return {
        "setup_s": (_median(setup), "s"),
        "pass_norm": (op_total(ops, passes, "norm"), "ref"),
        "ok_share": (sum(p["ok"] for p in passes)
                     / sum(p["attempted"] for p in passes), "ratio"),
        "peak_rss_mb": (_median([p["rss_mb"] for p in passes]), "MB"),
        "pres_generators": (_median([p["generators"] for p in passes]),
                            "count"),
        "pres_size": (_median([p["generators"] + p["relators"]
                               for p in passes]), "count"),
    }


def per_layer(ops, passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]

    def layer(name, key):
        return _median([p["layers"].get(name, {}).get(key, 0)
                        for p in traced])

    def counter(name):
        return _median([p["counters"].get(name, 0) for p in traced])

    def kept_ratio(p):
        calls = p["layers"].get("presentation.tietze", {}).get("calls", 0)
        kept = p["counters"].get("presentation.tietze_kept", 0)
        return kept / calls if calls else 0.0

    def pi1_self(p):
        return sum(v["self"] for k, v in p["layers"].items()
                   if k.startswith("pi1."))

    base = op_total(ops, plain, "norm")
    overhead = op_total(ops, traced, "norm") / base if base else 0.0
    metrics = {
        "scheme.validate_s": (layer("scheme.validate", "time"), "s"),
        "scheme.validate_calls": (layer("scheme.validate", "calls"), "count"),
        "scheme.order_s": (layer("scheme.order", "time"), "s"),
        "presentation.tietze_s": (layer("presentation.tietze", "time"), "s"),
        "presentation.tietze_calls": (layer("presentation.tietze", "calls"),
                                      "count"),
        "presentation.tietze_kept_ratio": (
            _median([kept_ratio(p) for p in traced]), "ratio"),
        "presentation.raw_generators": (
            counter("presentation.raw_generators"), "count"),
        "pi1.devissage_calls": (layer("pi1.devissage", "calls"), "count"),
        "pi1.self_s": (_median([pi1_self(p) for p in traced]), "s"),
        "vk.assemble_s": (layer("vk.assemble", "time"), "s"),
        "vk.assemble_calls": (layer("vk.assemble", "calls"), "count"),
        "homcount.count_s": (layer("homcount.count", "time"), "s"),
        "homcount.count_calls": (layer("homcount.count", "calls"), "count"),
        "homcount.iter_s": (layer("homcount.iter", "time"), "s"),
        "homcount.transitive_s": (layer("homcount.transitive", "time"), "s"),
        "oracle.enumerate_s": (layer("oracle.enumerate", "time"), "s"),
        "oracle.rigid_count": (counter("oracle.rigid_count"), "count"),
        "oracle.connected_s": (layer("oracle.connected", "time"), "s"),
        "schema.parse_s": (layer("schema.parse", "time"), "s"),
        "schema.emit_s": (layer("schema.emit", "time"), "s"),
        "perms.table_s": (layer("perms.table", "time"), "s"),
        "cli.present_s": (op_total(ops, plain, kinds=("present",)), "s"),
        "cli.verify_s": (op_total(ops, plain, kinds=("verify",)), "s"),
        "cli.verify_connected_s": (
            op_total(ops, plain, kinds=("verify_connected",)), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.absent_names": (
            len(set().union(*(p["absent"] for p in traced))), "count"),
    }
    return metrics


def dominant_layer(passes):
    """Span name with the largest median self time in the traced passes."""
    traced = [p for p in passes if p["traced"]]
    names = {n for p in traced for n in p["layers"] if not n.startswith("cli.")}
    if not names:
        return None
    return max(sorted(names), key=lambda n: _median(
        [p["layers"].get(n, {}).get("self", 0.0) for p in traced]))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "singular_pi1" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    started = perf_counter()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inputs = Inputs(Path(tmp), args.seed)
        runner = Runner(args.workload, inputs, started + RUN_DEADLINE_S)
        runner.warm_up()
        passes = []
        begin = perf_counter()
        while perf_counter() < runner.deadline:
            elapsed = perf_counter() - begin
            # stop at the pass boundary nearest to --seconds
            if len(passes) > args.trace and \
                    elapsed + elapsed / len(passes) / 2 >= args.seconds:
                break
            traced = args.trace == 1 and len(passes) % 2 == 1
            passes.append(runner.run_pass(traced))

    attempted = sum(p["attempted"] for p in passes)
    failed = attempted - sum(p["ok"] for p in passes)
    summary = {"workload": args.workload, "seed": args.seed,
               "passes": len(passes),
               "pass_s": [round(sum(t for t in p["ops"] if t), 4)
                          for p in passes],
               "pass_s_median": round(op_total(runner.ops, passes), 4),
               "generators": passes[0]["generators"] if passes else 0,
               "relators": passes[0]["relators"] if passes else 0,
               "failures": runner.failures[:20]}
    if args.trace:
        metrics = per_layer(runner.ops, passes)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "operations": runner.spans}, fh)
        summary["dominant_layer"] = dominant_layer(passes)
        summary["absent"] = sorted(set().union(*(p["absent"]
                                                 for p in passes)))
        summary["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = end_to_end(runner.ops, runner.setup, passes)
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0 and len(passes) >= 1 + args.trace,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
