"""Run one CLI operation in this fresh interpreter and report on stdout.

Reads ``{"argv": [...], "trace": bool}`` as JSON on stdin, calls
``singular_pi1.cli.main(argv)`` with the CLI's stdout captured, and
writes one JSON object: exit code, wall seconds of the call, the CLI's
output, peak resident memory, the mean seconds of a fixed reference work
sampled before, during and after the call, and, when traced, the spans.

``imported_at`` is the system-wide monotonic clock right after
``singular_pi1.cli`` is imported, before anything else is: the parent
subtracts the moment it started this interpreter to get the set-up time
every CLI call pays.
"""

import time

import singular_pi1.cli as cli

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402  (after the set-up clock stops)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402


# reference samples: this many before and after the call, and one every
# SAMPLE_EVERY_S seconds of it (about 2.5% of its wall time)
EDGE_SAMPLES = 3
SAMPLE_EVERY_S = 0.2


def reference_work():
    """Seconds of fixed interpreter work (about 5 ms): dict updates and
    small strings.

    On a shared machine the speed of the interpreter drifts by tens of
    percent within seconds; this work slows down with it, so an
    operation's time divided by it is steadier than either.  Its table
    stays far below an operation's peak memory.
    """
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(15_000):
        k = (i * 7919) % 4999
        table[k] = table.get(k, 0) + i
        acc += len(str(k))
    return time.perf_counter() - t0


def main():
    request = json.load(sys.stdin)
    argv = request["argv"]
    tracer = Tracer() if request["trace"] else None
    if tracer is not None:
        tracer.install()
    buf = io.StringIO()
    code, error = None, None
    samples = [reference_work() for _ in range(EDGE_SAMPLES)]
    paused = 0.0

    def sample(signum, frame):
        nonlocal paused
        t = time.perf_counter()
        samples.append(reference_work())
        paused += time.perf_counter() - t

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported as a failed operation, never fatal
        error = traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t0 - paused
    samples += [reference_work() for _ in range(EDGE_SAMPLES)]
    report = {"exit": code, "error": error, "imported_at": IMPORTED_AT,
              "seconds": seconds, "reference_s": statistics.fmean(samples),
              "stdout": buf.getvalue(),
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        report["spans"] = tracer.records()
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
