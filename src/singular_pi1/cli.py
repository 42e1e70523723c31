"""Command-line interface.

Commands: ``validate``, ``present``, ``verify``, ``plan``, ``rank``.
All output is JSON on stdout (or ``--output``).  Exit codes: 0 success,
1 a verification verdict failed, 2 semantic precondition violated,
3 schema or I/O problem, 4 a resource bound was exceeded.
"""

import argparse
import json
import sys

from .errors import InputError, ResourceError, SchemaError
from .homcount import count_homs
from .limits import DEFAULT_LIMITS
from .oracle import IncidenceGraph, attach_connected, compare
from .pi1 import pi1_devissage, pi1_graph_of_groups
from .scheme import devissage_order, devissage_splits, free_rank, validate
from .schema import parse_scheme_config, pi1_result_to_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_SCHEMA = 3
EXIT_RESOURCE = 4


def _common(sub):
    sub.add_argument("path", help="configuration JSON file")
    sub.add_argument("--bound-order", type=int, default=None,
                     help="largest allowed finite group order")
    sub.add_argument("--bound-degree", type=int, default=None,
                     help="largest symmetric-group degree")
    sub.add_argument("--ceiling", type=int, default=None,
                     help="largest admissible estimated work")
    sub.add_argument("--output", default=None,
                     help="write JSON here instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="singular-pi1",
        description="Fundamental-group presentations of singular schemes "
                    "from dual-graph gluing data, with oracle verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a configuration")
    _common(p)

    p = subs.add_parser("present", help="compute the fundamental group")
    _common(p)
    p.add_argument("--route", choices=("auto", "devissage"), default="auto")
    p.add_argument("--form", choices=("i", "ii", "iii", "iv"), default="i",
                   help="van Kampen form used by the devissage route")
    p.add_argument("--simplify", choices=("true", "false"), default="true",
                   help="emit the simplified (default) or raw presentation")
    p.add_argument("--degrees", default=None,
                   help="comma-separated degrees to append hom counts for")

    p = subs.add_parser("verify", help="compare against the cover oracle")
    _common(p)
    p.add_argument("--degree-max", type=int, default=3)
    p.add_argument("--connected", action="store_true",
                   help="also compare connected covers against transitive "
                        "hom counts")

    p = subs.add_parser("plan", help="show the dévissage plan")
    _common(p)

    p = subs.add_parser("rank", help="show the free-rank arithmetic")
    _common(p)
    return parser


def _limits_from(args):
    limits = DEFAULT_LIMITS
    for flag, field, value in (("--bound-order", "order_bound",
                                args.bound_order),
                               ("--bound-degree", "degree_bound",
                                args.bound_degree),
                               ("--ceiling", "ceiling", args.ceiling)):
        if value is None:
            continue
        if value < 0:
            raise InputError(f"{flag} must be non-negative, got {value}")
        limits = limits.replace(**{field: value})
    return limits


def _load(args, limits):
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError("$", f"cannot read {args.path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError("$", f"not UTF-8 text: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer over the digit limit, or nesting
        # deeper than the parser's recursion limit
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    return parse_scheme_config(doc, limits)


def _cmd_validate(args, limits):
    cfg = _load(args, limits)
    result = validate(cfg)
    return EXIT_OK if result.ok else EXIT_INPUT, result.to_json()


def _degrees(text):
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"--degrees takes comma-separated integers, "
                         f"got {text!r}") from None


def _cmd_present(args, limits):
    degrees = _degrees(args.degrees) if args.degrees else []
    cfg = _load(args, limits)
    if args.route == "devissage":
        result = pi1_devissage(cfg, form=args.form)
    else:
        result = pi1_graph_of_groups(cfg)
    payload = pi1_result_to_json(result, simplified=args.simplify == "true")
    if args.degrees:
        # counting simplifies whatever it is given, so the raw
        # presentation counts alike; the simplified one is smaller
        payload["hom_counts"] = {
            str(d): count_homs(result.presentation, d, limits)
            for d in degrees}
    return EXIT_OK, payload


def _cmd_verify(args, limits):
    if args.degree_max < 2:
        # the reports start at degree 2: a lower bound would compare
        # nothing and pass
        raise InputError(f"--degree-max must be at least 2, "
                         f"got {args.degree_max}")
    cfg = _load(args, limits)
    result = pi1_graph_of_groups(cfg)
    graph = IncidenceGraph(cfg)
    # the connected columns at degree d come from the plain ones at 1..d,
    # so --connected also compares degree 1, without emitting it
    reports, refusals = [], []
    for d in range(1 if args.connected else 2, args.degree_max + 1):
        try:
            reports.append(compare(graph, d, result, limits=limits))
        except ResourceError as exc:
            refusals.append({"degree": d, "error": str(exc)})
    # a refusal at one degree is a refusal at every higher one, so the
    # reports cover degrees first..k and the refusals k+1..D
    if args.connected:
        attach_connected(graph, reports)
    reports = [r for r in reports if r.degree > 1]
    refusals = [r for r in refusals if r["degree"] > 1]
    all_pass = all(r.verdict and (r.connected is None
                                  or r.connected["verdict"] == "pass")
                   for r in reports)
    payload = {"reports": [r.to_json() for r in reports] + refusals}
    if refusals:
        return EXIT_RESOURCE, payload
    return EXIT_OK if all_pass else EXIT_FAIL, payload


def _cmd_plan(args, limits):
    cfg = _load(args, limits)
    if cfg.m == 0:
        raise InputError("regular scheme, nothing to plan")
    order = devissage_order(cfg)
    splits = []
    for scope, prefix, patch, complement, report in \
            devissage_splits(cfg, order):
        rank_total = free_rank(scope)
        rank_patch = free_rank(patch)
        rank_rest = free_rank(complement)
        row = report.to_json()
        row.update({
            "scope": list(prefix),
            "anchor": prefix[-1],
            "rank_total": rank_total,
            "rank_patch": rank_patch,
            "rank_complement": rank_rest,
            "additivity_ok": rank_total == rank_patch + rank_rest
                             + report.d - 1,
        })
        splits.append(row)
    return EXIT_OK, {"order": list(order), "splits": splits}


def _cmd_rank(args, limits):
    cfg = _load(args, limits)
    rank = free_rank(cfg)
    return EXIT_OK, {"n": cfg.n, "m": cfg.m, "m_tilde": cfg.m_tilde,
                     "rank": rank, "cycle_rank": rank}


_COMMANDS = {
    "validate": _cmd_validate,
    "present": _cmd_present,
    "verify": _cmd_verify,
    "plan": _cmd_plan,
    "rank": _cmd_rank,
}


def _run(args):
    """Exit code and JSON text of one command, or of its error."""
    try:
        code, payload = _COMMANDS[args.command](args, _limits_from(args))
        return code, json.dumps(payload, indent=2)
    except SchemaError as exc:
        code, payload = EXIT_SCHEMA, {"error": {
            "kind": "schema", "path": exc.path, "message": exc.message}}
    except InputError as exc:
        code, payload = EXIT_INPUT, {"error": {"kind": "input",
                                               "message": str(exc)}}
    except ResourceError as exc:
        code, payload = EXIT_RESOURCE, {"error": {
            "kind": "resource", "layer": exc.layer,
            "estimate": exc.estimate, "ceiling": exc.ceiling,
            "message": str(exc)}}
    except RecursionError:
        code, payload = EXIT_RESOURCE, {"error": {
            "kind": "resource", "layer": "pi1", "estimate": None,
            "ceiling": None, "message": "Python's recursion limit was "
            "exceeded"}}
    return code, json.dumps(payload, indent=2)


def main(argv=None):
    args = build_parser().parse_args(argv)
    code, text = _run(args)
    if not args.output:
        print(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        # the error object goes to stdout: the output file is unusable
        print(json.dumps({"error": {
            "kind": "schema", "path": "--output",
            "message": f"cannot write {args.output}: {exc}"}}, indent=2))
        return EXIT_SCHEMA
    return code


if __name__ == "__main__":
    sys.exit(main())
