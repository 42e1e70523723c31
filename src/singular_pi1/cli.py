"""Command-line interface.

Commands: ``validate``, ``present``, ``verify``, ``plan``, ``rank``.
All output is JSON on stdout (or ``--output``).  Exit codes: 0 success,
1 a verification verdict failed, 2 semantic precondition violated or a
bad command line, 3 schema or I/O problem, 4 a resource bound exceeded.
"""

import gc
import json
import os
import re
import sys
from types import SimpleNamespace

from .errors import InputError, ResourceError, SchemaError
from .homcount import count_homs
from .limits import DEFAULT_LIMITS
from .oracle import attach_connected, compare
from .pi1 import pi1_devissage, pi1_graph_of_groups
from .scheme import devissage_splits, free_rank, validate
from .schema import json_text, parse_scheme_config, pi1_result_to_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_SCHEMA = 3
EXIT_RESOURCE = 4


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
    # the connected columns at degree d come from the plain ones at 1..d,
    # so --connected also compares degree 1, without emitting it
    # a refusal at one degree is a refusal at every higher one, so the run
    # stops at the first refused degree k above 1 (degree 1 is compared
    # but never emitted): the reports cover degrees 2..k-1, and the one
    # refusal is k's
    reports, refusals = [], []
    for d in range(1 if args.connected else 2, args.degree_max + 1):
        try:
            reports.append(compare(cfg, d, result, limits=limits))
        except ResourceError as exc:
            if d > 1:
                refusals.append({"degree": d, "error": str(exc)})
                break
    if args.connected:
        attach_connected(cfg, reports)
    reports = [r for r in reports if r.degree > 1]
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
    comp_ids = [c.id for c in cfg.components]
    order, splits = [], []
    for split in devissage_splits(cfg):
        order.append(cfg.singulars[split.piece - cfg.n].id)
        if split.overlap:
            # every prefix is connected, so each part's rank is its
            # m_tilde - m - n + 1 and the three add up by
            # inclusion-exclusion
            r, s1, s2 = len(order), len(split.comps), split.s2
            d = len(split.overlap)
            m1, m2 = len(split.branches), split.m_tilde_2
            rank_total = m1 + m2 - r - (s1 + s2 - d) + 1
            rank_patch = m1 - 1 - s1 + 1
            rank_rest = m2 - (r - 1) - s2 + 1
            splits.append({
                "S": [comp_ids[c] for c in split.overlap],
                "S1": [comp_ids[c] for c in split.comps], "s2": s2,
                "d": d, "m_tilde_1": m1, "m_tilde_2": m2,
                "anchor": order[-1],
                "rank_total": rank_total,
                "rank_patch": rank_patch,
                "rank_complement": rank_rest,
                "additivity_ok": rank_total == rank_patch + rank_rest
                                 + d - 1,
            })
    # the rows read last piece first
    return EXIT_OK, {"order": order, "splits": splits[::-1]}


def _cmd_rank(args, limits):
    cfg = _load(args, limits)
    return EXIT_OK, {"n": cfg.n, "m": cfg.m, "m_tilde": cfg.m_tilde,
                     "rank": free_rank(cfg)}


# every command takes a path and these flags; a flag maps to its kind (int,
# str, a tuple of choices, or bool for a switch), its default and its help
_EVERY_COMMAND = {
    "--bound-order": (int, None, "largest allowed finite group order"),
    "--bound-degree": (int, None, "largest symmetric-group degree"),
    "--ceiling": (int, None, "largest admissible estimated work"),
    "--output": (str, None, "write JSON here instead of stdout"),
    "--help": (bool, None, "show this help (also -h)"),
}
# command: (its function, its help, its own flags)
_COMMANDS = {
    "validate": (_cmd_validate, "check a configuration", {}),
    "present": (_cmd_present, "compute the fundamental group", {
        "--route": (("auto", "devissage"), "auto", "assembly route"),
        "--form": (("i", "ii", "iii", "iv"), "i", "van Kampen form"),
        "--simplify": (("true", "false"), "true", "simplify the output"),
        "--degrees": (str, None, "comma-separated degrees to count homs at"),
    }),
    "verify": (_cmd_verify, "compare against the cover oracle", {
        "--degree-max": (int, 3, "highest degree compared"),
        "--connected": (bool, False, "also compare connected covers"),
    }),
    "plan": (_cmd_plan, "show the dévissage plan", {}),
    "rank": (_cmd_rank, "show the free-rank arithmetic", {}),
}


class Usage(Exception):
    """``args``: 0 and the ``-h`` text, or 2 and a command line error."""


def _usage(commands):
    return f"usage: singular-pi1 {'|'.join(commands)} PATH [flags]"


def _help(commands):
    """Each command with its own flags, then the flags of every command."""
    lines = [_usage(commands), ""]
    for name, about, flags in [(c, *_COMMANDS[c][1:]) for c in commands] \
            + [("flags:", "", _EVERY_COMMAND)]:
        lines.append(f"  {name:<30}{about}".rstrip())
        for flag, (kind, default, text) in flags.items():
            value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) \
                else "" if kind is bool else kind.__name__.upper()
            default = f" (default {default})" if default else ""
            lines.append(f"    {flag + ' ' + value:<28}{text}{default}")
    return "\n".join(lines)


def _resolve(token, names):
    """``(flag, its =value or None)``, or None for a path or a value."""
    name, eq, value = token.partition("=")
    name = "--help" if name == "-h" else name
    hits = [name] if name in names else [
        n for n in names if name[:2] == "--" != name and n.startswith(name)]
    if len(hits) > 1:
        raise ValueError(f"{name} is ambiguous: {', '.join(hits)}")
    if not hits and (token[:1] != "-" or token == "-" or " " in token
                     or re.fullmatch(r"-\d*\.?\d+", token)):
        return None
    return (hits[0] if hits else name), (value if eq else None)


def parse_args(argv):
    """``command``, ``path`` and one attribute per flag (the last value of
    a repeated one) from ``argv``, or ``Usage`` for ``-h`` or an error."""
    command = argv[0] if argv else ""
    if command not in _COMMANDS:
        if _resolve(command, ["--help"]) == ("--help", None):
            raise Usage(EXIT_OK, _help(_COMMANDS))
        raise Usage(EXIT_INPUT, f"{_usage(_COMMANDS)}\nsingular-pi1: error: "
                    "the first argument must be a command")
    flags = {**_EVERY_COMMAND, **_COMMANDS[command][2]}
    args = {flag[2:].replace("-", "_"): default
            for flag, (_, default, _) in flags.items() if flag != "--help"}
    paths, unknown = [], []
    try:
        it = iter([(token, _resolve(token, flags)) for token in argv[1:]])
        for token, hit in it:
            flag, value = hit or (None, None)
            kind = flags.get(flag, (None,))[0]
            if kind is None:
                (unknown if hit else paths).append(token)
                continue
            if flag == "--help" and value is None:
                raise Usage(EXIT_OK, _help([command]))
            if kind is not bool and value is None:
                value, hit = next(it, (None, True))
                if hit is not None:
                    raise ValueError(f"{flag} needs a value")
            if kind is bool and value is not None or \
                    isinstance(kind, tuple) and value not in kind:
                raise ValueError(f"{flag} cannot take {value!r}")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise ValueError(
                        f"{flag} cannot take {value!r}") from None
            args[flag[2:].replace("-", "_")] = True if kind is bool \
                else value
        if len(paths) != 1 or unknown:
            raise ValueError("unrecognized arguments: " + " ".join(
                unknown + paths[1:]) if paths else "a path is required")
    except ValueError as exc:
        raise Usage(EXIT_INPUT, f"{_usage([command])}\nsingular-pi1: "
                    f"error: {exc}") from None
    return SimpleNamespace(command=command, path=paths[0], **args)


def _run(args):
    """Exit code and JSON text of one command, or of its error."""
    try:
        code, payload = _COMMANDS[args.command][0](args, _limits_from(args))
        return code, json_text(payload)
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
    return code, json_text(payload)


def main(argv=None):
    """Run one command line and return its exit code.

    The objects of the import are frozen for the call, so the
    collector's passes visit only what the call allocates; a host that
    froze objects itself keeps its freeze, and the call runs without."""
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        return _main(argv)
    finally:
        if freeze:
            gc.unfreeze()


def _main(argv):
    stream = sys.stdout
    try:
        args = parse_args(list(sys.argv[1:] if argv is None else argv))
    except Usage as exc:
        code, text = exc.args
        stream = sys.stderr if code else stream
    else:
        code, text = _run(args)
        try:
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
                return code
        except OSError as exc:
            # the error object goes to stdout: the output file is unusable
            code, text = EXIT_SCHEMA, json_text({"error": {
                "kind": "schema", "path": "--output",
                "message": f"cannot write {args.output}: {exc}"}})
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        # the reader is gone: let the interpreter's flush at exit go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return EXIT_SCHEMA
    return code


if __name__ == "__main__":
    sys.exit(main())
