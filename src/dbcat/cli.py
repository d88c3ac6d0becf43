"""Command-line front end: parse input files, run checks, emit reports.

Every command produces a deterministic report: one line per check, sorted by
check id.  Exit status is 0 when everything passed, 1 when any check failed,
2 on usage or parse errors.

A process loads only the modules its command uses: parsing needs the rule
syntax alone, ``rules`` evaluates rules, ``powerview`` closes instances,
``category`` builds arrows and ``interpret`` checks graphs; no argparse.
"""
from __future__ import annotations

import re
import sys

from .core import DEFAULT_CAP, DEFAULT_DEPTH, DEFAULT_MAX_ARITY, DbcatError, Verdicts, bottom_instance
from .core import format_extension, is_empty_isomorphic
from .dsl import Workspace, parse_rule_text, parse_workspace
from .schemas import term_layout
from .syntax import QueryError


#: Each command's positional arguments, by the role they play.
COMMANDS = {
    "eval": "INSTANCE RULE", "powerview": "INSTANCE", "iso": "INSTANCE INSTANCE",
    "flux": "MAPPING SOURCE TARGET", "compose": "MAPPING MAPPING SOURCE MIDDLE TARGET",
    "laws": "", "check-model": "GRAPH", "check-functor": "GRAPH", "gamma-iso": "GRAPH",
    "duality": "INSTANCE INSTANCE",
}
GRAPH_COMMANDS = ("check-model", "check-functor", "gamma-iso")

#: Each long option and its default; ``-i`` is ``--input`` and ``-h`` is ``--help``.
OPTIONS = {"--input": (), "--depth": DEFAULT_DEPTH, "--arity": DEFAULT_MAX_ARITY, "--cap": DEFAULT_CAP,
           "--format": "text", "--help": None}
#: Every spelling of an option: ``-i``, ``-h``, and a long name or any prefix of it
#: of three characters or more (no two long names share a first letter).
_NAMES = {"-i": "--input", "-h": "--help", **{name[:k]: name for name in OPTIONS for k in range(3, len(name) + 1)}}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # an argument, not an option, as in argparse


def render(command: str, verdicts: Verdicts, fmt: str = "text") -> str:
    """The report of a command's verdicts, one PASS or FAIL line per check, sorted."""
    lines = sorted((cid, "PASS" if ok else "FAIL", detail) for cid, ok, detail in verdicts.checks)
    if fmt == "lines":
        return "\n".join(f"{cid}\t{verdict}\t{detail}" for cid, verdict, detail in lines)
    width = max((len(cid) for cid, _, _ in lines), default=0)
    body = [f"{cid.ljust(width)}  {verdict}  {detail}" for cid, verdict, detail in lines]
    summary = "all checks passed" if verdicts.passed else "some checks FAILED"
    return "\n".join([f"== {command} =="] + body + [summary])


def _schema_instances(ws: Workspace, graph) -> dict:
    """One declared instance per atomic schema appearing in the graph."""
    wanted = {s.name for _, term in graph.nodes for s, _, _ in term_layout(term).leaves}
    assign = {}
    for inst_name, (term_name, inst) in sorted(ws.instances.items()):
        if term_name in wanted:
            if term_name in assign:
                raise DbcatError(
                    f"two instances declared for schema {term_name!r}; keep exactly one"
                )
            assign[term_name] = inst
    missing = wanted - set(assign)
    if missing:
        raise DbcatError(f"no instance declared for schemas {sorted(missing)}")
    return assign


def _mapping_morphism(ws: Workspace, mapping_name: str, src: str, tgt: str):
    from .category import ViewMap, make_atomic

    m = ws.lookup("mapping", mapping_name)
    source, target = (ws.lookup("instance", name)[1] for name in (src, tgt))
    mode = "exact" if m.exact else "inclusion"
    vms = []
    for p in m.pairs:
        if not (p.rhs_bare and target.has(p.rhs_name)):
            what = "is not a relation" if p.rhs_bare else "is a query, not a relation"
            raise DbcatError(f"mapping {mapping_name}: right side {p.rhs_name!r} {what} of instance {tgt!r}")
        vms.append(ViewMap(p.lhs, p.rhs_name, mode))
    return make_atomic(vms, source, target)


def run(command: str, args, ws: Workspace, depth, max_arity, cap) -> Verdicts:
    """Dispatch one command against a parsed workspace."""
    if command not in COMMANDS:
        raise DbcatError(f"unknown command {command!r}")
    if len(args) != len(COMMANDS[command].split()):
        got = f"{len(args)} argument" + ("" if len(args) == 1 else "s")
        raise DbcatError(f"{command} takes {COMMANDS[command] or 'no arguments'} (got {got})")
    if command in ("powerview", "iso"):
        from . import powerview
    if command in ("flux", "compose", "duality"):
        from . import category
    if command in GRAPH_COMMANDS:
        from . import interpret
        from .sketch import build_sketch

        graph = ws.lookup("graph", args[0])
        sketch = build_sketch(graph)
        alpha = interpret.interpretation(_schema_instances(ws, graph), ws.schemas)
    lines = []
    if command == "eval":
        from .rules import eval_rule
        inst = ws.lookup("instance", args[0])[1]
        rule = parse_rule_text(args[1])
        try:
            result = eval_rule(rule, inst)
            lines.append((f"eval {args[0]}", True, format_extension(result.tuples)))
        except QueryError as exc:
            lines.append((f"eval {args[0]}", False, str(exc)))
    elif command == "powerview":
        vs = powerview.power_view(ws.lookup("instance", args[0])[1], depth, max_arity, cap)
        for comp, views in vs.serialize():
            lines.append((f"powerview {args[0]} c{comp}", True, " ".join(views)))
        closure = "fixpoint" if vs.fixpoint else f"bounded at depth {vs.depth}"
        lines.append((f"powerview {args[0]} closure", True, closure))
    elif command == "iso":
        a, b = (ws.lookup("instance", name)[1] for name in args)
        ok = powerview.instances_isomorphic(a, b, None)
        lines.append((f"iso {args[0]} {args[1]}", ok, "same views" if ok else "views differ"))
    elif command == "flux":
        try:
            m = _mapping_morphism(ws, args[0], args[1], args[2])
            fx = category.flux(m, depth, max_arity, cap)
            for s, t, views in fx.serialize(cap):
                lines.append((f"flux {args[0]} c{s}->c{t}", True, " ".join(views)))
        except category.ModeViolation as exc:
            lines.append((f"flux {args[0]}", False, str(exc)))
    elif command == "compose":
        try:
            f = _mapping_morphism(ws, args[0], args[2], args[3])
            g = _mapping_morphism(ws, args[1], args[3], args[4])
            h = category.compose(g, f)
            lines.append((f"compose {args[1]}.{args[0]} kind", True, h.kind))
            fx = category.flux(h, depth, max_arity, cap)
            for s, t, views in fx.serialize(cap):
                lines.append((f"compose {args[1]}.{args[0]} flux c{s}->c{t}", True, " ".join(views)))
        except category.ModeViolation as exc:
            lines.append((f"compose {args[1]}.{args[0]}", False, str(exc)))
    elif command == "laws":
        lines.extend(_law_suite(ws, max_arity))
    elif command == "check-model":
        report = interpret.check_model(alpha, sketch)
        lines += report.checks
        lines.append(("model", report.passed, "interpretation is a model" if report.passed else "not a model"))
    elif command == "check-functor":
        report = interpret.check_functor(alpha, sketch)
        lines += report.checks
        detail = "interpretation extends to a functor" if report.passed else "functorial requirement fails"
        lines.append(("functor", report.passed, detail))
    elif command == "gamma-iso":
        lines += interpret.check_gamma_iso(alpha, sketch).checks
    elif command == "duality":
        a, b = (ws.lookup("instance", name)[1] for name in args)
        report = category.verify_duality(a, b, max_arity=max_arity)
        lines += [(f"duality {cid}", ok, detail) for cid, ok, detail in report.checks]
        lines.append(("duality note", True, category.SET_COUNTEREXAMPLE_NOTE))
    return Verdicts(tuple(lines))


def _law_suite(ws: Workspace, max_arity):
    """A small built-in law battery over the workspace's declared instances, at fixpoint."""
    from . import category, powerview

    lines = []
    insts = sorted(ws.instances.items())
    bot = bottom_instance()
    vs_bot = powerview.view_closure(bot, None, max_arity)
    lines.append(("laws bottom-closure", len(vs_bot) == 1, "views of the bottom instance are just the empty view"))
    for name, (_, inst) in insts:
        vs = powerview.view_closure(inst, None, max_arity)
        contains_all = all(
            r.tuples in vs or not r.tuples for r in inst.relations
        )
        lines.append((f"laws contains-source {name}", contains_all, "instance relations appear among views"))
        collapses = powerview.instances_isomorphic(inst, bot, None) == is_empty_isomorphic(inst)
        lines.append((f"laws empty-vs-bottom {name}", collapses, "empty instances collapse to the bottom object"))
        transmits = category.flux(category.identity(inst), None, max_arity).canonical() == vs.canonical()
        lines.append((f"laws identity-flux {name}", transmits, "identity transmits the whole view closure"))
    for (n1, (_, a)), (n2, (_, b)) in zip(insts, insts[1:]):
        rep = category.verify_duality(a, b, max_arity=max_arity)
        lines.append((f"laws duality {n1}+{n2}", rep.passed, "coproduct doubles as product"))
    return lines


def _option(arg: str):
    """The long option *arg* names and the value attached to it, ("", arg)
    for an unknown option, None for an argument."""
    name, eq, value = arg.partition("=")
    if name not in _NAMES and arg[:2] in ("-i", "-h"):  # -iFILE
        name, eq, value = arg[:2], "=", arg[2:]
    if name in _NAMES:
        return _NAMES[name], value if eq else None
    return None if arg[:1] != "-" or arg == "-" or _NEGATIVE.match(arg) or " " in arg else ("", arg)


def parse_argv(argv):
    """(command, its arguments, {long option: value}) from a command line, or
    None for -h/--help.  A line argparse took means what it meant; arguments
    may also stand between options.  A line it refuses raises DbcatError."""
    values = {name: default for name, default in OPTIONS.items() if default is not None}
    positionals, unknown, rest = [], [], iter(argv)
    for arg in rest:
        if arg == "--":  # every later word is an argument, "--" too
            positionals += rest
            break
        name, value = _option(arg) or (None, arg)
        if name == "--help":
            return None
        if not name:
            (positionals if name is None else unknown).append(arg)
            continue
        if value is None and ((value := next(rest, "--")) == "--" or _option(value)):
            raise DbcatError(f"argument {name}: expected one argument")
        if name == "--input":
            values[name] += (value,)
        elif name == "--format":
            if value not in ("text", "lines"):
                raise DbcatError(f"argument --format: invalid choice: {value!r} (choose from 'text', 'lines')")
            values[name] = value
        else:
            try:
                values[name] = int(value)
            except ValueError:
                raise DbcatError(f"argument {name}: invalid int value: {value!r}") from None
    if unknown or not positionals:
        raise DbcatError(f"unrecognized arguments: {' '.join(unknown)}" if unknown else "a command is required")
    return positionals[0], positionals[1:], values


def usage() -> str:
    """What -h/--help prints: the commands and the options with their defaults."""
    commands = [f"  {name} {params}".rstrip() for name, params in COMMANDS.items()]
    options = [f"  {name}" + {(): " (repeatable)", None: ""}.get(value, f" (default {value})") for name, value in OPTIONS.items()]
    return "\n".join(["usage: dbcat COMMAND [ARGUMENT ...] [-i FILE ...] [OPTION VALUE ...]", "commands:", *commands,
                      "options (-i, -h, --name=value and unique prefixes also work):", *options,
                      "--format is text or lines; every verdict is exact; --depth and --cap bound only listings",
                      "(powerview, flux, compose), and --depth -1 lists to fixpoint."])


def main(argv=None) -> int:
    try:
        parsed = parse_argv(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            print(usage())
            return 0
        command, args, opts = parsed
        for flag, least in (("--depth", -1), ("--arity", 0), ("--cap", 1)):
            if opts[flag] < least:
                raise DbcatError(f"{flag} must be at least {least}, not {opts[flag]}")
        depth = None if opts["--depth"] < 0 else opts["--depth"]
        verdicts = run(command, args, parse_workspace(opts["--input"]), depth, opts["--arity"], opts["--cap"])
    except (DbcatError, OSError) as exc:
        print(f"dbcat: {exc}", file=sys.stderr)
        return 2
    print(render(command, verdicts, opts["--format"]))
    return int(not verdicts.passed)


if __name__ == "__main__":
    sys.exit(main())
