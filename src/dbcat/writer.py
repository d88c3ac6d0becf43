"""The text of a workspace in the format :mod:`dbcat.dsl` reads: each
composition as its normal form, never as another composition's name."""
from __future__ import annotations

from .core import format_value, tuple_key
from .dsl import Workspace, parse_workspace_text
from .schemas import SchemaTerm
from .syntax import Egd, RelAtom, Rule, Var
from .values import DbcatError, Sentinel


def _fmt_value(v) -> str:
    """A value as it is written: quotes and backslashes in strings escaped.
    A sentinel has none, since ``#`` starts a comment."""
    if isinstance(v, Sentinel):
        raise DbcatError(f"the sentinel {v!r} has no text form")
    if isinstance(v, str):
        return "'" + v.replace("\\", "\\\\").replace("'", "\\'") + "'"
    return format_value(v)


def _fmt_term_arg(t) -> str:
    if isinstance(t, Var):
        return t.name
    return _fmt_value(t.value)


def _fmt_atom(a) -> str:
    if isinstance(a, RelAtom):
        return f"{a.name}({','.join(_fmt_term_arg(x) for x in a.args)})"
    return f"{_fmt_term_arg(a.left)} {a.op} {_fmt_term_arg(a.right)}"


def _fmt_atoms(atoms) -> str:
    return ", ".join(_fmt_atom(a) for a in atoms)


def _fmt_rule(r: Rule) -> str:
    head = f"{r.head_name}({','.join(v.name for v in r.head_vars)})"
    return f"{head} :- {_fmt_atoms(r.body)}"


def _fmt_constraint(c) -> str:
    if isinstance(c, Egd):
        universal = sorted({v.name for a in c.left for v in a.variables()})
        right = f"{c.pair[0]} = {c.pair[1]}"
    else:
        universal, right = c.universal, _fmt_atoms(c.right)
    return f"constraint forall {','.join(universal)}: {_fmt_atoms(c.left)} => {right}."


def _fmt_schema_term(t: SchemaTerm) -> str:
    """A term as its groups: a group's schemas joined by ``fed``, in parentheses
    when there are several, and the groups joined by ``sep``."""
    return " sep ".join(
        "empty" if not g else g[0].name if len(g) == 1 else f"({' fed '.join(s.name for s in g)})"
        for g in t.groups
    )


def _statements(ws: Workspace):
    """Each statement of *ws* as ``(kind, name, lines)``: schemas, then the
    compositions in the order they were declared, then instances, mappings
    and graphs.  The lines are made as they are read, so a value that has no
    text form is refused with the name of its statement."""
    for name in sorted(ws.schemas):
        yield "schema", name, _schema_lines(name, ws.schemas[name])
    for name, term in ws.composes.items():
        yield "compose", name, [f"compose {name} = {_fmt_schema_term(term)}"]
    for name in sorted(ws.instances):
        yield "instance", name, _instance_lines(name, *ws.instances[name])
    for name in sorted(ws.mappings):
        yield "mapping", name, _mapping_lines(name, ws.mappings[name])
    for name in sorted(ws.graphs):
        lines = [f"graph {name} {{"]
        for m in ws.graphs[name].mappings:  # ``branch`` names the mapping it makes ``left+right``
            left, branched, right = m.name.partition("+")
            lines.append(f"  {left} branch {right}." if branched else f"  use {m.name}.")
        yield "graph", name, lines + ["}"]


def _schema_lines(name: str, s):
    yield f"schema {name} {{"
    yield from (f"  {rel}/{arity}." for rel, arity in s.relsymbols)
    yield from (f"  {_fmt_constraint(c)}" for c in s.constraints.items)
    yield "}"


def _instance_lines(name: str, term_name: str, inst):
    yield f"instance {name} of {term_name} {{"
    for r in inst.relations:
        yield from (f"  {r.name}({','.join(map(_fmt_value, t))})." for t in sorted(r.tuples, key=tuple_key))
    yield "}"


def _mapping_lines(name: str, m):
    yield f"mapping {name} : {m.source_name} -> {m.target_name} {{"
    for pair in m.pairs:
        bare = f"{pair.rhs_name}({','.join(v.name for v in pair.rhs.head_vars)})"
        yield f"  {_fmt_rule(pair.lhs)} => {bare if pair.rhs_bare else _fmt_rule(pair.rhs)}."
    yield from ["  exact."] * m.exact
    yield "}"


def serialize_workspace(ws: Workspace) -> str:
    """Deterministic text for a workspace; parsing it back gives an equal one.
    Each statement's text is parsed back after the statements before it.  The
    first one that holds a value with no text form, does not parse, or reads
    back as another, is refused with a DbcatError naming it, whose cause is
    the refusal of the value or the parse error if there is one (its line
    counts from the statement's first line)."""
    back, out = Workspace(), []
    for kind, name, lines in _statements(ws):
        try:
            lines = list(lines)
            parse_workspace_text("\n".join(lines), back)
        except DbcatError as exc:
            raise DbcatError(f"{kind} {name} cannot be written: {exc}") from exc
        if getattr(back, kind + "s").get(name) != getattr(ws, kind + "s")[name]:
            raise DbcatError(f"{kind} {name} cannot be written: it would read back as a different {kind}")
        out += lines
    return "\n".join(out) + "\n"
