"""The text of a workspace in the format :mod:`dbcat.dsl` reads."""
from __future__ import annotations

from contextlib import suppress

from .core import DbcatError, Sentinel, format_value, tuple_key
from .dsl import Workspace, parse_workspace_text
from .schemas import EmptyTerm, SAtom, SchemaTerm, SepTerm
from .rules import atom_constants
from .syntax import Egd, RelAtom, Rule, Tgd, Var


def _fmt_value(v) -> str:
    """A value as it is written: quotes and backslashes in strings escaped."""
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


def _holds_sentinel(atoms) -> bool:
    """Whether an atom of *atoms* holds a sentinel constant, which the text cannot write."""
    return any(isinstance(v, Sentinel) for v in atom_constants(atoms))


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


def _fmt_schema_term(t: SchemaTerm, ws: Workspace) -> str:
    names = {id(term): name for name, term in ws.composes.items()}

    def go(t, top=False):
        if isinstance(t, EmptyTerm):
            return "empty"
        if isinstance(t, SAtom):
            return t.schema.name
        if not top and id(t) in names:
            return names[id(t)]
        op = "sep" if isinstance(t, SepTerm) else "fed"
        return f"({go(t.left)} {op} {go(t.right)})"

    return go(t, top=True)


def serialize_workspace(ws: Workspace) -> str:
    """Deterministic text for a workspace; parsing it back gives an equal one, or a
    DbcatError names the schema, mapping or instance holding a sentinel, which the
    text cannot write, or the graph that would read back as another graph."""
    out = []
    for name in sorted(ws.schemas):
        s = ws.schemas[name]
        if _holds_sentinel(a for c in s.constraints.items for a in c.left + (c.right if isinstance(c, Tgd) else ())):
            raise DbcatError(f"schema {name} cannot be written: a constraint holds a sentinel constant")
        out.append(f"schema {name} {{")
        for rel, arity in s.relsymbols:
            out.append(f"  {rel}/{arity}.")
        for c in s.constraints.items:
            out.append(f"  {_fmt_constraint(c)}")
        out.append("}")
    for name in sorted(ws.composes):
        out.append(f"compose {name} = {_fmt_schema_term(ws.composes[name], ws)}")
    for name in sorted(ws.instances):
        term_name, inst = ws.instances[name]
        out.append(f"instance {name} of {term_name} {{")
        for r in inst.relations:
            if any(isinstance(v, Sentinel) for t in r.tuples for v in t):
                raise DbcatError(f"instance {name} cannot be written: relation {r.name} holds a sentinel value")
            for t in sorted(r.tuples, key=tuple_key):
                out.append(f"  {r.name}({','.join(map(_fmt_value, t))}).")
        out.append("}")
    for name in sorted(ws.mappings):
        m = ws.mappings[name]
        if _holds_sentinel(a for pair in m.pairs for a in pair.lhs.body + pair.rhs.body):
            raise DbcatError(f"mapping {name} cannot be written: a rule holds a sentinel constant")
        out.append(f"mapping {name} : {m.source_name} -> {m.target_name} {{")
        for pair in m.pairs:
            if pair.rhs_bare:
                rhs = f"{pair.rhs_name}({','.join(v.name for v in pair.rhs.head_vars)})"
            else:
                rhs = _fmt_rule(pair.rhs)
            out.append(f"  {_fmt_rule(pair.lhs)} => {rhs}.")
        if m.exact:
            out.append("  exact.")
        out.append("}")
    back = parse_workspace_text("\n".join(out) + "\n") if ws.graphs else None
    for name in sorted(ws.graphs):
        lines = [f"graph {name} {{"]
        for m in ws.graphs[name].mappings:  # ``branch`` names the mapping it makes ``left+right``
            left, branched, right = m.name.partition("+")
            lines.append(f"  {left} branch {right}." if branched else f"  use {m.name}.")
        lines.append("}")
        with suppress(DbcatError):  # lines that do not parse read back as no graph
            parse_workspace_text("\n".join(lines), back)
        if back.graphs.get(name) != ws.graphs[name]:
            raise DbcatError(f"graph {name} cannot be written: its lines would read back as a different graph")
        out += lines
    return "\n".join(out) + "\n"
