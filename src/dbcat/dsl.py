"""Text format for schemas, instances, mappings, and graphs.

The format is line-oriented with ``#`` comments; statements end with a dot.

    schema A { r/2. s/1. constraint forall X,Y: r(X,Y) => s(X). }
    compose D = A sep B
    instance A0 of A { r(1,2). r(2,'x'). s(1). }
    mapping M : A -> B { q(X) :- r(X,Y) => s(X). }
    graph G { use M. M2 after M1. M1 branch M2. }

Uppercase-initial identifiers inside rules are variables; values are integers
or single-quoted strings.  The reserved constants ``#A`` and ``#B`` are
display-only and cannot be written: ``#`` starts a comment, so in
``r(#A).`` the value and everything after it on the line are never read.
"""
from __future__ import annotations

import re

from .constraints import Egd, Sentence, Tgd
from .core import DbcatError, Instance, Record, Relation, bottom_instance, format_value
from .queries import Builtin, Const, RelAtom, Rule, Var
from .schemas import (
    EMPTY_SCHEMA,
    EmptyTerm,
    SAtom,
    Schema,
    SchemaMapping,
    SchemaTerm,
    SepTerm,
    branch,
    fed,
    make_pair,
    mapping_graph,
    sep,
    seq_compose,
    term_layout,
)


class ParseError(DbcatError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, column {col}: {message}" if line else message)
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<define>:-)
  | (?P<implies>=>)
  | (?P<arrow>->)
  | (?P<le><=)
  | (?P<int>-?\d+)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_\#]*)
  | (?P<punct>[{}(),.;:=/])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "schema",
    "compose",
    "instance",
    "mapping",
    "graph",
    "constraint",
    "forall",
    "exists",
    "sep",
    "fed",
    "empty",
    "of",
    "use",
    "after",
    "branch",
    "exact",
}


class Token(Record):
    kind: str
    value: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            snippet = text[pos : pos + 10]
            raise ParseError(f"unexpected character {snippet[:1]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message + f" (found {tok.value!r})", tok.line, tok.col)

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            self.fail(f"expected {value or kind}")
        return self.next()

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def ident(self, what: str = "name") -> str:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected {what}")
        return self.next().value


class Workspace:
    """Everything one or more input files declare, fully cross-resolved, in
    dicts by name; ``composes`` holds schema terms and ``instances`` (schema
    or term name, instance) pairs."""

    def __init__(self):
        self.schemas, self.composes, self.instances, self.mappings, self.graphs = {}, {}, {}, {}, {}

    def __eq__(self, other):
        return isinstance(other, Workspace) and vars(self) == vars(other)

    def term(self, name: str, tok: Token | None = None) -> SchemaTerm:
        """The schema term *name* refers to; an unknown name is a
        :class:`ParseError` at *tok*, the token that names it, when given."""
        if name in self.composes:
            return self.composes[name]
        if name in self.schemas:
            return SAtom(self.schemas[name])
        line, col = (tok.line, tok.col) if tok else (0, 0)
        raise ParseError(f"unknown schema or composition {name!r}", line, col)


def _term_ref(p: _Parser, ws: Workspace) -> tuple:
    """Read a schema or composition name: (the name, the term it names)."""
    tok = p.peek()
    name = p.ident("schema name")
    return name, ws.term(name, tok)


def _check_fresh(ws: Workspace, name: str, tok: Token):
    for pool in (ws.schemas, ws.composes, ws.instances, ws.mappings, ws.graphs):
        if name in pool:
            raise ParseError(f"duplicate name {name!r}", tok.line, tok.col)


# -- rules -------------------------------------------------------------------


def _parse_value(p: _Parser):
    tok = p.peek()
    if tok.kind == "int":
        p.next()
        return int(tok.value)
    if tok.kind == "string":
        p.next()
        return tok.value[1:-1].replace("\\'", "'").replace("\\\\", "\\")
    p.fail("expected a value")


def _parse_term_arg(p: _Parser):
    tok = p.peek()
    if tok.kind == "ident":
        p.next()
        if tok.value[0].isupper():
            return Var(tok.value)
        p.fail(f"relation arguments are variables or values, not {tok.value!r}")
    return Const(_parse_value(p))


def _parse_atom(p: _Parser):
    """One body item: a relation atom, ``X = t`` or ``X <= t``."""
    tok = p.peek()
    if tok.kind == "ident" and not tok.value[0].isupper():
        name = p.ident("relation name")
        p.expect("punct", "(")
        args = []
        while not p.at("punct", ")"):
            args.append(_parse_term_arg(p))
            if p.at("punct", ","):
                p.next()
        p.expect("punct", ")")
        return RelAtom(name, tuple(args))
    left = _parse_term_arg(p)
    if p.at("punct", "="):
        p.next()
        return Builtin("=", left, _parse_term_arg(p))
    if p.at("le"):
        p.next()
        return Builtin("<=", left, _parse_term_arg(p))
    p.fail("expected '=' or '<=' after a bare term")


def _parse_atom_list(p: _Parser):
    atoms = [_parse_atom(p)]
    while p.at("punct", ","):
        p.next()
        atoms.append(_parse_atom(p))
    return tuple(atoms)


def _parse_head(p: _Parser):
    name = p.ident("head name")
    p.expect("punct", "(")
    vars_ = []
    while not p.at("punct", ")"):
        tok = p.peek()
        if tok.kind != "ident" or not tok.value[0].isupper():
            p.fail("head arguments must be variables")
        vars_.append(Var(p.next().value))
        if p.at("punct", ","):
            p.next()
    p.expect("punct", ")")
    return name, tuple(vars_)


def _parse_rule(p: _Parser) -> Rule:
    name, vars_ = _parse_head(p)
    p.expect("define")
    body = _parse_atom_list(p)
    return Rule(name, vars_, body)


def parse_rule_text(text: str) -> Rule:
    """Parse a standalone rule such as ``q(X) :- r(X,Y), s(Y)``."""
    p = _Parser(text)
    r = _parse_rule(p)
    if p.at("punct", "."):
        p.next()
    p.expect("eof")
    return r


# -- constraints --------------------------------------------------------------


def _parse_var_list(p: _Parser):
    names = [p.ident("variable")]
    while p.at("punct", ","):
        p.next()
        names.append(p.ident("variable"))
    return tuple(names)


def _parse_constraint(p: _Parser):
    p.expect("ident", "forall")
    universal = _parse_var_list(p)
    p.expect("punct", ":")
    if p.at("ident", "exists"):
        p.next()
        _parse_var_list(p)  # left existentials are implicit; the list is cosmetic
        p.expect("punct", ":")
    left = _parse_atom_list(p)
    p.expect("implies")
    right_exists = ()
    if p.at("ident", "exists"):
        p.next()
        right_exists = _parse_var_list(p)
        p.expect("punct", ":")
    right = _parse_atom_list(p)
    if (
        len(right) == 1
        and isinstance(right[0], Builtin)
        and right[0].op == "="
        and isinstance(right[0].left, Var)
        and isinstance(right[0].right, Var)
        and not right_exists
    ):
        return Egd(left, (right[0].left.name, right[0].right.name))
    right_vars = {v.name for a in right for v in a.variables()}
    extra = right_vars - set(universal)
    if extra - set(right_exists):
        p.fail(
            f"existential variables {sorted(extra - set(right_exists))} must be "
            "declared with 'exists'"
        )
    if extra:
        p.fail(
            "schema constraints must be weakly full: no existential variables "
            "on the right side"
        )
    try:
        return Tgd(universal, left, right, weakly_full=True)
    except DbcatError as exc:
        p.fail(str(exc))


# -- schema terms --------------------------------------------------------------


def _parse_schema_term(p: _Parser, ws: Workspace) -> SchemaTerm:
    def atom() -> SchemaTerm:
        if p.at("punct", "("):
            p.next()
            t = expr()
            p.expect("punct", ")")
            return t
        if p.at("ident", "empty"):
            p.next()
            return EMPTY_SCHEMA
        return _term_ref(p, ws)[1]

    def expr() -> SchemaTerm:
        t = atom()
        while p.at("ident", "sep") or p.at("ident", "fed"):
            op = p.next().value
            rhs = atom()
            t = sep(t, rhs) if op == "sep" else fed(t, rhs)
        return t

    return expr()


# -- statements ----------------------------------------------------------------


def _parse_schema(p: _Parser, ws: Workspace):
    tok = p.peek()
    name = p.ident("schema name")
    _check_fresh(ws, name, tok)
    p.expect("punct", "{")
    rels = []
    constraints = []
    while not p.at("punct", "}"):
        if p.at("ident", "constraint"):
            p.next()
            constraints.append(_parse_constraint(p))
            p.expect("punct", ".")
        else:
            rel_tok = p.peek()
            rel = p.ident("relation name")
            if rel[0].isupper():
                raise ParseError(
                    "relation names start lowercase (uppercase means a variable)",
                    rel_tok.line,
                    rel_tok.col,
                )
            p.expect("punct", "/")
            arity = int(p.expect("int").value)
            if arity < 1:
                p.fail("relation arity must be positive")
            rels.append((rel, arity))
            p.expect("punct", ".")
    p.expect("punct", "}")
    ws.schemas[name] = Schema(name, tuple(rels), Sentence(tuple(constraints)))


def _parse_compose(p: _Parser, ws: Workspace):
    tok = p.peek()
    name = p.ident("composition name")
    _check_fresh(ws, name, tok)
    p.expect("punct", "=")
    ws.composes[name] = _parse_schema_term(p, ws)


def _parse_instance(p: _Parser, ws: Workspace):
    tok = p.peek()
    name = p.ident("instance name")
    _check_fresh(ws, name, tok)
    p.expect("ident", "of")
    term_name, term = _term_ref(p, ws)
    layout = term_layout(term)
    rels = layout.relsymbols()
    tuples: dict = {rel: set() for rel in rels}
    p.expect("punct", "{")
    while not p.at("punct", "}"):
        rel_tok = p.peek()
        rel = p.ident("relation name")
        if rel not in rels:
            raise ParseError(
                f"relation {rel!r} is not part of {term_name}", rel_tok.line, rel_tok.col
            )
        p.expect("punct", "(")
        row = []
        while not p.at("punct", ")"):
            row.append(_parse_value(p))
            if p.at("punct", ","):
                p.next()
        p.expect("punct", ")")
        p.expect("punct", ".")
        if len(row) != rels[rel]:
            raise ParseError(
                f"{rel} expects {rels[rel]} values, got {len(row)}",
                rel_tok.line,
                rel_tok.col,
            )
        tuples[rel].add(tuple(row))
    p.expect("punct", "}")
    relations = tuple(
        Relation(rel, rels[rel], frozenset(tuples[rel])) for rel in sorted(rels)
    )
    partition = tuple((rel, layout.component_of(rel)) for rel in sorted(rels))
    inst = Instance(relations, partition) if relations else bottom_instance()
    ws.instances[name] = (term_name, inst)


def _parse_mapping(p: _Parser, ws: Workspace):
    tok = p.peek()
    name = p.ident("mapping name")
    _check_fresh(ws, name, tok)
    p.expect("punct", ":")
    src_name, source = _term_ref(p, ws)
    p.expect("arrow")
    tgt_name, target = _term_ref(p, ws)
    p.expect("punct", "{")
    pairs = []
    exact = False
    while not p.at("punct", "}"):
        if p.at("ident", "exact"):
            p.next()
            p.expect("punct", ".")
            exact = True
            continue
        lhs = _parse_rule(p)
        p.expect("implies")
        save = p.pos
        rhs_name, rhs_vars = _parse_head(p)
        if p.at("define"):
            p.pos = save
            rhs = _parse_rule(p)
        else:
            rhs = RelAtom(rhs_name, rhs_vars)
        p.expect("punct", ".")
        pairs.append(make_pair(lhs, rhs))
    p.expect("punct", "}")
    ws.mappings[name] = SchemaMapping(
        name, src_name, tgt_name, source, target, tuple(pairs), exact=exact
    )


def _parse_graph(p: _Parser, ws: Workspace):
    tok = p.peek()
    name = p.ident("graph name")
    _check_fresh(ws, name, tok)
    p.expect("punct", "{")
    used: dict = {}
    seqs: list = []
    branches: list = []

    def mapping_ref():
        mtok = p.peek()
        mname = p.ident("mapping name")
        if mname not in ws.mappings:
            raise ParseError(f"unknown mapping {mname!r}", mtok.line, mtok.col)
        return ws.mappings[mname]

    while not p.at("punct", "}"):
        if p.at("ident", "use"):
            p.next()
            m = mapping_ref()
            used[m.name] = m
            p.expect("punct", ".")
            continue
        m_left = mapping_ref()
        op = p.peek()
        if p.at("ident", "after"):
            used.setdefault(m_left.name, m_left)
            edge = m_left
            while p.at("ident", "after"):
                p.next()
                m_right = mapping_ref()
                used.setdefault(m_right.name, m_right)
                edge = seq_compose(edge, m_right)
            seqs.append(edge)
        elif p.at("ident", "branch"):
            p.next()
            m_right = mapping_ref()
            combined = branch(m_left, m_right)
            used.setdefault(m_left.name, m_left)
            used.setdefault(m_right.name, m_right)
            branches.append(combined)
        else:
            raise ParseError("expected 'after' or 'branch'", op.line, op.col)
        p.expect("punct", ".")
    p.expect("punct", "}")

    nodes: dict = {}
    for m in list(used.values()) + branches:
        nodes[m.source_name] = m.source
        nodes[m.target_name] = m.target
    ws.graphs[name] = mapping_graph(
        name,
        nodes,
        tuple(used.values()) + tuple(branches),
        seqs=tuple(seqs),
        branches=tuple(branches),
    )


def parse_workspace_text(text: str, ws: Workspace | None = None) -> Workspace:
    ws = ws or Workspace()
    p = _Parser(text)
    while not p.at("eof"):
        tok = p.peek()
        if p.at("ident", "schema"):
            p.next()
            _parse_schema(p, ws)
        elif p.at("ident", "compose"):
            p.next()
            _parse_compose(p, ws)
        elif p.at("ident", "instance"):
            p.next()
            _parse_instance(p, ws)
        elif p.at("ident", "mapping"):
            p.next()
            _parse_mapping(p, ws)
        elif p.at("ident", "graph"):
            p.next()
            _parse_graph(p, ws)
        else:
            raise ParseError(
                f"expected a declaration, found {tok.value!r}", tok.line, tok.col
            )
    return ws


def parse_workspace(paths) -> Workspace:
    """Parse one or more files into a single cross-resolved workspace."""
    ws = Workspace()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            parse_workspace_text(fh.read(), ws)
    return ws


# -- serialization -------------------------------------------------------------


def _fmt_term_arg(t) -> str:
    if isinstance(t, Var):
        return t.name
    return format_value(t.value)


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
    """Deterministic text for a workspace; parsing it back gives an equal one."""
    out = []
    for name in sorted(ws.schemas):
        s = ws.schemas[name]
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
            for t in sorted(r.tuples, key=lambda x: tuple(map(str, x))):
                out.append(f"  {r.name}({','.join(format_value(v) for v in t)}).")
        out.append("}")
    for name in sorted(ws.mappings):
        m = ws.mappings[name]
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
    for name in sorted(ws.graphs):
        g = ws.graphs[name]
        out.append(f"graph {name} {{")
        for m in g.mappings:
            if m not in g.branches:
                out.append(f"  use {m.name}.")
        for s in g.seqs:
            out.append(f"  {' after '.join(m.name for m in s.chain)}.")
        for b in g.branches:
            left, right = b.name.split("+", 1)
            out.append(f"  {left} branch {right}.")
        out.append("}")
    return "\n".join(out) + "\n"
