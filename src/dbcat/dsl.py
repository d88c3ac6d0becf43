"""Text format for schemas, instances, mappings, and graphs.

The format is line-oriented with ``#`` comments; statements end with a dot.

    schema A { r/2. s/1. constraint forall X,Y: r(X,Y) => s(X). }
    compose D = A sep B
    instance A0 of A { r(1,2). r(2,'x'). s(1). }
    mapping M : A -> B { q(X) :- r(X,Y) => s(X). }
    graph G { use M. M2 after M1. M1 branch M2. }

The words ``schema``, ``compose``, ``instance``, ``mapping``, ``graph``,
``constraint``, ``forall``, ``exists``, ``sep``, ``fed``, ``empty``, ``of``,
``use``, ``after``, ``branch`` and ``exact`` are reserved: none of them may
name a schema, composition, instance, mapping, graph or relation.

In a graph, ``M2 after M1.`` checks that M1's target is M2's source and uses
both mappings; Sch(G) forms the composite, so a graph is written as ``use`` lines.

Uppercase-initial identifiers inside rules are variables; values are integers
or single-quoted strings.  The reserved constants ``#A`` and ``#B`` are
display-only and cannot be written: ``#`` starts a comment, so in
``r(#A).`` the value and everything after it on the line are never read.
"""
from __future__ import annotations

import re
from bisect import bisect_right

from .core import DbcatError, Instance, Record, Relation
from .syntax import Builtin, Const, Egd, RelAtom, Rule, Sentence, Tgd, Var
# The schema layer (``SchemaTerm`` in annotations) is imported where a statement needs it: a rule needs none.


class ParseError(DbcatError):
    """A text that cannot be read, placed at *tok*, the token it stops at: its
    ``line`` and ``col`` are kept, and are 0 when no token is given."""

    def __init__(self, message: str, tok: Token | None = None):
        self.line, self.col = (tok.line, tok.col) if tok else (0, 0)
        super().__init__(f"line {self.line}, column {self.col}: {message}" if tok else message)


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
  | (?P<bad>.)
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
    """The tokens of *text* without whitespace and comments, then an ``eof``
    token.  Each is placed at the line and column of its first character,
    bisected from the offsets where lines start; a character that begins no
    token is a :class:`ParseError` at its place."""
    starts = [0, *(m.end() for m in re.finditer("\n", text))]

    def place(kind: str, value: str, pos: int) -> Token:
        line = bisect_right(starts, pos)
        return Token(kind, value, line, pos - starts[line - 1] + 1)

    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup not in ("ws", "comment"):
            tokens.append(place(m.lastgroup, m.group(), m.start()))
            if m.lastgroup == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", tokens[-1])
    tokens.append(place("eof", "", len(text)))
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

    def fail(self, message: str, cause: Exception | None = None):
        tok = self.peek()
        raise ParseError(f"{message} (found {tok.value!r})", tok) from cause

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            self.fail(f"expected {value or kind}")
        return self.next()

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def ident(self, what: str) -> Token:
        if not self.at("ident"):
            self.fail(f"expected {what}")
        return self.next()


class Workspace:
    """Everything one or more input files declare, fully cross-resolved, in
    dicts by name; ``composes`` holds schema terms and ``instances`` (schema
    or term name, instance) pairs."""

    def __init__(self):
        self.schemas, self.composes, self.instances, self.mappings, self.graphs = {}, {}, {}, {}, {}

    def __eq__(self, other):  # compositions in declaration order, the order they are written in
        return isinstance(other, Workspace) and vars(self) == vars(other) and [*self.composes] == [*other.composes]

    def term(self, name: str, tok: Token | None = None) -> SchemaTerm:
        """The schema term *name* refers to; an unknown name is a
        :class:`ParseError` at *tok*, the token that names it, when given."""
        from .schemas import SAtom
        if name in self.composes:
            return self.composes[name]
        if name in self.schemas:
            return SAtom(self.schemas[name])
        raise ParseError(f"unknown schema or composition {name!r}", tok)

    def lookup(self, kind: str, name: str, tok: Token | None = None):
        """The ``instance``, ``mapping`` or ``graph`` declared as *name*; an
        unknown name is a :class:`ParseError` at *tok*, when given."""
        pool = getattr(self, kind + "s")
        if name not in pool:
            raise ParseError(f"unknown {kind} {name!r}", tok)
        return pool[name]


def _build(p: _Parser, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a record built while a statement is parsed:
    its :class:`DbcatError` becomes a :class:`ParseError` at the current token."""
    try:
        return make(*args, **kwargs)
    except DbcatError as exc:
        p.fail(str(exc), exc)


def _term_ref(p: _Parser, ws: Workspace) -> tuple:
    """Read a schema or composition name: (the name, the term it names)."""
    tok = p.ident("schema name")
    return tok.value, ws.term(tok.value, tok)


def _check_unreserved(tok: Token):
    if tok.value in KEYWORDS:
        raise ParseError(f"{tok.value!r} is a reserved word", tok)


def _check_fresh(ws: Workspace, tok: Token):
    """A declared name is neither a reserved word nor declared before."""
    _check_unreserved(tok)
    for pool in (ws.schemas, ws.composes, ws.instances, ws.mappings, ws.graphs):
        if tok.value in pool:
            raise ParseError(f"duplicate name {tok.value!r}", tok)


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


def _parse_seq(p: _Parser, item) -> tuple:
    """One or more ``item``s with commas between them."""
    items = [item(p)]
    while p.at("punct", ","):
        p.next()
        items.append(item(p))
    return tuple(items)


def _parse_list(p: _Parser, item) -> tuple:
    """A :func:`_parse_seq` in parentheses, possibly empty."""
    p.expect("punct", "(")
    items = () if p.at("punct", ")") else _parse_seq(p, item)
    p.expect("punct", ")")
    return items


def _parse_term_arg(p: _Parser):
    tok = p.peek()
    if tok.kind == "ident":
        if not tok.value[0].isupper():
            p.fail(f"relation arguments are variables or values, not {tok.value!r}")
        p.next()
        return Var(tok.value)
    return Const(_parse_value(p))


def _parse_atom(p: _Parser):
    """One body item: a relation atom, ``X = t`` or ``X <= t``."""
    tok = p.peek()
    if tok.kind == "ident" and not tok.value[0].isupper():
        name = p.next().value
        return RelAtom(name, _parse_list(p, _parse_term_arg))
    left = _parse_term_arg(p)
    if not (p.at("punct", "=") or p.at("le")):
        p.fail("expected '=' or '<=' after a bare term")
    return Builtin(p.next().value, left, _parse_term_arg(p))


def _parse_var(p: _Parser) -> str:
    return p.ident("variable").value


def _parse_head_var(p: _Parser) -> Var:
    tok = p.peek()
    if tok.kind != "ident" or not tok.value[0].isupper():
        p.fail("head arguments must be variables")
    return Var(p.next().value)


def _parse_head(p: _Parser):
    name = p.ident("head name").value
    return name, _parse_list(p, _parse_head_var)


def _parse_rule(p: _Parser) -> Rule:
    name, vars_ = _parse_head(p)
    p.expect("define")
    return _build(p, Rule, name, vars_, _parse_seq(p, _parse_atom))


def parse_rule_text(text: str) -> Rule:
    """Parse a standalone rule such as ``q(X) :- r(X,Y), s(Y)``."""
    p = _Parser(text)
    r = _parse_rule(p)
    if p.at("punct", "."):
        p.next()
    p.expect("eof")
    return r


# -- constraints --------------------------------------------------------------


def _parse_constraint(p: _Parser):
    p.expect("ident", "forall")
    universal = _parse_seq(p, _parse_var)
    p.expect("punct", ":")
    if p.at("ident", "exists"):
        p.next()
        _parse_seq(p, _parse_var)  # left existentials are implicit; the list is cosmetic
        p.expect("punct", ":")
    left = _parse_seq(p, _parse_atom)
    p.expect("implies")
    right_exists = ()
    if p.at("ident", "exists"):
        p.next()
        right_exists = _parse_seq(p, _parse_var)
        p.expect("punct", ":")
    right = _parse_seq(p, _parse_atom)
    if (
        len(right) == 1
        and isinstance(right[0], Builtin)
        and right[0].op == "="
        and isinstance(right[0].left, Var)
        and isinstance(right[0].right, Var)
        and not right_exists
    ):
        return _build(p, Egd, left, (right[0].left.name, right[0].right.name))
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
    return _build(p, Tgd, universal, left, right, weakly_full=True)


# -- schema terms --------------------------------------------------------------


def _parse_schema_term(p: _Parser, ws: Workspace) -> SchemaTerm:
    from .schemas import EMPTY_SCHEMA, fed, sep

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


def _parse_block(p: _Parser, item):
    """``{``, then ``item()`` for each item and the ``.`` that ends it, up to
    ``}``; the statement reads ``}`` once its record is built, so an error in
    the record is placed at ``}``."""
    p.expect("punct", "{")
    while not p.at("punct", "}"):
        item()
        p.expect("punct", ".")


def _parse_schema(p: _Parser, ws: Workspace, name: str):
    from .schemas import Schema
    rels, constraints = [], []

    def item():
        rel = p.ident("relation name")
        if rel.value == "constraint" and not p.at("punct", "/"):
            constraints.append(_parse_constraint(p))
        else:
            _check_unreserved(rel)
            if rel.value[0].isupper():
                raise ParseError("relation names start lowercase (uppercase means a variable)", rel)
            p.expect("punct", "/")
            if p.at("int") and int(p.peek().value) < 1:
                p.fail("relation arity must be positive")
            rels.append((rel.value, int(p.expect("int").value)))

    _parse_block(p, item)
    ws.schemas[name] = _build(p, Schema, name, tuple(rels), Sentence(tuple(constraints)))
    p.expect("punct", "}")


def _parse_compose(p: _Parser, ws: Workspace, name: str):
    p.expect("punct", "=")
    ws.composes[name] = _parse_schema_term(p, ws)


def _parse_instance(p: _Parser, ws: Workspace, name: str):
    from .schemas import term_layout
    p.expect("ident", "of")
    term_name, term = _term_ref(p, ws)
    layout = term_layout(term)
    rels = layout.relsymbols()
    tuples: dict = {rel: set() for rel in rels}

    def item():
        rel_tok = p.ident("relation name")
        rel = rel_tok.value
        if rel not in rels:
            raise ParseError(f"relation {rel!r} is not part of {term_name}", rel_tok)
        row = _parse_list(p, _parse_value)
        if len(row) != rels[rel] and p.at("punct", "."):  # a missing '.' is reported first
            raise ParseError(f"{rel} expects {rels[rel]} values, got {len(row)}", rel_tok)
        tuples[rel].add(row)

    _parse_block(p, item)
    p.expect("punct", "}")
    relations = tuple(Relation(rel, rels[rel], frozenset(tuples[rel])) for rel in sorted(rels))
    partition = tuple((rel, layout.component_of(rel)) for rel in sorted(rels))
    ws.instances[name] = (term_name, Instance(relations, partition))


def _parse_mapping(p: _Parser, ws: Workspace, name: str):
    from .schemas import SchemaMapping, make_pair
    p.expect("punct", ":")
    src_name, source = _term_ref(p, ws)
    p.expect("arrow")
    tgt_name, target = _term_ref(p, ws)
    pairs = []
    exact = False

    def item():
        nonlocal exact
        if p.at("ident", "exact"):
            p.next()
            exact = True
        else:
            lhs = _parse_rule(p)
            p.expect("implies")
            save = p.pos
            rhs = RelAtom(*_parse_head(p))
            if p.at("define"):
                p.pos = save
                rhs = _parse_rule(p)
            pairs.append(_build(p, make_pair, lhs, rhs))

    _parse_block(p, item)
    ws.mappings[name] = _build(p, SchemaMapping, name, src_name, tgt_name, source, target, tuple(pairs), exact=exact)
    p.expect("punct", "}")


def _parse_graph(p: _Parser, ws: Workspace, name: str):
    from .schemas import branch, mapping_graph
    used: dict = {}
    branches: dict = {}  # a repeated branch is one edge, as a repeated use is

    def mapping_ref():
        tok = p.ident("mapping name")
        return used.setdefault(tok.value, ws.lookup("mapping", tok.value, tok))

    def item():
        if p.at("ident", "use"):
            p.next()
            mapping_ref()
            return
        edge = mapping_ref()
        if p.at("ident", "after"):
            while p.at("ident", "after"):
                p.next()
                first = mapping_ref()
                if first.target_name != edge.source_name:
                    p.fail("sequential composition endpoint mismatch")
                edge = first
        elif p.at("ident", "branch"):
            p.next()
            branches[_build(p, branch, edge, mapping_ref())] = None
        else:
            raise ParseError("expected 'after' or 'branch'", p.peek())

    _parse_block(p, item)
    edges = tuple(used.values()) + tuple(branches)
    nodes: dict = {}
    for m in edges:
        nodes[m.source_name] = m.source
        nodes[m.target_name] = m.target
    ws.graphs[name] = _build(p, mapping_graph, name, nodes, edges)
    p.expect("punct", "}")


#: Each statement keyword: the parser of the statement's body, and what its
#: declared name is called in an error.
_STATEMENTS = {
    "schema": (_parse_schema, "schema name"),
    "compose": (_parse_compose, "composition name"),
    "instance": (_parse_instance, "instance name"),
    "mapping": (_parse_mapping, "mapping name"),
    "graph": (_parse_graph, "graph name"),
}


def parse_workspace_text(text: str, ws: Workspace | None = None) -> Workspace:
    ws = ws or Workspace()
    p = _Parser(text)
    while not p.at("eof"):
        tok = p.next()
        if tok.value not in _STATEMENTS:
            raise ParseError(f"expected a declaration, found {tok.value!r}", tok)
        parse, what = _STATEMENTS[tok.value]
        name = p.ident(what)
        _check_fresh(ws, name)
        parse(p, ws, name.value)
    return ws


def parse_workspace(paths) -> Workspace:
    """Parse one or more files into a single cross-resolved workspace; a
    :class:`ParseError` names the file it is in."""
    ws = Workspace()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        try:
            parse_workspace_text(text, ws)
        except ParseError as exc:
            exc.args = (f"{path}: {exc}",)
            raise
    return ws

