"""SPJRU algebra terms over finite instances, under set semantics.  A term is
a union of select-project-join blocks, each a conjunctive body that the rule
engine of :mod:`dbcat.rules` plans and runs, as it runs rules and
dependencies.  :func:`rule_to_spjru` compiles a rule into its SPC normal form."""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .rules import bind, eval_rule, plan  # eval_rule: perfbench/tracing.py wraps it here too
from .syntax import Builtin, Const, CrossComponentQuery, QueryArityError, QueryError, RelAtom, Rule, TranslationError
from .syntax import UnknownRelation, Var
from .values import MEMO_ENTRIES, Instance, Record, Relation, Value


def rule(head_name: str, head_vars, body) -> Rule:
    """Convenience constructor accepting variable names as bare strings."""

    def term(x):
        return x if isinstance(x, (Var, Const)) else Var(x) if isinstance(x, str) and x[:1].isupper() else Const(x)

    atoms = [
        a if isinstance(a, (RelAtom, Builtin)) else Builtin(a[0], term(a[1]), term(a[2])) if a[0] in ("=", "<=")
        else RelAtom(a[0], tuple(map(term, a[1:]))) for a in body
    ]
    return Rule(head_name, tuple(Var(v) if isinstance(v, str) else v for v in head_vars), tuple(atoms))


# ---------------------------------------------------------------------------
# algebra terms


class ColEq(Record):
    left: int
    right: int


class ConstEq(Record):
    col: int
    value: Value


class BaseRel(Record):
    name: str


class Select(Record):
    child: "QueryTerm"
    conds: tuple


class Project(Record):
    child: "QueryTerm"
    cols: tuple


class Join(Record):
    left: "QueryTerm"
    right: "QueryTerm"
    pairs: tuple = ()


class Rename(Record):
    child: "QueryTerm"
    perm: tuple


class Union(Record):
    left: "QueryTerm"
    right: "QueryTerm"


class EmptyRel(Record):
    """The nullary relation with no tuples: joined to any term, it empties
    that term at its own width."""


QueryTerm = BaseRel | Select | Project | Join | Rename | Union | EmptyRel


def _walk(t, inst: Instance):
    """``(blocks, arity, component or None)``: *t*, checked against *inst*, as
    the union of its SPJR blocks.  A block ``(atoms, head, equal)`` holds its
    relation atoms ``(name, arity)``, their columns numbered on from 0; the
    column its head reads at each place; and ``(column, column or Const)`` pairs that agree."""
    kind = t.__class__
    if kind is BaseRel:
        if not inst.has(t.name):
            raise UnknownRelation(f"unknown relation {t.name!r}")
        arity = inst.relation(t.name).arity
        return [(((t.name, arity),), tuple(range(arity)), ())], arity, inst.component_of(t.name)
    if kind is Join or kind is Union:
        (left, la, lc), (right, ra, rc) = _walk(t.left, inst), _walk(t.right, inst)
        if kind is Union and la != ra:
            raise QueryArityError("union of different arities")
        if lc is not None and rc is not None and lc != rc:
            raise CrossComponentQuery(f"query combines relations from separated components {lc} and {rc}")
        comp = rc if lc is None else lc
        if kind is Union:
            return left + right, la, comp
        for i, j in t.pairs:
            if not (0 <= i < la and 0 <= j < ra):
                raise QueryArityError("join column out of range")
        blocks = []
        for atoms, head, equal in left:  # each right block's columns numbered on after the left block's
            shift = sum(arity for _, arity in atoms).__add__
            for r_atoms, r_head, r_equal in right:
                r_head = tuple(map(shift, r_head))
                r_equal = [(shift(a), b if b.__class__ is Const else shift(b)) for a, b in r_equal]
                pairs = [(head[i], r_head[j]) for i, j in t.pairs]
                blocks.append((atoms + r_atoms, head + r_head, (*equal, *r_equal, *pairs)))
        return blocks, la + ra, comp
    if kind is EmptyRel:
        return [], 0, None
    if kind is not Select and kind is not Project and kind is not Rename:
        raise QueryError(f"not a query term: {t!r}")
    blocks, arity, comp = _walk(t.child, inst)
    if kind is Select:
        for c in t.conds:
            if not all(0 <= i < arity for i in ((c.left, c.right) if c.__class__ is ColEq else (c.col,))):
                raise QueryArityError("selection column out of range")
        eq = [(c.left, c.right) if c.__class__ is ColEq else (c.col, Const(c.value)) for c in t.conds]
        return [(atoms, head, equal + tuple([(head[a], b if b.__class__ is Const else head[b]) for a, b in eq]))
                for atoms, head, equal in blocks], arity, comp
    cols = t.cols if kind is Project else t.perm
    if kind is Project and cols and not (0 <= min(cols) and max(cols) < arity):
        raise QueryArityError("projection column out of range")
    if kind is Rename and sorted(cols) != list(range(arity)):
        raise QueryArityError("rename must be a permutation of the columns")
    return [(atoms, tuple(map(head.__getitem__, cols)), equal) for atoms, head, equal in blocks], len(cols), comp


@lru_cache(maxsize=MEMO_ENTRIES)
def _block_plan(block: tuple):
    """The :func:`plan` of a block of :func:`_walk`, its atoms over a variable
    per class of agreeing columns, a class's constant in its place; or None
    when two distinct constants meet."""
    atoms, head, equal = block
    cls, value = list(range(sum(arity for _, arity in atoms))), {}  # column -> its class, named by one of its columns
    for a, b in equal:
        if b.__class__ is int:
            cls = [cls[a] if c == cls[b] else c for c in cls]
    for a, b in equal:
        if b.__class__ is Const and value.setdefault(cls[a], b) != b:
            return None
    terms = [value.get(k) or Var(f"c{k}") for k in cls]
    ends = [0, *accumulate(arity for _, arity in atoms)]
    body = [RelAtom(name, tuple(terms[i:j])) for (name, _), i, j in zip(atoms, ends, ends[1:])]
    return plan(body, (), [(t.value,) if t.__class__ is Const else t.name for t in map(terms.__getitem__, head)])


def eval_spjru(t, inst: Instance) -> Relation:
    """Evaluate an algebra term over an instance under set semantics: the
    union of its blocks, each run on the kernel of its :func:`plan`."""
    blocks, arity, _ = _walk(t, inst)
    parts = [frozenset(bind(p, inst, tuple)([()])) for p in map(_block_plan, blocks) if p is not None]
    return Relation._derived("view", arity, parts[0] if len(parts) == 1 else frozenset().union(*parts))


# ---------------------------------------------------------------------------
# rule -> algebra translation


def rule_to_spjru(q: Rule):
    """Compile a rule into an algebra term computing the same extension: its
    SPC normal form π σ (R₁ × … × Rₙ).

    Relation atoms become a left-deep chain of joins with no pairs; every
    shared variable, repeat within one atom, embedded constant and ``=``
    built-in becomes one equality of a single selection; the head becomes a
    projection.  A built-in equating two distinct constants joins the body
    with :class:`EmptyRel`, which empties it at any width.  Rules using ``<=``
    have no counterpart in the equality-only selection language and are
    rejected.  The rule keeps its term, so it is translated once.
    """
    return q._spjru


def _translate(q: Rule):
    """The term :func:`rule_to_spjru` gives *q*, built afresh."""
    rel_atoms = [a for a in q.body if isinstance(a, RelAtom)]
    builtins = [a for a in q.body if isinstance(a, Builtin)]
    if any(b.op == "<=" for b in builtins):
        raise TranslationError("<= built-ins cannot be translated to the algebra")
    first_col, conds = {}, []
    for col, arg in enumerate(arg for atom in rel_atoms for arg in atom.args):
        if isinstance(arg, Const):
            conds.append(ConstEq(col, arg.value))
        elif first_col.setdefault(arg.name, col) != col:
            conds.append(ColEq(first_col[arg.name], col))
    contradiction = False
    for b in builtins:
        for v in b.variables():
            if v.name not in first_col:
                raise TranslationError(f"variable {v.name} occurs only in built-ins; not translatable")
        left, right = (t if isinstance(t, Const) else first_col[t.name] for t in (b.left, b.right))
        if isinstance(left, Const) and isinstance(right, Const):
            contradiction = contradiction or left.value != right.value
        elif isinstance(left, Const) or isinstance(right, Const):
            col, const = (right, left) if isinstance(left, Const) else (left, right)
            conds.append(ConstEq(col, const.value))
        else:
            conds.append(ColEq(min(left, right), max(left, right)))
    term = BaseRel(rel_atoms[0].name)
    for atom in rel_atoms[1:]:
        term = Join(term, BaseRel(atom.name))
    if contradiction:
        term = Join(term, EmptyRel())
    if conds:
        term = Select(term, tuple(conds))
    return Project(term, tuple(first_col[v.name] for v in q.head_vars))
