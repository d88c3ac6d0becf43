"""SPJRU algebra terms over finite instances, under set semantics: terms by
structural recursion, joins by hashing, a projection over a join by streaming
the joined pairs.  :func:`rule_to_spjru` compiles a rule into an equivalent
term; rules themselves run on the engine of :mod:`dbcat.rules`, bound here too.
"""
from __future__ import annotations

from .core import Instance, Record, Relation, Value, index_tuples, key_getter, picker
from .rules import atom_components, atom_constants, bind, eval_rule, plan  # re-exported
from .syntax import Builtin, Const, CrossComponentQuery, QueryArityError, QueryError, RelAtom, Rule, TranslationError
from .syntax import UnknownRelation, Var


def rule(head_name: str, head_vars, body) -> Rule:
    """Convenience constructor accepting variable names as bare strings."""

    def term(x):
        if isinstance(x, (Var, Const)):
            return x
        if isinstance(x, str) and x[:1].isupper():
            return Var(x)
        return Const(x)

    hv = tuple(Var(v) if isinstance(v, str) else v for v in head_vars)
    atoms = []
    for a in body:
        if isinstance(a, (RelAtom, Builtin)):
            atoms.append(a)
        elif a[0] in ("=", "<="):
            atoms.append(Builtin(a[0], term(a[1]), term(a[2])))
        else:
            atoms.append(RelAtom(a[0], tuple(term(x) for x in a[1:])))
    return Rule(head_name, hv, tuple(atoms))


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


def _eval(t, inst: Instance):
    """Returns (tuples, arity, component or None)."""
    if isinstance(t, BaseRel):
        if not inst.has(t.name):
            raise UnknownRelation(f"unknown relation {t.name!r}")
        r = inst.relation(t.name)
        return r.tuples, r.arity, inst.component_of(t.name)
    if isinstance(t, Select):
        tuples, arity, comp = _eval(t.child, inst)
        for c in t.conds:
            if isinstance(c, ColEq):
                if not (0 <= c.left < arity and 0 <= c.right < arity):
                    raise QueryArityError("selection column out of range")
                tuples = {x for x in tuples if x[c.left] == x[c.right]}
            else:
                if not 0 <= c.col < arity:
                    raise QueryArityError("selection column out of range")
                tuples = {x for x in tuples if x[c.col] == c.value}
        return tuples, arity, comp
    if isinstance(t, Project):  # over a join, the joined pairs stream into the projection
        tuples, arity, comp = (_join if isinstance(t.child, Join) else _eval)(t.child, inst)
        if any(not 0 <= c < arity for c in t.cols):
            raise QueryArityError("projection column out of range")
        return set(map(picker(t.cols), tuples)), len(t.cols), comp
    if isinstance(t, Rename):
        tuples, arity, comp = _eval(t.child, inst)
        if sorted(t.perm) != list(range(arity)):
            raise QueryArityError("rename must be a permutation of the columns")
        return set(map(picker(t.perm), tuples)), arity, comp
    if isinstance(t, Join):
        pairs, arity, comp = _join(t, inst)
        return set(pairs), arity, comp
    if isinstance(t, Union):
        lt, la, lc = _eval(t.left, inst)
        rt, ra, rc = _eval(t.right, inst)
        if la != ra:
            raise QueryArityError("union of different arities")
        _check_same_component(lc, rc)
        return lt | rt, la, lc if lc is not None else rc
    if isinstance(t, EmptyRel):
        return set(), 0, None
    raise QueryError(f"not a query term: {t!r}")


def _join(t: Join, inst: Instance):
    """Like :func:`_eval`, but the joined tuples come as a stream: a hash join
    on the pairs, by the instance's index of a base relation; with no pairs,
    a product."""
    lt, la, lc = _eval(t.left, inst)
    rt, ra, rc = _eval(t.right, inst)
    _check_same_component(lc, rc)
    if any(not (0 <= i < la and 0 <= j < ra) for i, j in t.pairs):
        raise QueryArityError("join column out of range")
    cols = tuple(j for _, j in t.pairs)
    get = (inst.index(t.right.name, cols) if isinstance(t.right, BaseRel) else index_tuples(rt, cols)).get
    key = key_getter([i for i, _ in t.pairs])
    return (x + y for x in lt for y in get(key(x), ())), la + ra, lc if lc is not None else rc


def _check_same_component(lc, rc):
    if lc is not None and rc is not None and lc != rc:
        raise CrossComponentQuery(
            f"query combines relations from separated components {lc} and {rc}"
        )


def eval_spjru(t, inst: Instance, name: str = "view") -> Relation:
    """Evaluate an algebra term over an instance under set semantics."""
    tuples, arity, _ = _eval(t, inst)
    return Relation._derived(name, arity, frozenset(tuples))


# ---------------------------------------------------------------------------
# rule -> algebra translation


def rule_to_spjru(q: Rule):
    """Compile a rule into an algebra term computing the same extension.

    Relation atoms become a left-deep join.  An equality between columns of
    two atoms (a shared variable, or an ``=`` built-in) becomes a pair of the
    join that adds the later atom; embedded constants, repeats within one
    atom and the remaining ``=`` built-ins become selections; the head becomes
    a projection.  A built-in equating two distinct constants joins the body
    with :class:`EmptyRel`, which empties it at any width.  Rules using ``<=``
    have no counterpart in the equality-only selection language and are
    rejected.
    """
    rel_atoms = [a for a in q.body if isinstance(a, RelAtom)]
    builtins = [a for a in q.body if isinstance(a, Builtin)]
    if any(b.op == "<=" for b in builtins):
        raise TranslationError("<= built-ins cannot be translated to the algebra")

    offsets, atom_of = [], []  # atom_of: column -> index of the atom holding it
    for k, atom in enumerate(rel_atoms):
        offsets.append(len(atom_of))
        atom_of.extend(k for _ in atom.args)

    first_col: dict = {}
    conds, equal = [], []
    for atom, off in zip(rel_atoms, offsets):
        for pos, arg in enumerate(atom.args):
            col = off + pos
            if isinstance(arg, Const):
                conds.append(ConstEq(col, arg.value))
            elif arg.name in first_col:
                equal.append((first_col[arg.name], col))
            else:
                first_col[arg.name] = col

    contradiction = False
    for b in builtins:
        for v in b.variables():
            if v.name not in first_col:
                raise TranslationError(
                    f"variable {v.name} occurs only in built-ins; not translatable"
                )
        left, right = (t if isinstance(t, Const) else first_col[t.name] for t in (b.left, b.right))
        if isinstance(left, Const) and isinstance(right, Const):
            contradiction = contradiction or left.value != right.value
        elif isinstance(left, Const) or isinstance(right, Const):
            col, const = (right, left) if isinstance(left, Const) else (left, right)
            conds.append(ConstEq(col, const.value))
        else:
            equal.append((min(left, right), max(left, right)))

    pairs = [[] for _ in rel_atoms]
    for a, b in equal:
        k = atom_of[b]
        if a < offsets[k]:
            pairs[k].append((a, b - offsets[k]))
        else:
            conds.append(ColEq(a, b))
    term = BaseRel(rel_atoms[0].name)
    for atom, atom_pairs in zip(rel_atoms[1:], pairs[1:]):
        term = Join(term, BaseRel(atom.name), tuple(atom_pairs))
    if contradiction:
        term = Join(term, EmptyRel(), ())
    if conds:
        term = Select(term, tuple(conds))
    return Project(term, tuple(first_col[v.name] for v in q.head_vars))
