"""SPJRU algebra terms and rule-based conjunctive queries over finite instances.

Both query styles evaluate under plain set semantics.  Terms are evaluated by
structural recursion over the algebra, joins by hashing; rules are evaluated
by probing the instance's hash indexes one body atom at a time.  The two
routes are tied together by :func:`rule_to_spjru`, which compiles a rule into
an equivalent term.
"""
from __future__ import annotations

from functools import partial

from .core import DbcatError, Instance, Record, Relation, Value, value_key


class QueryError(DbcatError):
    pass


class UnknownRelation(QueryError):
    pass


class QueryArityError(QueryError):
    pass


class CrossComponentQuery(QueryError):
    """A query touched relations in distinct components of a separated instance."""


class TranslationError(QueryError):
    pass


# ---------------------------------------------------------------------------
# rule syntax


class Var(Record):
    name: str

    def __repr__(self):
        return self.name


class Const(Record):
    value: Value

    def __repr__(self):
        return repr(self.value)


RuleTerm = Var | Const


class RelAtom(Record):
    name: str
    args: tuple

    def variables(self) -> tuple:
        return tuple(a for a in self.args if isinstance(a, Var))


class Builtin(Record):
    """Built-in predicate: ``=`` or ``<=`` over the total value order."""

    op: str
    left: RuleTerm
    right: RuleTerm

    def __post_init__(self):
        if self.op not in ("=", "<="):
            raise QueryError(f"unsupported built-in {self.op!r}")

    def variables(self) -> tuple:
        return tuple(a for a in (self.left, self.right) if isinstance(a, Var))


Atom = RelAtom | Builtin


def atom_constants(atoms) -> frozenset:
    """Every constant occurring in the given relation atoms and built-ins."""
    out = set()
    for a in atoms:
        if isinstance(a, RelAtom):
            out.update(t.value for t in a.args if isinstance(t, Const))
        else:
            out.update(t.value for t in (a.left, a.right) if isinstance(t, Const))
    return frozenset(out)


class Rule(Record):
    """Conjunctive query ``head(vars) <- atom, atom, ...``."""

    head_name: str
    head_vars: tuple
    body: tuple

    def __post_init__(self):
        if not any(isinstance(a, RelAtom) for a in self.body):
            raise QueryError("rule body needs at least one relation atom")
        body_vars = {v.name for a in self.body for v in a.variables()}
        for v in self.head_vars:
            if not isinstance(v, Var):
                raise QueryError("head arguments must be variables")
            if v.name not in body_vars:
                raise QueryError(f"head variable {v.name} does not occur in the body")

    def relation_names(self) -> frozenset:
        return frozenset(a.name for a in self.body if isinstance(a, RelAtom))

    def constants(self) -> frozenset:
        return atom_constants(self.body)

    def rename_relations(self, mapping: dict) -> "Rule":
        body = tuple(
            RelAtom(mapping.get(a.name, a.name), a.args) if isinstance(a, RelAtom) else a
            for a in self.body
        )
        return Rule(self.head_name, self.head_vars, body)


def copy_rule(name: str, source: str, arity: int) -> Rule:
    """``q_<name>(X0..Xk) :- source(X0..Xk)``: copies one relation whole."""
    hv = tuple(Var(f"X{i}") for i in range(arity))
    return Rule(f"q_{name}", hv, (RelAtom(source, hv),))


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


Condition = ColEq | ConstEq


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
    if isinstance(t, Project):
        tuples, arity, comp = _eval(t.child, inst)
        if any(not 0 <= c < arity for c in t.cols):
            raise QueryArityError("projection column out of range")
        return {tuple(x[c] for c in t.cols) for x in tuples}, len(t.cols), comp
    if isinstance(t, Rename):
        tuples, arity, comp = _eval(t.child, inst)
        if sorted(t.perm) != list(range(arity)):
            raise QueryArityError("rename must be a permutation of the columns")
        return {tuple(x[c] for c in t.perm) for x in tuples}, arity, comp
    if isinstance(t, Join):
        lt, la, lc = _eval(t.left, inst)
        rt, ra, rc = _eval(t.right, inst)
        _check_same_component(lc, rc)
        if any(not (0 <= i < la and 0 <= j < ra) for i, j in t.pairs):
            raise QueryArityError("join column out of range")
        # hash join on the pairs; with no pairs every key is () and it is a product
        index: dict = {}
        for y in rt:
            index.setdefault(tuple(y[j] for _, j in t.pairs), []).append(y)
        out = {x + y for x in lt for y in index.get(tuple(x[i] for i, _ in t.pairs), ())}
        return out, la + ra, lc if lc is not None else rc
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


def _check_same_component(lc, rc):
    if lc is not None and rc is not None and lc != rc:
        raise CrossComponentQuery(
            f"query combines relations from separated components {lc} and {rc}"
        )


def eval_spjru(t, inst: Instance, name: str = "view") -> Relation:
    """Evaluate an algebra term over an instance under set semantics."""
    tuples, arity, _ = _eval(t, inst)
    return Relation(name, arity, frozenset(tuples))


# ---------------------------------------------------------------------------
# rule evaluation


def _relation_atoms(body):
    return [a for a in body if isinstance(a, RelAtom)]


def atom_components(atoms, inst: Instance) -> set:
    """Components of the relations that *atoms* query, each checked to exist
    in *inst* at the atom's arity."""
    comps = set()
    for a in _relation_atoms(atoms):
        if not inst.has(a.name):
            raise UnknownRelation(f"unknown relation {a.name!r}")
        if inst.relation(a.name).arity != len(a.args):
            raise QueryArityError(f"atom {a.name} has wrong arity")
        comps.add(inst.component_of(a.name))
    return comps


def _holds(b: Builtin, env: dict) -> bool:
    left = env[b.left.name] if isinstance(b.left, Var) else b.left.value
    right = env[b.right.name] if isinstance(b.right, Var) else b.right.value
    if b.op == "=":
        return left == right
    return value_key(left) <= value_key(right)


def matcher(body, inst: Instance, domain, bound=()):
    """Compile *body* against *inst* for environments that bind *bound*.

    Returns ``match(env)``, which yields every extension of *env* to the body
    variables that satisfies all atoms.  The relation atoms are ordered
    greedily, the one with the most bound positions (constants and bound
    variables) first; the order depends only on which variables are bound,
    so it is fixed here together with the built-ins each step makes
    checkable.  Each atom is matched by one probe of the instance's hash
    index on its bound positions.  Variables that only built-ins mention
    come last, each ranging over the values *domain()* returns; it is called
    only when there is such a variable.
    """
    bound = set(bound)
    waiting = [a for a in body if isinstance(a, Builtin)]

    def ready():
        out = [b for b in waiting if all(v.name in bound for v in b.variables())]
        for b in out:
            waiting.remove(b)
        return out

    first, steps, pending = ready(), [], _relation_atoms(body)
    while pending:
        atom = max(
            pending, key=lambda a: sum(isinstance(t, Const) or t.name in bound for t in a.args)
        )
        pending.remove(atom)
        cols, keys, binds, repeats = [], [], {}, []
        for pos, arg in enumerate(atom.args):
            if isinstance(arg, Const) or arg.name in bound:
                cols.append(pos)
                keys.append(arg)
            elif arg.name in binds:
                repeats.append((binds[arg.name], pos))
            else:
                binds[arg.name] = pos
        bound.update(binds)
        index = inst.index(atom.name, tuple(cols))
        steps.append((index, keys, tuple(binds.items()), repeats, ready()))
    free = sorted({v.name for b in waiting for v in b.variables()} - bound)
    values = {(): [(v,) for v in sorted(domain(), key=value_key)]} if free else {}
    for name in free:  # matched like a unary atom over the domain
        bound.add(name)
        steps.append((values, (), ((name, 0),), (), ready()))

    def extend(i, env):
        if i == len(steps):
            yield env  # a fresh dict on every branch
            return
        index, keys, binds, repeats, checks = steps[i]
        probe = tuple(env[k.name] if isinstance(k, Var) else k.value for k in keys)
        for t in index.get(probe, ()):
            if repeats and any(t[p] != t[q] for p, q in repeats):
                continue
            env2 = dict(env)
            for v, pos in binds:
                env2[v] = t[pos]
            if not checks or all(_holds(b, env2) for b in checks):
                yield from extend(i + 1, env2)

    def match(env):
        if all(_holds(b, env) for b in first):
            yield from extend(0, dict(env))

    return match


def match_atoms(body, inst: Instance, domain, env: dict | None = None):
    """Every assignment extending *env* that satisfies *body*; see :func:`matcher`."""
    env = env or {}
    return matcher(body, inst, domain, env)(env)


def _rule_domain(q: Rule, inst: Instance, comp) -> frozenset:
    """The queried component's active values plus the rule's own constants."""
    return q.constants() | {v for r in inst.components()[comp] for t in r.tuples for v in t}


def eval_rule(q: Rule, inst: Instance) -> Relation:
    """Evaluate a conjunctive rule: all head images of satisfying valuations.

    Variables that only built-ins mention range over the queried component's
    active values plus the rule's own constants."""
    comps = atom_components(q.body, inst)
    if len(comps) > 1:
        raise CrossComponentQuery(f"rule body spans separated components {sorted(comps)}")
    domain = partial(_rule_domain, q, inst, comps.pop())
    out = {tuple(env[v.name] for v in q.head_vars) for env in match_atoms(q.body, inst, domain)}
    return Relation(q.head_name, len(q.head_vars), frozenset(out))


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
    rel_atoms = _relation_atoms(q.body)
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
