"""SPJRU algebra terms and rule-based conjunctive queries over finite instances.

Both evaluate under set semantics: terms by structural recursion, joins by
hashing, a projection over a join by streaming the joined pairs.  A rule or
dependency (:mod:`dbcat.syntax`) keeps the :func:`plan` of each body it runs
as a cached property: an atom order and a kernel, one generated nest of loops
over instance hash indexes of partial keys, compiled once per record; a
partial key on one column is the bare value, and a key that binds every column
tests the relation's own tuples.  An EGD's kernel tests its pair itself.  Its source holds slot
numbers and tuple positions only; names and values reach it as arguments.
:func:`bind` runs it over an instance.  :func:`rule_to_spjru` compiles a rule
into an equivalent term.
"""
from __future__ import annotations

from collections import Counter
from functools import partial

from .core import Instance, Record, Relation, Value, column_names, index_tuples, key_getter, picker, value_key
from .syntax import Builtin, Const, CrossComponentQuery, QueryArityError, QueryError, RelAtom, Rule, TranslationError
from .syntax import UnknownRelation, Var


def _terms(a) -> tuple:
    """The terms of a relation atom or built-in, in order."""
    return a.args if isinstance(a, RelAtom) else (a.left, a.right)


def atom_constants(atoms) -> frozenset:
    """Every constant occurring in the given relation atoms and built-ins."""
    return frozenset(t.value for a in atoms for t in _terms(a) if isinstance(t, Const))


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
    return Relation._derived(name, arity, frozenset(tuples), column_names(arity))


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


def _seq(items) -> str:
    """Source of the items of a tuple or target list: slot ``i`` as ``si``, a name as it is."""
    return "".join(f"s{i}, " if i.__class__ is int else f"{i}, " for i in items)


def _kernel(source: str):
    """The kernel *source* defines, compiled: each record keeps its own plan, so no kernel is memoised."""
    scope = {"vk": value_key}
    exec(source, scope)
    return scope["k0"]


def plan(body, bound=(), out=(), unequal=()) -> tuple:
    """``(probes, constants, kernel)``: *body* compiled for rows of values of
    the variables named in *bound*, to stream the values of those named in
    *out* for every extension satisfying all atoms, possibly more than once;
    with the two names *unequal*, only extensions giving them distinct values.

    Relation atoms are ordered greedily, most bound positions (constants and
    bound variables) first.  Variables only built-ins mention come last, each
    probing the domain, the relation None.  Each probe is a (relation, key
    columns), the columns None when the key binds every column: its key is
    the row.  A partial key on one column is the bare value.  The kernel,
    ``kernel(indexes, constants, rows)``, is one nest of loops over the
    probes; an atom that binds nothing read later only tests its probe, and
    built-ins, repeats within one atom and the *unequal* pair are tested
    once bound.  Its source holds slot numbers and tuple positions only.
    """
    slot, pending, waiting = dict(zip(bound, range(len(bound)))), [], [("!=", unequal)] if unequal else []
    for a in body:  # a variable is keyed by its name, a constant by its value in a 1-tuple
        rel = isinstance(a, RelAtom)
        refs = [t.name if isinstance(t, Var) else (t.value,) for t in _terms(a)]
        for pos, r in enumerate(refs):
            if r.__class__ is tuple:
                slot.setdefault(r, len(slot))
            elif rel and r in refs[:pos]:  # a repeat: a slot of its own, equal to the first
                refs[pos] = object()
                waiting.append(("=", (r, refs[pos])))
        (pending if rel else waiting).append((a.name if rel else a.op, refs))
    values, known = tuple(r[0] for r in slot if r.__class__ is tuple), set(slot)
    # a variable is read after the step that binds it iff the body names it more than once
    uses = Counter(r for _, refs in pending + waiting for r in refs)

    def ready():
        found = [b for b in waiting if known.issuperset(b[1])]
        for b in found:
            waiting.remove(b)
        return found

    order = [(None, (), ready())]
    while pending:
        atom = max(pending, key=lambda a: sum(map(known.__contains__, a[1]))) if pending[1:] else pending[0]
        pending.remove(atom)
        known.update(atom[1])
        order.append((*atom, ready()))
    for name in sorted({r for _, refs in waiting for r in refs} - known) if waiting else ():
        known.add(name)  # ranges over the domain
        order.append((None, [name], ready()))

    probes, top, loops = [], 0, 0
    src = ["def k0(ix, c, rows):", f"    [{_seq(range(len(bound), len(slot)))}] = c"]

    def emit(text, width=None):  # a loop (*width*: the slots bound before it) nests; a test continues it
        nonlocal top, loops
        if width is not None and loops == 19:  # CPython nests 20 blocks: the rest in a function of its own
            emit(f"yield from k{len(src) + 1}(ix, c, [({_seq(range(width))})])")
            top, loops = len(src), 0
            src.append(f"def k{top}(ix, c, rows):")
            emit(f"for [{_seq(range(width))}] in rows:", width)
        src.append("    " * (loops + 1) + text)
        loops += width is not None

    def tup(slots):  # a tuple of slots: the row itself, in the first function, when it holds just those
        return "row" if top == 0 and list(slots) == [*range(len(bound))] else f"({_seq(slots)})"

    emit("for row in rows:", len(bound))
    emit(f"[{_seq(range(len(bound)))}] = row")
    for name, refs, checks in order:
        if refs or name:  # a nullary atom tests that its relation holds ()
            keys, targets = [pos for pos, r in enumerate(refs) if r in slot], ["_"] * len(refs)
            key_slots, width = [slot[refs[pos]] for pos in keys], len(slot)
            key = f"s{key_slots[0]}" if len(keys) == 1 < len(refs) else tup(key_slots)  # one column of several: the value
            for pos, r in enumerate(refs):
                if r not in slot and (uses[r] > 1 or r in out or name is None):
                    targets[pos] = slot[r] = len(slot)
            loop, k = targets.count("_") < len(refs), len(probes)
            probes.append((name, None if len(keys) == len(refs) else tuple(keys)))
            line = f"for [{_seq(targets)}] in x{k}({key}, ()):" if loop else f"if {key} not in x{k}: continue"
            emit(line, width if loop else None)
            src.insert(top + 1, f"    x{k} = ix[{k}]{'.get' * loop}")  # in the function that probes it
        for op, (a, b) in checks:
            test = {"=": "s{} != s{}", "<=": "vk(s{}) > vk(s{})", "!=": "s{} == s{}"}[op]
            emit(f"if {test.format(slot[a], slot[b])}: continue")
    emit(f"yield {tup([slot[v] for v in out])}")
    return tuple(probes), values, _kernel("\n".join(src))


def bind(p: tuple, inst: Instance, domain):
    """``run(rows)``: the kernel of the plan *p* over the indexes *inst*
    keeps, and over a relation's own tuples where a key binds every column:
    that probe is a semi-join.  It calls *domain()* only if a variable
    ranges over it."""
    probes, values, kernel = p
    dom = {(): [(v,) for v in domain()]} if (None, ()) in probes else None
    ix = (dom if n is None else inst.relation(n).tuples if c is None else inst.index(n, c) for n, c in probes)
    return partial(kernel, tuple(ix), values)


def _rule_domain(q: Rule, inst: Instance, comp) -> frozenset:
    """The queried component's active values plus the rule's own constants."""
    return atom_constants(q.body) | {v for r in inst.components()[comp] for t in r.tuples for v in t}


def eval_rule(q: Rule, inst: Instance) -> Relation:
    """Evaluate a conjunctive rule: all head images of satisfying valuations.

    Variables that only built-ins mention range over the queried component's
    active values plus the rule's own constants.  A copy rule answers with
    its relation's own tuple set, without a plan."""
    comps = atom_components(q.body, inst)
    if len(comps) > 1:
        raise CrossComponentQuery(f"rule body spans separated components {sorted(comps)}")
    if q._copies:
        r = inst.relation(q._copies)
        return Relation._derived(q.head_name, r.arity, r.tuples, column_names(r.arity))
    run, arity = bind(q._plan, inst, partial(_rule_domain, q, inst, comps.pop())), len(q.head_vars)
    return Relation._derived(q.head_name, arity, frozenset(run([()])), column_names(arity))


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
