"""The rule engine: conjunctive rules and dependency bodies over finite
instances, under set semantics.

A rule or dependency (:mod:`dbcat.syntax`) keeps the :func:`plan` of each body
it runs as a cached property: an atom order and a kernel, one generated nest
of loops over instance hash indexes of partial keys, compiled once per source;
a partial key on one column is the bare value, and a key that binds every
column tests the relation's own tuples.  An EGD's kernel tests its pair itself.
Its source holds slot numbers and tuple positions only; names and values reach
it as arguments.  :func:`bind` runs it over an instance.  The SPJRU algebra
of :mod:`dbcat.queries` runs each of its blocks on such a plan too.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial

from .core import value_key
from .syntax import Const, CrossComponentQuery, QueryArityError, RelAtom, Rule, UnknownRelation, Var
from .values import MEMO_ENTRIES, Instance, Relation


def _terms(a) -> tuple:
    """The terms of a relation atom or built-in, in order."""
    return a.args if isinstance(a, RelAtom) else (a.left, a.right)


def atom_constants(atoms) -> frozenset:
    """Every constant occurring in the given relation atoms and built-ins."""
    return frozenset(t.value for a in atoms for t in _terms(a) if isinstance(t, Const))


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


@lru_cache(maxsize=MEMO_ENTRIES)
def _kernel(source: str):
    """The kernel *source* defines, compiled once per source: plans of one body shape share it."""
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
        return Relation._derived(q.head_name, r.arity, r.tuples)
    run, arity = bind(q._plan, inst, partial(_rule_domain, q, inst, comps.pop())), len(q.head_vars)
    return Relation._derived(q.head_name, arity, frozenset(run([()])))
