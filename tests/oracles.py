"""Independent reference implementations used to derive expected test values.

Everything here is deliberately written differently from the package code:
rule evaluation enumerates full variable-assignment products instead of
scanning relations, and view enumeration recurses over terms by depth
instead of growing level sets.  Generators are seeded and deterministic.
"""
from __future__ import annotations

import functools
import itertools
import random
import re
from collections import Counter

from dbcat.core import ext_key, format_value, make_instance, tuple_key, value_key
from dbcat.queries import (
    BaseRel,
    Builtin,
    ColEq,
    Const,
    ConstEq,
    CrossComponentQuery,
    EmptyRel,
    Join,
    Project,
    QueryArityError,
    QueryError,
    RelAtom,
    Rename,
    Rule,
    Select,
    Union,
    UnknownRelation,
    Var,
)
from dbcat.dsl import _TOKEN_RE, ParseError, Token
from dbcat.values import SENTINEL_A, SENTINEL_B, Instance


# ---------------------------------------------------------------------------
# token places

# The reader's token grammar without its catch-all: a character that begins
# no token is where ``match`` finds nothing.
_NO_CATCH_ALL = re.compile(_TOKEN_RE.pattern.replace("(?P<bad>.)", "(?!)"), re.VERBOSE)
assert _NO_CATCH_ALL.pattern != _TOKEN_RE.pattern


def token_places(text: str) -> list:
    """``(kind, value, line, col)`` of each token of *text*, then of ``eof``,
    placed by stepping a line and column over the text match by match,
    counting the newlines each match holds; a character that begins no token
    is a :class:`ParseError` at its place."""
    places = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _NO_CATCH_ALL.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", Token("bad", text[pos], line, col))
        kind, value = m.lastgroup, m.group()
        if kind not in ("ws", "comment"):
            places.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    places.append(("eof", "", line, col))
    return places


# ---------------------------------------------------------------------------
# brute-force valuation semantics


def _all_variables(atoms):
    out = []
    for a in atoms:
        for v in a.variables():
            if v.name not in out:
                out.append(v.name)
    return out


def _atom_holds(atom, env, inst: Instance) -> bool:
    if isinstance(atom, RelAtom):
        values = tuple(
            env[t.name] if isinstance(t, Var) else t.value for t in atom.args
        )
        return values in inst.relation(atom.name).tuples
    left = env[atom.left.name] if isinstance(atom.left, Var) else atom.left.value
    right = env[atom.right.name] if isinstance(atom.right, Var) else atom.right.value
    if atom.op == "=":
        return left == right
    return value_key(left) <= value_key(right)


def _rule_constants(atoms):
    out = set()
    for a in atoms:
        if isinstance(a, RelAtom):
            out.update(t.value for t in a.args if isinstance(t, Const))
        else:
            out.update(t.value for t in (a.left, a.right) if isinstance(t, Const))
    return out


def brute_force_rule(q: Rule, inst: Instance) -> frozenset:
    """Evaluate a rule by trying every assignment of every variable."""
    domain = sorted(
        {v for r in inst.relations for t in r.tuples for v in t}
        | _rule_constants(q.body),
        key=value_key,
    )
    variables = _all_variables(q.body)
    out = set()
    for combo in itertools.product(domain, repeat=len(variables)):
        env = dict(zip(variables, combo))
        if all(_atom_holds(a, env, inst) for a in q.body):
            out.add(tuple(env[v.name] for v in q.head_vars))
    return frozenset(out)


def _spjru(t, inst: Instance):
    """(tuples, arity, component or None) of an algebra term, operator by
    operator, each over explicit nested loops; every check raises the error
    and message ``eval_spjru`` gives, at the same point of the walk."""
    if isinstance(t, EmptyRel):
        return set(), 0, None
    if isinstance(t, BaseRel):
        if t.name not in inst.names:
            raise UnknownRelation(f"unknown relation {t.name!r}")
        return set(inst.relation(t.name).tuples), inst.relation(t.name).arity, inst.component_of(t.name)
    if isinstance(t, (Join, Union)):
        left, la, lc = _spjru(t.left, inst)
        right, ra, rc = _spjru(t.right, inst)
        if isinstance(t, Union) and la != ra:
            raise QueryArityError("union of different arities")
        if lc is not None and rc is not None and lc != rc:
            raise CrossComponentQuery(f"query combines relations from separated components {lc} and {rc}")
        comp = lc if lc is not None else rc
        if isinstance(t, Union):
            return left | right, la, comp
        for i, j in t.pairs:
            if not (0 <= i < la and 0 <= j < ra):
                raise QueryArityError("join column out of range")
        out = set()
        for x in left:
            for y in right:
                if all(x[i] == y[j] for i, j in t.pairs):
                    out.add(x + y)
        return out, la + ra, comp
    if not isinstance(t, (Select, Project, Rename)):
        raise QueryError(f"not a query term: {t!r}")
    rows, arity, comp = _spjru(t.child, inst)
    if isinstance(t, Select):
        for c in t.conds:
            cols = (c.left, c.right) if isinstance(c, ColEq) else (c.col,)
            if not all(0 <= i < arity for i in cols):
                raise QueryArityError("selection column out of range")
            kept = set()
            for x in rows:
                if (x[c.left] == x[c.right]) if isinstance(c, ColEq) else (x[c.col] == c.value):
                    kept.add(x)
            rows = kept
        return rows, arity, comp
    if isinstance(t, Project):
        if not all(0 <= i < arity for i in t.cols):
            raise QueryArityError("projection column out of range")
        return {tuple(x[i] for i in t.cols) for x in rows}, len(t.cols), comp
    if sorted(t.perm) != list(range(arity)):
        raise QueryArityError("rename must be a permutation of the columns")
    return {tuple(x[i] for i in t.perm) for x in rows}, arity, comp


def brute_force_spjru(t, inst: Instance) -> tuple:
    """``(tuples, arity)`` of the algebra term *t* over *inst* under set
    semantics, evaluated by structural recursion; a join tries every pair."""
    rows, arity, _ = _spjru(t, inst)
    return frozenset(rows), arity


def _unwitnessed(universal, left, right, inst: Instance):
    """Each universal tuple of a satisfying left assignment that no right
    assignment witnesses, once per such assignment."""
    left_domain = sorted(
        {v for r in inst.relations for t in r.tuples for v in t}
        | _rule_constants(left),
        key=value_key,
    )
    right_domain = sorted(
        set(left_domain) | _rule_constants(right) | {SENTINEL_A, SENTINEL_B},
        key=value_key,
    )
    left_vars = _all_variables(left)
    right_vars = [v for v in _all_variables(right) if v not in universal]
    for combo in itertools.product(left_domain, repeat=len(left_vars)):
        env = dict(zip(left_vars, combo))
        if not all(_atom_holds(a, env, inst) for a in left):
            continue
        fixed = {u: env[u] for u in universal}
        witnessed = False
        for wcombo in itertools.product(right_domain, repeat=len(right_vars)):
            wenv = dict(fixed)
            wenv.update(zip(right_vars, wcombo))
            if all(_atom_holds(a, wenv, inst) for a in right):
                witnessed = True
                break
        if not witnessed:
            yield tuple(env[u] for u in universal)


def _equating_distinct(left, pair, inst: Instance):
    """Each satisfying left assignment giving the pair distinct values, as a
    tuple over the variables sorted by name."""
    domain = sorted(
        {v for r in inst.relations for t in r.tuples for v in t} | _rule_constants(left),
        key=value_key,
    )
    variables = _all_variables(left)
    for combo in itertools.product(domain, repeat=len(variables)):
        env = dict(zip(variables, combo))
        if all(_atom_holds(a, env, inst) for a in left):
            if env[pair[0]] != env[pair[1]]:
                yield tuple(env[v] for v in sorted(variables))


def brute_force_tgd(universal, left, right, inst: Instance) -> bool:
    return next(_unwitnessed(universal, left, right, inst), None) is None


def brute_force_egd(left, pair, inst: Instance) -> bool:
    return next(_equating_distinct(left, pair, inst), None) is None


def least_tgd_violation(universal, left, right, inst: Instance):
    """The unwitnessed universal assignment least by ``tuple_key``, or None."""
    row = min(_unwitnessed(universal, left, right, inst), key=tuple_key, default=None)
    return None if row is None else dict(zip(universal, row))


def least_egd_violation(left, pair, inst: Instance):
    """The assignment equating two distinct values that is least by
    ``tuple_key`` over the variables sorted by name, or None."""
    row = min(_equating_distinct(left, pair, inst), key=tuple_key, default=None)
    return None if row is None else dict(zip(sorted(_all_variables(left)), row))


def counted_qualified_names(names) -> list:
    """The names a sum gives its relations, listed in leaf order, found by
    counting the bases (the parts before ``#``) with ``Counter``: a name
    whose base occurs more than once becomes ``base#k``, k its rank among
    the names with that base."""
    bases = [name.partition("#")[0] for name in names]
    counts, ranks, out = Counter(bases), Counter(), []
    for name, base in zip(names, bases):
        ranks[base] += 1
        out.append(name if counts[base] == 1 else f"{base}#{ranks[base]}")
    return out


def brute_force_signature(inst: Instance) -> frozenset:
    """The closure signature of *inst* counted over ``inst.components()``
    with ``Counter``: per component whose relations hold a tuple, the pair
    (values in its tuples, whether one of them is ``()``)."""
    pairs = Counter()
    for rels in inst.components().values():
        tuples = [t for r in rels for t in r.tuples]
        if tuples:
            pairs[frozenset(v for t in tuples for v in t), () in tuples] += 1
    return frozenset(pairs.items())


# ---------------------------------------------------------------------------
# term-space view enumeration (depth-recursive, single component)


def enumerate_views(inst: Instance, depth: int, max_arity: int) -> frozenset:
    """Every extension reachable by a term of the operator basis up to *depth*.

    Basis per step: one-condition selections (constants from the active
    domain), arbitrary projection index lists up to *max_arity*, pairless
    joins, same-arity unions.  The instance must be single-component.
    """
    adom = sorted({v for r in inst.relations for t in r.tuples for v in t}, key=value_key)
    by_depth = [set()]
    for r in inst.relations:
        if r.tuples:
            by_depth[0].add(r.tuples)
    for _ in range(depth):
        prev = {e for e in set().union(*by_depth) if e}
        nxt = set(prev)
        for ext in prev:
            arity = len(next(iter(ext)))
            for i in range(arity):
                for j in range(i + 1, arity):
                    nxt.add(frozenset(t for t in ext if t[i] == t[j]))
                for c in adom:
                    nxt.add(frozenset(t for t in ext if t[i] == c))
            for length in range(1, max_arity + 1):
                for cols in itertools.product(range(arity), repeat=length):
                    nxt.add(frozenset(tuple(u[k] for k in cols) for u in ext))
        for e1, e2 in itertools.product(prev, prev):
            a1, a2 = len(next(iter(e1))), len(next(iter(e2)))
            if a1 + a2 <= max_arity:
                nxt.add(frozenset(x + y for x in e1 for y in e2))
            if a1 == a2:
                nxt.add(e1 | e2)
        by_depth.append(nxt - set().union(*by_depth))
    views = set().union(*by_depth)
    views.discard(frozenset())
    views.add(frozenset())
    return frozenset(views)


def closed_form_views(inst: Instance, max_arity: int) -> dict:
    """Per component of *inst* with a nonempty relation, its fixpoint closure
    listed in closed form: every nonempty subset of Dᵏ for 1 <= k <=
    *max_arity*, D the component's active domain, one bit mask per subset,
    plus ``{()}`` when a relation holds it."""
    out = {}
    for comp, rels in inst.components().items():
        tuples = frozenset().union(*(r.tuples for r in rels))
        if not tuples:
            continue
        domain = sorted({v for t in tuples for v in t}, key=value_key)
        views = {frozenset({()})} if () in tuples else set()
        for k in range(1, max_arity + 1):
            rows = list(itertools.product(domain, repeat=k))
            views.update(frozenset(t for i, t in enumerate(rows) if mask >> i & 1) for mask in range(1, 2 ** len(rows)))
        out[comp] = frozenset(views)
    return out


def view_term(ext, inst: Instance, comp):
    """A select/project/product/union term over the relations of component
    *comp* of *inst* that evaluates to the view *ext* when *ext* lies in that
    component's closure: ``EmptyRel()`` for the empty view, a relation
    holding exactly *ext*, or else the union over the tuples of *ext* of
    products of singletons ``{(c)}``, each the first relation in name order
    holding c selected on c and projected onto that column.  A value of *ext*
    outside the component raises ``KeyError``."""
    if not ext:
        return EmptyRel()
    rels = [r for r in inst.relations if inst.component_of(r.name) == comp]
    for r in rels:
        if r.tuples == ext:
            return BaseRel(r.name)
    singleton = {}
    for r in rels:
        for t in sorted(r.tuples, key=tuple_key):
            for i, c in enumerate(t):
                singleton.setdefault(c, Project(Select(BaseRel(r.name), (ConstEq(i, c),)), (i,)))
    rows = [functools.reduce(Join, [singleton[c] for c in t]) for t in sorted(ext, key=tuple_key)]
    return functools.reduce(Union, rows)


# ---------------------------------------------------------------------------
# comparison of closures and fluxes up to renaming


def sorted_closure_form(vs) -> tuple:
    """A view set's components up to renaming, by sorting every view: the
    sorted tuple of each nonempty component's sorted extension keys."""
    return tuple(sorted(tuple(sorted(map(ext_key, exts))) for _, exts in vs.components if exts))


def sorted_views_report(exts) -> list:
    """Report strings of the extensions *exts*, each view's tuples sorted by
    their value keys and the views by their extension keys."""

    def show(ext):
        rows = ("(" + ",".join(format_value(v) for v in t) + ")" for t in sorted(ext, key=tuple_key))
        return "{" + " ".join(rows) + "}"

    return [show(ext) for ext in sorted(exts, key=ext_key)]


def brute_force_flux_same(f, g) -> bool:
    """Whether some renaming of source and of target components turns the
    nonempty channels of flux *f* into those of *g*, trying every pair of
    bijections."""
    cf = {(s, t): e for s, t, e in f.channels if e}
    cg = {(s, t): e for s, t, e in g.channels if e}
    sf, tf = sorted({s for s, _ in cf}), sorted({t for _, t in cf})
    sg, tg = sorted({s for s, _ in cg}), sorted({t for _, t in cg})
    if (len(cf), len(sf), len(tf)) != (len(cg), len(sg), len(tg)):
        return False
    for sp in itertools.permutations(sg):
        for tp in itertools.permutations(tg):
            smap, tmap = dict(zip(sf, sp)), dict(zip(tf, tp))
            if all(cg.get((smap[s], tmap[t])) == e for (s, t), e in cf.items()):
                return True
    return False


# ---------------------------------------------------------------------------
# nested trees of view maps
#
# A morphism as explicit nested trees: ("map", target, children) nodes over
# ("open", relation) and ("hidden", relation, middle instance) leaves.
# Composing grafts whole trees under leaves and summing rewrites every leaf,
# so what a tree shows is only read at the end, by walking all its leaves.


def nested_atomic(viewmaps) -> list:
    """One node per view map, over an open leaf per relation its query reads."""
    return [("map", vm.target, tuple(("open", n) for n in sorted(vm.sources))) for vm in viewmaps]


def nested_copies(origin: Instance, names: dict, into: bool) -> list:
    """The copy maps of an injection (*into*) or a projection: each relation
    of the summand *origin* against its name in the sum, ``names`` of it."""
    pairs = [(r.name, names.get(r.name, r.name)) for r in origin.relations]
    return [("map", new, (("open", old),)) if into else ("map", old, (("open", new),)) for old, new in pairs]


def _nested_leaves(node):
    if node[0] != "map":
        yield node
        return
    for child in node[2]:
        yield from _nested_leaves(child)


def nested_compose(g_trees, f_trees, middle) -> list:
    """``g after f``: each tree of g with an open leaf that some tree of f
    writes, every open leaf replaced by all the trees of f writing it, or by a
    hidden leaf in *middle* when none does."""

    def graft(node):
        if node[0] == "open":
            return [t for t in f_trees if t[1] == node[1]] or [("hidden", node[1], middle)]
        if node[0] == "hidden":
            return [node]
        return [("map", node[1], tuple(c for child in node[2] for c in graft(child)))]

    written = {t[1] for t in f_trees}
    return [graft(t)[0] for t in g_trees if any(l[0] == "open" and l[1] in written for l in _nested_leaves(t))]


def nested_sum(trees, leaf_names: dict, root_names: dict) -> list:
    """Trees of one summand in a sum: every open leaf, at any depth, renamed
    by *leaf_names* and each root's target by *root_names*."""

    def rename(node):
        if node[0] == "open":
            return ("open", leaf_names.get(node[1], node[1]))
        if node[0] == "hidden":
            return node
        return ("map", node[1], tuple(map(rename, node[2])))

    return [("map", root_names.get(t[1], t[1]), rename(t)[2]) for t in trees]


def nested_reading(trees) -> tuple:
    """(kind, d0, d1, each tree's (target, open relations, hidden pairs)) of nested trees."""
    shown = []
    for t in trees:
        leaves = list(_nested_leaves(t))
        opens = frozenset(l[1] for l in leaves if l[0] == "open")
        hidden = frozenset((l[1], l[2]) for l in leaves if l[0] == "hidden")
        shown.append((t[1], opens, hidden))
    kind = "p-arrow" if any(hidden for _, _, hidden in shown) else "c-arrow"
    d0 = set()
    for _, opens, _ in shown:
        d0 |= opens
    d1 = {target for target, _, _ in shown}
    return kind, frozenset(d0), frozenset(d1), tuple(shown)


# ---------------------------------------------------------------------------
# seeded generators


VALUES = (1, 2, 3, "a")


def random_instance(rng: random.Random, max_values=4, max_tuples=6, max_rels=2) -> Instance:
    values = list(VALUES[: rng.randint(1, max_values)])
    rels = {}
    arities = {}
    for i in range(rng.randint(1, max_rels)):
        name = f"r{i}"
        arity = rng.randint(1, 2)
        count = rng.randint(0, max_tuples)
        tuples = {
            tuple(rng.choice(values) for _ in range(arity)) for _ in range(count)
        }
        rels[name] = tuples
        arities[name] = arity
    return make_instance(rels, arities=arities)


def random_rule(rng: random.Random, inst: Instance, allow_le=False) -> Rule:
    var_pool = ["X", "Y", "Z", "W"]
    n_atoms = rng.randint(1, 3)
    body = []
    for _ in range(n_atoms):
        r = rng.choice(inst.relations)
        args = []
        for _ in range(r.arity):
            if rng.random() < 0.2:
                args.append(Const(rng.choice(VALUES[:3])))
            else:
                args.append(Var(rng.choice(var_pool)))
        body.append(RelAtom(r.name, tuple(args)))
    body_vars = sorted({v.name for a in body for v in a.variables()})
    if body_vars and rng.random() < 0.4:
        op = "<=" if allow_le and rng.random() < 0.5 else "="
        left = Var(rng.choice(body_vars))
        right = (
            Var(rng.choice(body_vars))
            if rng.random() < 0.5
            else Const(rng.choice(VALUES[:3]))
        )
        body.append(Builtin(op, left, right))
    if not body_vars:
        body_vars = []
    head_width = rng.randint(0 if not body_vars else 1, min(2, len(body_vars)) or 0)
    head_vars = tuple(Var(v) for v in rng.sample(body_vars, head_width)) if head_width else ()
    if head_width and rng.random() < 0.2:
        head_vars = head_vars + (head_vars[0],)
    return Rule("q", head_vars, tuple(body))


def random_body(rng: random.Random, inst: Instance, n_atoms=3, free_var=True) -> list:
    """*n_atoms* relation atoms over X, Y, Z, W and constants, then one or two
    ``=``/``<=`` built-ins; with *free_var*, a built-in may name V, which no
    relation atom binds."""
    body = []
    for _ in range(n_atoms):
        r = rng.choice(inst.relations)
        body.append(
            RelAtom(
                r.name,
                tuple(
                    Const(rng.choice(VALUES[:3])) if rng.random() < 0.25 else Var(rng.choice("XYZW"))
                    for _ in range(r.arity)
                ),
            )
        )
    names = sorted({v.name for a in body for v in a.variables()}) or ["X"]
    for _ in range(rng.randint(1, 2)):
        pool = names + (["V"] if free_var else [])
        left = Var(rng.choice(pool))
        right = Var(rng.choice(pool)) if rng.random() < 0.5 else Const(rng.choice(VALUES))
        body.append(Builtin(rng.choice(("=", "<=")), left, right))
    return body
