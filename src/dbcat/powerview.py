"""Bounded closure of an instance under view formation.

The view database of an instance is enumerated level by level: level 0 holds
the instance's own relations (plus the empty view), and each further level
applies one more operator to everything accumulated so far.  Views are
identified purely by their extension (the set of tuples), so two queries with
the same answer contribute one view, and a closure is a set of extensions.
Enumeration is bounded by a level count and a result-arity limit; when a level
adds nothing new the closure is exact and the view set is flagged as a fixpoint.
An unbounded closure, every nonempty subset of D^k for each arity k up to the
bound (D the component's active domain) plus ``{()}`` when a seed holds it,
is kept as that description (:class:`ClosedForm`), which verdicts compare and
combine; only a report or ``extensions`` lists it.  Every bounded view lies
in that closed form.

Operator basis per level: selections with a single column/column or
column/constant condition (constants drawn from the component's active
domain), projections onto arbitrary index lists (repetition allowed, which
subsumes renaming), pairless joins (cartesian products; equijoins arise as
selections a level later), and same-arity unions.  Separated components never
mix: the closure of a partitioned instance is the tagged union of the
closures of its components.
"""
from __future__ import annotations

import functools
import itertools
import sys
from operator import add, eq, itemgetter, or_

from .core import DEFAULT_CAP, DEFAULT_DEPTH, DEFAULT_MAX_ARITY
from .core import SetKey, bottom_instance, ext_key, federate, format_closure, value_key
from .values import MEMO_ENTRIES, DbcatError, Instance, Record, Relation, seed_pair

EMPTY_EXT = frozenset()
PAIRS_PER_VIEW = 5  # a bounded closure's limit on pairs visited, per view of its cap


class ViewBudgetExceeded(DbcatError):
    """A listing or a bounded closure holds more views than the cap allows.

    ``views`` is the count a bounded closure reached, seeds included, or None
    from a listing's count (:func:`spend`) or the pair limit; ``pairs`` is
    the pairs charged past that limit, else None.  ``cap`` is the cap passed,
    ``level`` the closure level it stopped at, and ``component`` the
    component id or flux channel ``(s, t)`` as the text ``s->t``.
    """

    def __init__(self, cap, views, level=None, component=None, pairs=None):
        if isinstance(component, tuple):
            component = "->".join(map(str, component))
        where = zip((f"component {component}", f"level {level}", f"{views} views", f"{pairs} pairs"),
                    (component, level, views, pairs))
        super().__init__(f"view enumeration exceeded cap of {cap} ({', '.join(w for w, v in where if v is not None)})")
        self.cap, self.views, self.level, self.component, self.pairs = cap, views, level, component, pairs


class ViewSet(Record):
    """Extensions of a bounded view closure, grouped by source component.

    ``components`` maps component id -> its nonempty extensions, a frozenset
    or, at fixpoint, a :class:`ClosedForm`; the empty view belongs to every
    view set and is kept implicit.  ``depth`` is the level bound asked for,
    None for none.
    """

    components: tuple
    depth: int | None
    max_arity: int
    fixpoint: bool

    def extensions(self) -> frozenset:
        """All extensions, untagged, including the empty view."""
        return frozenset({EMPTY_EXT}.union(*(exts for _, exts in self.components)))

    def canonical(self) -> tuple:
        """Component structure up to renaming: the :func:`canonical_form` of
        the channels ``(c, c, closure)``, which is the key of the identity's
        flux (:meth:`serialize` is the report form)."""
        return canonical_form((c, c, exts) for c, exts in self.components)

    def __contains__(self, ext) -> bool:
        ext = frozenset(ext)
        return not ext or any(ext in exts for _, exts in self.components)

    def __len__(self) -> int:  # the empty view and the union of the closures, counted and never listed
        return 1 + len(functools.reduce(or_, [exts for _, exts in self.components] or [EMPTY_EXT]))

    def serialize(self) -> list:
        """Deterministic nested-list form for reports and golden files."""
        return format_closure(self.components, (0,))

    def as_instance(self) -> Instance:
        """Materialize the views as a fresh instance (one relation per view)."""
        views = [(comp, e) for comp, exts in self.components for e in sorted(exts, key=ext_key)]
        if not views:
            return bottom_instance()
        relations = tuple(Relation(f"v{i}", len(next(iter(e))), e) for i, (_, e) in enumerate(views))
        return Instance(relations, tuple((r.name, comp) for r, (comp, _) in zip(relations, views)))


def canonical_form(channels) -> tuple:
    """A keyed family of closures, the triples (source, target, closure),
    up to renaming components on either side: the sorted forms
    (:func:`_part_form`) of the connected parts of its nonempty channels.
    Keys are :class:`~dbcat.core.SetKey`, so this is a comparison key within
    one process that never lists a description."""
    chans = [(s, t, SetKey(exts)) for s, t, exts in channels if exts]
    root: dict = {}  # union-find over sources (0, s) and targets (1, t)

    def find(x):
        while root.setdefault(x, x) != x:
            root[x] = x = root[root[x]]
        return x

    for s, t, _ in chans:
        root[find((0, s))] = find((1, t))
    parts: dict = {}
    for c in chans:
        parts.setdefault(find((0, c[0])), []).append(c)
    return tuple(sorted(map(_part_form, parts.values())))


def _part_form(chans) -> tuple:
    """Exact form of a connected set of channels (source, target, key), its
    sources and targets labelled from 0; a single channel is its own form.
    Colour refinement splits the components into classes: a component's
    colour is its previous colour with the keys of its channels, each paired
    with the colour at the other end, until no class splits.  Only sources of
    one class are permuted.  Given the source labels, each target is labelled
    by its colour and its (source label, key) channels; targets that agree on
    these are interchangeable.  The least form over those permutations is
    exact."""
    if len(chans) == 1:
        return ((0, 0, chans[0][2]),)
    by_src, by_tgt = {}, {}
    for s, t, k in chans:
        by_src.setdefault(s, []).append((t, k))
        by_tgt.setdefault(t, []).append((s, k))
    scol, tcol = dict.fromkeys(by_src, 0), dict.fromkeys(by_tgt, 0)
    classes = 0  # refinement only splits classes, so it is stable once none split
    while classes < (classes := len(set(scol.values())) + len(set(tcol.values()))):
        scol, tcol = _refine(scol, tcol, by_src), _refine(tcol, scol, by_tgt)
    groups: dict = {}
    for src in sorted(scol, key=scol.get):
        groups.setdefault(scol[src], []).append(src)

    def form(order):
        smap = {src: i for i, src in enumerate(itertools.chain.from_iterable(order))}
        tsig = {t: (tcol[t], sorted((smap[s], k) for s, k in by_tgt[t])) for t in tcol}
        tmap = {t: i for i, t in enumerate(sorted(tsig, key=tsig.get))}
        return tuple(sorted((smap[s], tmap[t], k) for s, t, k in chans))

    return min(map(form, itertools.product(*map(itertools.permutations, groups.values()))))


def _refine(colour: dict, other: dict, adjacent: dict) -> dict:
    """One round of colour refinement: each component's new colour is the
    rank of (its colour, its channel keys each with the colour at the other
    end) among all such signatures on its side."""
    sig = {x: (colour[x], tuple(sorted((k, other[y]) for y, k in adjacent[x]))) for x in colour}
    rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
    return {x: rank[s] for x, s in sig.items()}


class ClosedForm:
    """A closure at fixpoint, kept as its description: ``blocks[k - 1]`` is
    the antichain of maximal domains D at arity k, each standing for every
    nonempty subset of Dᵏ, and ``nullary`` whether ``{()}`` is a view.  The
    key drops empty and non-maximal domains and trailing empty arities, so
    descriptions are equal exactly when their views are, and equal only
    descriptions.  ``&`` and ``|`` of two, ``in``, ``len`` and ``bool`` read
    the key; iterating lists the views afresh, and ``-`` a set gives a
    frozenset of that listing."""

    __slots__ = ("key",)

    def __init__(self, blocks, nullary: bool):
        antichains = [frozenset(d for d in doms if d and not any(d < e for e in doms)) for doms in blocks]
        while antichains and not antichains[-1]:
            antichains.pop()
        self.key = (bool(nullary), tuple(antichains))

    @classmethod
    def of_seeds(cls, seeds, max_arity: int):
        """The closure at fixpoint of nonempty extensions *seeds*, keyed directly by their one domain."""
        domain, nullary = seed_pair(seeds)
        form = cls.__new__(cls)
        form.key = (nullary, (frozenset({domain}),) * max_arity if domain else ())
        return form

    def __eq__(self, other) -> bool:
        return isinstance(other, ClosedForm) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"ClosedForm{self.key!r}"

    def __bool__(self) -> bool:
        return self.key != (False, ())

    def count(self) -> int:  # inclusion-exclusion: P(Dᵏ) ∩ P(Eᵏ) = P((D ∩ E)ᵏ)
        """The number of views, an exact int of any size."""
        nullary, blocks = self.key
        return int(nullary) + sum(
            (-1) ** (n + 1) * (2 ** (len(frozenset.intersection(*group)) ** k) - 1)
            for k, doms in enumerate(blocks, 1)
            for n in range(1, len(doms) + 1)
            for group in itertools.combinations(doms, n)
        )

    def count_within(self, budget: int):
        """The number of views, counted once, or None when it holds more than
        *budget*, as it does when a block Dᵏ has more tuples than *budget* has bits."""
        if any(len(d) ** k > budget.bit_length() for k, ds in enumerate(self.key[1], 1) for d in ds):
            return None
        return n if (n := self.count()) <= budget else None

    def __len__(self) -> int:
        if (n := self.count()) > sys.maxsize:
            raise DbcatError(f"{n.bit_length()}-bit view count is past len(); use count()")
        return n

    def __contains__(self, ext) -> bool:
        arities = set(map(len, ext))
        if len(arities) != 1:
            return False  # the empty view is implicit; a mixed-arity set is no view
        (k,), (nullary, blocks) = arities, self.key
        values = frozenset().union(*ext)
        return nullary if not k else k <= len(blocks) and any(values <= d for d in blocks[k - 1])

    def order_key(self) -> tuple:
        """An exact sort key among descriptions, from the key alone."""
        nullary, blocks = self.key
        return nullary, tuple(sorted(tuple(sorted(map(value_key, d))) for d in doms) for doms in blocks)

    def listing(self) -> frozenset:
        """Every view, as a frozenset of extensions, made on each call and not kept."""
        nullary, blocks = self.key
        views = {frozenset({()})} if nullary else set()
        for k, doms in enumerate(blocks, 1):
            for rows in (list(itertools.product(d, repeat=k)) for d in doms):
                views.update(*(map(frozenset, itertools.combinations(rows, n)) for n in range(1, len(rows) + 1)))
        return frozenset(views)

    def __iter__(self):
        return iter(self.listing())

    def __and__(self, other):
        (na, a), (nb, b) = self.key, other.key
        return ClosedForm([[d & e for d in da for e in db] for da, db in zip(a, b)], na and nb)

    def __or__(self, other):
        (na, a), (nb, b) = self.key, other.key
        return ClosedForm(itertools.starmap(or_, itertools.zip_longest(a, b, fillvalue=frozenset())), na or nb)

    def __sub__(self, other):
        return self.listing() - other


def close_component(seeds, depth, max_arity, cap):
    """The level enumerator: the closure of one component, at most *depth*
    levels deep, from the frozenset *seeds* of its nonempty extensions.

    Returns (views, reached_fixpoint), *views* a frozenset of the nonempty
    extensions.  It raises :class:`ViewBudgetExceeded` once it holds more
    than *cap* views, seeds included, or when a level's unions and products,
    charged by arity before any of its views is visited, take the pairs past
    ``PAIRS_PER_VIEW * cap``.  A level's operands come from earlier levels,
    so its views, its charge and the limit it passes ignore visit order.
    """
    views = set(seeds)
    by_arity: dict = {}  # arity -> operands visited so far, earlier levels first
    getters: dict = {}  # index list -> its itemgetter
    frontier = seeds
    level = pairs = 0
    while frontier:
        if level >= depth:
            return frozenset(views), False
        level += 1
        new: list = []
        arities = [len(next(iter(ext))) for ext in frontier]
        seen = {a: len(ops) for a, ops in by_arity.items()}
        for arity in arities:  # each pair once: same-arity unions, products that fit max_arity
            seen[arity] = seen.get(arity, 0) + 1
            pairs += seen[arity] - 1 + sum(seen.get(a2, 0) for a2 in range(max_arity - arity + 1))
        if pairs > PAIRS_PER_VIEW * cap:
            raise ViewBudgetExceeded(cap, None, level, pairs=pairs)

        def emit(ext):
            if ext and ext not in views:
                views.add(ext)
                new.append(ext)
                if len(views) > cap:
                    raise ViewBudgetExceeded(cap, len(views), level)

        for ext, arity in zip(frontier, arities):
            reps: dict = {}  # representative column -> its values, in the order of ext
            for k in range(arity):
                col = list(map(itemgetter(k), ext))
                if col in reps.values():
                    continue  # equal to an earlier column in every tuple: the same views
                for other in reps.values():
                    emit(frozenset(itertools.compress(ext, map(eq, other, col))))
                if col.count(col[0]) < len(col):  # else selecting a constant gives ext
                    groups: dict = {}
                    for v, t in zip(col, ext):
                        groups.setdefault(v, []).append(t)
                    for group in groups.values():
                        emit(frozenset(group))
                if max_arity:
                    emit(frozenset(zip(col)))
                reps[k] = col
            for n in range(2, max_arity + 1):  # projections onto index lists of reps
                for cols in itertools.product(reps, repeat=n):
                    emit(frozenset(map(getters.get(cols) or getters.setdefault(cols, itemgetter(*cols)), ext)))
            # binary operators once per pair, products in both orders
            same = by_arity.setdefault(arity, [])
            same.append(ext)
            for other in itertools.islice(same, len(same) - 1):
                emit(ext | other)
            for a2 in range(max_arity - arity + 1):
                for other in by_arity.get(a2, ()):
                    emit(frozenset(itertools.starmap(add, itertools.product(ext, other))))
                    if other is not ext:
                        emit(frozenset(itertools.starmap(add, itertools.product(other, ext))))
        frontier = new
    return frozenset(views), True


def close_seed_sets(pairs, depth, max_arity, cap):
    """The closures of the components of a view set or the channels of an
    arrow, each key's seeds the nonempty extensions (no wider than
    *max_arity*) of the (key, extension) *pairs*: the (key, closure) pairs in
    key order, and whether all are fixpoints.  A budget error names the key."""
    groups: dict = {}
    for key, ext in pairs:
        if ext:
            groups.setdefault(key, set()).add(ext)
    if depth is None:
        return [(key, ClosedForm.of_seeds(seeds, max_arity)) for key, seeds in sorted(groups.items())], True
    closed, fixpoint = [], True
    for key, seeds in sorted(groups.items()):
        try:
            views, fixed = close_component(frozenset(seeds), depth, max_arity, cap)
        except ViewBudgetExceeded as exc:
            raise ViewBudgetExceeded(cap, exc.views, exc.level, key, exc.pairs) from None
        fixpoint = fixpoint and fixed
        closed.append((key, views))
    return closed, fixpoint


def spend(parts, cap) -> None:
    """Charge every nonempty view of the keyed closures ``(*key, closure)``,
    seeds included, to one budget of *cap*, a :class:`ClosedForm` counted and
    never listed; a :class:`ViewBudgetExceeded` names the first key past it."""
    left = cap
    for *key, views in parts:
        n = views.count_within(left) if isinstance(views, ClosedForm) else len(views)
        if n is None or n > left:
            raise ViewBudgetExceeded(cap, None, component=tuple(key) if key[1:] else key[0])
        left -= n


def _closed(inst, depth, max_arity, cap) -> ViewSet:
    """:func:`view_closure` under *cap*, which bounds only a bounded closure."""
    max_arity = max(max_arity, inst.max_arity())
    pairs = ((inst.component_of(r.name), r.tuples) for r in inst.relations)
    components, fixpoint = close_seed_sets(pairs, depth, max_arity, cap)
    return ViewSet(tuple(components), depth, max_arity, fixpoint)


def view_closure(inst, depth=None, max_arity=DEFAULT_MAX_ARITY) -> ViewSet:
    """All views of *inst* within the bounds, the width raised to its widest
    relation, for a verdict: by default (``depth=None``) a true fixpoint, kept
    as uncounted descriptions; the result records whether it got there."""
    return _closed(inst, depth, max_arity, DEFAULT_CAP)


def power_view(
    inst: Instance,
    depth: int | None = DEFAULT_DEPTH,
    max_arity: int = DEFAULT_MAX_ARITY,
    cap: int = DEFAULT_CAP,
) -> ViewSet:
    """:func:`view_closure`, to be listed: its views over all components
    :func:`spend` *cap*, a fixpoint closure counted and never enumerated."""
    vs = _closed(inst, depth, max_arity, cap)
    spend(vs.components, cap)
    return vs


def power_view_cached(inst, depth, max_arity, cap=DEFAULT_CAP) -> ViewSet:
    """:func:`power_view`, memoised per argument tuple in an ``lru_cache`` of
    ``MEMO_ENTRIES`` closures: a hit returns the stored object itself.  It
    stays a plain function, so a tracer that wraps it sees every call."""
    return _power_view_memo(inst, depth, max_arity, cap)


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _power_view_memo(inst, depth, max_arity, cap) -> ViewSet:
    return power_view(inst, depth, max_arity, cap)  # the module global, as a tracer may replace it


def instances_isomorphic(
    a: Instance,
    b: Instance,
    depth: int | None = None,
    max_arity: int = DEFAULT_MAX_ARITY,
    cap: int = DEFAULT_CAP,
) -> bool:
    """Equality of the two view closures at a shared bound, components
    matched up to renaming.  The two cached ``closure_signature`` attributes
    are compared first, with no call once both are known: unequal ones are an
    exact FAIL at any bound; at fixpoint, the default, equal ones are an exact PASS, found
    without listing views or raising :class:`ViewBudgetExceeded`: the route
    of every verdict.  A bounded depth is the library route the benchmark
    still times: a relation of *a* missing from *b*'s closure, built first,
    is an exact FAIL (a closure holds its seeds); else the closures are
    compared: exact when both are fixpoints.
    """
    same = a.closure_signature == b.closure_signature
    if not same or depth is None:
        return same
    m = max(max_arity, a.max_arity(), b.max_arity())
    vb = power_view_cached(b, depth, m, cap)
    for r in a.relations:  # a loop, not a generator: vb stays a plain local
        if r.tuples not in vb:
            return False
    return power_view_cached(a, depth, m, cap).canonical() == vb.canonical()


def matching(
    a: Instance,
    b: Instance,
    depth: int | None = None,
    max_arity: int = DEFAULT_MAX_ARITY,
) -> ViewSet:
    """Shared information of two instances: the views they have in common,
    the union over pairs of components of their closures' intersections."""
    m = max(max_arity, a.max_arity(), b.max_arity())
    va, vb = view_closure(a, depth, m), view_closure(b, depth, m)
    shared = [ca & cb for _, ca in va.components for _, cb in vb.components]
    common = functools.reduce(or_, shared) if shared else EMPTY_EXT
    return ViewSet(
        components=((0, common),) if common else (),
        depth=va.depth,
        max_arity=m,
        fixpoint=va.fixpoint and vb.fixpoint,
    )


def merging(
    a: Instance,
    b: Instance,
    depth: int | None = None,
    max_arity: int = DEFAULT_MAX_ARITY,
) -> ViewSet:
    """Views of the federated union: both inputs under one query engine."""
    return view_closure(federate(a, b), depth, max_arity)
