"""Morphisms between instances: view mappings, trees, composition, and flux.

A morphism is a finite set of trees.  Each tree node applies one view mapping
(a conjunctive query plus a target relation); leaves name source relations.
Composing morphisms grafts the earlier morphism's trees under the matching
leaves of the later one; leaves left unmatched become hidden elements and the
result is only a partial arrow.

The meaning of a morphism is its information flux: the closure of the view
extensions it actually carries across.  Fluxes are kept per channel, where a
channel is a pair (source component, target component); composition
intersects channels that meet in the shared middle object, and coproducts
take tagged unions of channels.  Two morphisms are equivalent when their
fluxes agree up to component renaming.
"""
from __future__ import annotations

import itertools

from .core import (
    BOT,
    DbcatError,
    Instance,
    Record,
    SetKey,
    disjoint_union,
    disjoint_union_with_maps,
    ext_key,
    format_extension,
    is_empty_isomorphic,
)
from .powerview import (
    DEFAULT_CAP,
    DEFAULT_DEPTH,
    DEFAULT_MAX_ARITY,
    EMPTY_EXT,
    close_component,
    instances_isomorphic,
    power_view_cached,
)
from .queries import QueryArityError, Rule, copy_rule, eval_rule


class ModeViolation(DbcatError):
    """The view produced by a mapping is not supported by its target relation."""


# ---------------------------------------------------------------------------
# view maps and trees


class ViewMap(Record):
    """One component of a mapping: a query over the source feeding a target
    relation, under a soundness (`inclusion`) or exactness (`exact`) promise."""

    query: Rule
    target: str
    mode: str = "inclusion"

    def __post_init__(self):
        if self.mode not in ("inclusion", "exact"):
            raise DbcatError(f"unknown mode {self.mode!r}")

    @property
    def sources(self) -> frozenset:
        return self.query.relation_names()


class Leaf(Record):
    name: str


class HiddenLeaf(Record):
    """Input of a downstream query that no upstream tree supplies."""

    name: str
    owner: Instance


class MapNode(Record):
    viewmap: ViewMap
    children: tuple


def _leaves(node) -> list:
    """The leaves under a tree node, open (:class:`Leaf`) or hidden, left to right."""
    out = []
    for c in node.children:
        if isinstance(c, MapNode):
            out.extend(_leaves(c))
        else:
            out.append(c)
    return out


def _open_names(node) -> set:
    return {c.name for c in _leaves(node) if isinstance(c, Leaf)}


# ---------------------------------------------------------------------------
# morphisms


class Morphism(Record):
    """An arrow between two instances.

    ``parts`` records how the morphism was put together, which drives the
    structural flux computation.  It has one of three shapes:

    - ``("atomic",)``: the view maps of ``trees`` over ``source`` (none for
      the empty arrow);
    - ``("compose", g, f)``: ``g`` after ``f``;
    - ``("sum", (f, src_comps, tgt_comps), (g, src_comps, tgt_comps))``:
      ``f`` and ``g`` side by side, each with the (old, new) component pairs
      of its source and target in the summed ends (empty for a shared end).
      This one shape covers f+g, [f,g] and <f,g>.
    """

    source: Instance
    target: Instance
    trees: tuple
    parts: tuple = ("atomic",)

    @property
    def kind(self) -> str:
        hidden = any(isinstance(c, HiddenLeaf) for t in self.trees for c in _leaves(t))
        return "p-arrow" if hidden else "c-arrow"

    def d0(self) -> frozenset:
        names = set().union(*map(_open_names, self.trees))
        return frozenset(names) if names else frozenset({BOT})

    def d1(self) -> frozenset:
        names = {t.viewmap.target for t in self.trees}
        return frozenset(names) if names else frozenset({BOT})


def _projected_target(inst: Instance, name: str, width: int) -> frozenset:
    r = inst.relation(name)
    if r.arity < width:
        raise QueryArityError(
            f"target {name} has arity {r.arity}, narrower than the mapped view ({width})"
        )
    return frozenset(t[:width] for t in r.tuples)


def make_atomic(viewmaps, source: Instance, target: Instance) -> Morphism:
    """Build a complete arrow from view mappings, enforcing their modes.

    Each query is evaluated over *source*; the result must be contained in
    (mode ``inclusion``) or equal to (mode ``exact``) the matching-width
    prefix projection of its target relation.
    """
    trees = []
    for vm in viewmaps:
        ext = eval_rule(vm.query, source).tuples
        proj = _projected_target(target, vm.target, len(vm.query.head_vars))
        if vm.mode == "inclusion":
            if not ext <= proj:
                extra = sorted(ext - proj)[:3]
                raise ModeViolation(
                    f"view for {vm.target} not contained in target: extra tuples {extra}"
                )
        else:
            if ext != proj:
                raise ModeViolation(
                    f"view for {vm.target} differs from target projection "
                    f"({format_extension(ext)} vs {format_extension(proj)})"
                )
        trees.append(MapNode(vm, tuple(Leaf(n) for n in sorted(vm.sources))))
    return Morphism(source, target, tuple(trees), ("atomic",))


def empty_morphism(source: Instance, target: Instance) -> Morphism:
    """The banal arrow carrying nothing but the empty view: the atomic arrow
    with no view maps, so it equals ``make_atomic([], source, target)``."""
    return Morphism(source, target, ())


def _copy_arrow(origin: Instance, source: Instance, target: Instance, reads: dict, writes: dict):
    """One exact copy mapping per relation of *origin*, reading it from
    *source* and writing it to *target* under the names *reads* and *writes*
    give it (its own name where they give none)."""
    vms = [
        ViewMap(
            copy_rule(r.name, reads.get(r.name, r.name), r.arity),
            writes.get(r.name, r.name),
            "exact",
        )
        for r in origin.relations
        if r.name != BOT
    ]
    return make_atomic(vms, source, target)


def identity(inst: Instance) -> Morphism:
    """One exact copy mapping per relation; carries every view of the instance."""
    return _copy_arrow(inst, inst, inst, {}, {})


def _graft(node: MapNode, supply: dict, intermediate: Instance) -> MapNode:
    children = []
    for c in node.children:
        if isinstance(c, Leaf):
            if c.name in supply:
                children.extend(supply[c.name])
            else:
                children.append(HiddenLeaf(c.name, intermediate))
        elif isinstance(c, MapNode):
            children.append(_graft(c, supply, intermediate))
        else:
            children.append(c)
    return MapNode(node.viewmap, tuple(children))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """Sequential composition ``g after f``.

    Keeps the g-trees whose open inputs meet what f provides, grafting f's
    trees under the matching leaves; unmatched leaves become hidden elements.
    """
    if g.source != f.target:
        raise DbcatError("composition endpoint mismatch")
    supply: dict = {}
    for t in f.trees:
        supply.setdefault(t.viewmap.target, []).append(t)
    provided = frozenset(supply)
    kept = []
    for t in g.trees:
        if not provided.isdisjoint(_open_names(t)):
            kept.append(_graft(t, supply, f.target))
    return Morphism(f.source, g.target, tuple(kept), ("compose", g, f))


def _retree(node: MapNode, leaf_map: dict, target_map: dict, is_root: bool) -> MapNode:
    children = []
    renamed = {}
    for c in node.children:
        if isinstance(c, Leaf):
            new = leaf_map.get(c.name, c.name)
            if new != c.name:
                renamed[c.name] = new
            children.append(Leaf(new))
        elif isinstance(c, MapNode):
            children.append(_retree(c, leaf_map, target_map, False))
        else:
            children.append(c)
    vm = node.viewmap
    query = vm.query.rename_relations(renamed) if renamed else vm.query
    target = target_map.get(vm.target, vm.target) if is_root else vm.target
    return MapNode(ViewMap(query, target, vm.mode), tuple(children))


def _side_by_side(f: Morphism, g: Morphism, sources: bool, targets: bool) -> Morphism:
    """*f* and *g* as one arrow between the disjoint unions of their sources,
    of their targets, or both; an end that is not summed is shared.  In DB
    the disjoint union is both coproduct and product, so this one construction
    gives f+g, the copairing [f,g] and the pairing <f,g>."""
    shared = {}, {}, {}, {}  # an end not summed: no names or components change
    src, snames_f, snames_g, scomps_f, scomps_g = (
        disjoint_union_with_maps(f.source, g.source) if sources else (f.source, *shared)
    )
    tgt, tnames_f, tnames_g, tcomps_f, tcomps_g = (
        disjoint_union_with_maps(f.target, g.target) if targets else (f.target, *shared)
    )
    trees = [_retree(t, snames_f, tnames_f, True) for t in f.trees]
    trees += [_retree(t, snames_g, tnames_g, True) for t in g.trees]
    parts = (
        "sum",
        (f, tuple(scomps_f.items()), tuple(tcomps_f.items())),
        (g, tuple(scomps_g.items()), tuple(tcomps_g.items())),
    )
    return Morphism(src, tgt, tuple(trees), parts)


def coproduct_morphism(f: Morphism, g: Morphism) -> Morphism:
    """Component-tagged union of two arrows: ``f + g`` between the coproducts."""
    return _side_by_side(f, g, True, True)


def _summand(a: Instance, b: Instance, side: str):
    """The coproduct, the chosen summand, and that summand's names in it."""
    if side not in ("left", "right"):
        raise DbcatError(f"side must be 'left' or 'right', not {side!r}")
    inst, map_a, map_b, _, _ = disjoint_union_with_maps(a, b)
    return (inst, a, map_a) if side == "left" else (inst, b, map_b)


def injection(a: Instance, b: Instance, side: str = "left") -> Morphism:
    """Monomorphism embedding one summand into the coproduct."""
    inst, origin, names = _summand(a, b, side)
    return _copy_arrow(origin, origin, inst, {}, names)


def projection(a: Instance, b: Instance, side: str = "left") -> Morphism:
    """Epimorphism collapsing the coproduct back onto one summand."""
    inst, origin, names = _summand(a, b, side)
    return _copy_arrow(origin, inst, origin, names, {})


def mediating(f: Morphism, g: Morphism) -> Morphism:
    """The arrow out of the coproduct induced by two arrows into a common target."""
    if f.target != g.target:
        raise DbcatError("mediating arrows need a common target")
    return _side_by_side(f, g, True, False)


def pairing(f: Morphism, g: Morphism) -> Morphism:
    """The arrow into the product induced by two arrows out of a common source."""
    if f.source != g.source:
        raise DbcatError("paired arrows need a common source")
    return _side_by_side(f, g, False, True)


# ---------------------------------------------------------------------------
# information flux


class Flux(Record):
    """What a morphism transmits: per-channel closed sets of view extensions.

    A channel pairs a source component with a target component.  The empty
    view flows through every morphism and stays implicit.
    """

    channels: tuple
    fixpoint: bool

    def extensions(self) -> frozenset:
        out = {EMPTY_EXT}
        for _, _, exts in self.channels:
            out.update(exts)
        return frozenset(out)

    def canonical(self) -> tuple:
        """Channel structure up to renaming components on either side: the
        sorted forms (:func:`_part_form`) of the connected parts of the
        channel graph.  Keys are :class:`~dbcat.core.SetKey`, so this is a
        comparison key within one process; :meth:`serialize` is the report
        form."""
        chans = [(s, t, SetKey(exts)) for s, t, exts in self.channels if exts]
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

    def same(self, other: "Flux") -> bool:
        return self.canonical() == other.canonical()

    def matches_view_set(self, vs) -> bool:
        return tuple(sorted(SetKey(e) for _, _, e in self.channels if e)) == vs.canonical()

    def serialize(self) -> list:
        out = []
        for s, t, exts in sorted(self.channels):
            views = sorted(exts | {EMPTY_EXT}, key=ext_key)
            out.append([s, t, [format_extension(e) for e in views]])
        if not out:
            out.append([0, 0, [format_extension(EMPTY_EXT)]])
        return out


def _part_form(chans) -> tuple:
    """Exact form of a connected set of channels (source, target, key), its
    sources and targets labelled from 0.  Colour refinement splits the
    components into classes: a component's colour is its previous colour with
    the keys of its channels, each paired with the colour at the other end,
    until no class splits.  Only sources of one class are permuted.  Given
    the source labels, each target is labelled by its colour and its (source
    label, key) channels; targets that agree on these are interchangeable.
    The least form over those permutations is exact."""
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


def _closure_of(extensions, depth, max_arity, cap) -> tuple:
    """T-closure of a set of extensions; returns (nonempty extensions, fixpoint)."""
    seeds = frozenset(e for e in extensions if e)
    m = max([max_arity] + [len(next(iter(e))) for e in seeds])
    return close_component(seeds, depth, m, cap)


def _atomic_channels(m: Morphism, depth, max_arity, cap):
    groups: dict = {}
    for t in m.trees:
        vm = t.viewmap
        ext = eval_rule(vm.query, m.source).tuples
        src_names = vm.sources
        src_comps = {m.source.component_of(n) for n in src_names} or {0}
        if len(src_comps) > 1:
            raise DbcatError("atomic view map reads across separated components")
        key = (src_comps.pop(), m.target.component_of(vm.target))
        groups.setdefault(key, set()).add(ext)
    channels = []
    fix = True
    for (s, t), exts in sorted(groups.items()):
        closed, fixed = _closure_of(exts, depth, max_arity, cap)
        fix = fix and fixed
        if closed:
            channels.append((s, t, closed))
    return tuple(channels), fix


def flux(
    m: Morphism,
    depth: int | None = DEFAULT_DEPTH,
    max_arity: int = DEFAULT_MAX_ARITY,
    cap: int = DEFAULT_CAP,
) -> Flux:
    """Information flux of a morphism at the given closure bound.

    Atomic arrows close the extensions their view maps produce, channel by
    channel.  Composites intersect the factor fluxes across the shared middle
    object; side-by-side arrows re-tag the factor channels through their
    component maps.
    """
    kind = m.parts[0]
    if kind == "atomic":
        return Flux(*_atomic_channels(m, depth, max_arity, cap))
    if kind == "compose":
        g, f = m.parts[1], m.parts[2]
        return flux_intersection(
            flux(f, depth, max_arity, cap), flux(g, depth, max_arity, cap)
        )
    if kind != "sum":
        raise DbcatError(f"unknown morphism structure {kind!r}")
    chans, fix = [], True
    for h, scomps, tcomps in m.parts[1:]:
        fh = flux(h, depth, max_arity, cap)
        smap, tmap = dict(scomps), dict(tcomps)
        chans.extend((smap.get(s, s), tmap.get(t, t), exts) for s, t, exts in fh.channels)
        fix = fix and fh.fixpoint
    return Flux(tuple(sorted(chans)), fix)


def flux_intersection(a: Flux, b: Flux) -> Flux:
    """Channel-matched intersection, as used when composing morphisms."""
    merged: dict = {}
    for s1, t1, e1 in a.channels:
        for s2, t2, e2 in b.channels:
            if t1 == s2:
                shared = e1 & e2
                if shared:
                    cur = merged.get((s1, t2), frozenset())
                    merged[(s1, t2)] = cur | shared
    return Flux(
        tuple(sorted((s, t, e) for (s, t), e in merged.items())),
        a.fixpoint and b.fixpoint,
    )


def equivalent(
    f: Morphism,
    g: Morphism,
    depth: int | None = DEFAULT_DEPTH,
    max_arity: int = DEFAULT_MAX_ARITY,
    cap: int = DEFAULT_CAP,
) -> bool:
    """Flux equality at a shared bound (exact when both reach a fixpoint)."""
    return flux(f, depth, max_arity, cap).same(flux(g, depth, max_arity, cap))


# ---------------------------------------------------------------------------
# duality report


class DualityReport(Record):
    checks: tuple
    note: str

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


SET_COUNTEREXAMPLE_NOTE = (
    "In the category of plain sets this duality fails: two one-element sets "
    "have a one-element cartesian product but a two-element disjoint union, "
    "so product and coproduct cannot coincide there.  Here the disjoint union "
    "serves as both."
)


def verify_duality(
    a: Instance,
    b: Instance,
    f: Morphism | None = None,
    g: Morphism | None = None,
    depth: int | None = None,
    max_arity: int | None = None,
    cap: int = DEFAULT_CAP,
):
    """Check that the coproduct of *a* and *b* also behaves as their product.

    Optional *f*, *g* (arrows into *a* and *b* from a common source) feed the
    product triangle laws; by default the projections themselves are used.
    """
    if max_arity is None:
        max_arity = max(2, a.max_arity(), b.max_arity())
    ab = disjoint_union(a, b)
    in_a, in_b = injection(a, b, "left"), injection(a, b, "right")
    p_a, p_b = projection(a, b, "left"), projection(a, b, "right")
    if f is None or g is None:
        f, g = p_a, p_b
    paired = pairing(f, g)
    laws = (
        ("projection-after-injection-left", compose(p_a, in_a), identity(a), "p_A . in_A ~ id_A"),
        ("projection-after-injection-right", compose(p_b, in_b), identity(b), "p_B . in_B ~ id_B"),
        ("product-triangle-left", compose(p_a, paired), f, "p_A . <f,g> ~ f"),
        ("product-triangle-right", compose(p_b, paired), g, "p_B . <f,g> ~ g"),
    )
    checks = [
        (cid, equivalent(lhs, rhs, depth, max_arity, cap), law) for cid, lhs, rhs, law in laws
    ]
    va, vb, vab = (power_view_cached(x, depth, max_arity, cap) for x in (a, b, ab))
    checks.append(
        (
            "views-of-coproduct",
            tuple(sorted(va.canonical() + vb.canonical())) == vab.canonical(),
            "views(A+B) = views(A) (+) views(B)",
        )
    )
    if not is_empty_isomorphic(a):
        checks.append(
            (
                "replication-not-isomorphic",
                not instances_isomorphic(a, disjoint_union(a, a), depth, max_arity, cap),
                "A+A is a genuine replication of nonempty A",
            )
        )
    return DualityReport(tuple(checks), SET_COUNTEREXAMPLE_NOTE)
