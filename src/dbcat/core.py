"""The instance algebra: value order, report formats, and the two sums.

Both sums, :func:`disjoint_union` and :func:`federate`, name relations by
:func:`~dbcat.values.qualified_names`, the one rule that forms ``name#k``, so
nested sums never collide and name relations as ``interpret_term`` does.
:func:`bottom_instance` has no relations: it holds the implicit empty relation alone.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from itertools import chain

from .values import MEMO_ENTRIES, ArityError, Instance, Record, Relation, Sentinel, Value, qualified_names


#: The bounds of a listing (``power_view``, ``flux``) when a caller gives none.  A verdict
#: decides at fixpoint, where no depth or cap is read and no width changes an answer.
DEFAULT_DEPTH = 2
DEFAULT_MAX_ARITY = 4
DEFAULT_CAP = 100_000


class Verdicts(Record):
    """What a checker finds: one (check id, ok, detail) line per check."""

    checks: tuple

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def value_key(v: Value) -> tuple:
    """Total order on values: integers, then strings, then sentinels."""
    if isinstance(v, bool):  # bool is an int subclass; reject early
        raise TypeError("boolean values are not part of the value domain")
    if isinstance(v, int):
        return (0, v, "")
    if isinstance(v, str):
        return (1, 0, v)
    if isinstance(v, Sentinel):
        return (2, 0 if v.tag == "A" else 1, "")
    raise TypeError(f"not a value: {v!r}")


def tuple_key(t: Sequence[Value]) -> tuple:
    return tuple(value_key(v) for v in t)


def ext_key(ext: frozenset) -> tuple:
    """Canonical sort key for an extension (a set of equal-length tuples)."""
    return (len(next(iter(ext))) if ext else 0, tuple(sorted(tuple_key(t) for t in ext)))


class SetKey:
    """Exact sort key for a closure: a frozenset of extensions, or a
    description with an ``order_key`` (:class:`dbcat.powerview.ClosedForm`).

    Equality and hashing are the closure's; the hash is kept.  The order is
    by hash; only two unequal closures whose hashes collide are ordered by
    their exact forms, a description's ``order_key`` or a set's size and
    sorted :func:`ext_key` list, so the order is total and exact, and a
    description is never counted or listed.  Hashes of strings vary between
    processes, so the order is for comparisons within one process; reports
    sort by :func:`ext_key`.
    """

    __slots__ = ("exts", "hash")

    def __init__(self, exts: frozenset):
        self.exts, self.hash = exts, hash(exts)

    def __eq__(self, other) -> bool:
        return self.exts is other.exts or self.exts == other.exts

    def __hash__(self) -> int:
        return self.hash

    def __lt__(self, other) -> bool:
        if self.hash != other.hash:
            return self.hash < other.hash
        a, b = self.exts, other.exts
        forms = ((1, x.order_key()) if hasattr(x, "order_key") else (0, len(x), sorted(map(ext_key, x))) for x in (a, b))
        return a != b and next(forms) < next(forms)


def format_value(v: Value) -> str:
    if isinstance(v, Sentinel):
        return repr(v)
    if isinstance(v, str):
        return f"'{v}'"
    return str(v)


def format_views(exts: Iterable[frozenset]) -> list:
    """The report strings of the extensions *exts*, in :func:`ext_key` order.
    Distinct values are ranked once by :func:`value_key`, kept apart by class
    so that ``True`` is refused beside ``1``; distinct tuples are ranked by
    their value ranks and formatted once; a view sorts as (arity, its sorted
    tuple ranks)."""
    exts = list(exts)
    tuples = set().union(*exts)
    values = sorted({(v.__class__, v) for t in tuples for v in t}, key=lambda cv: value_key(cv[1]))
    rank = {v: i for i, (_, v) in enumerate(values)}
    order = sorted(tuples, key=lambda t: tuple(map(rank.__getitem__, t)))
    text = ["(" + ",".join(map(format_value, t)) + ")" for t in order]
    pos = dict(zip(order, range(len(order))))
    rows = sorted((len(next(iter(e))) if e else 0, sorted(map(pos.__getitem__, e))) for e in exts)
    return ["{" + " ".join(map(text.__getitem__, r)) + "}" for _, r in rows]


def format_extension(ext: frozenset) -> str:
    return format_views((ext,))[0]


def format_closure(parts: Iterable[tuple], empty_key: tuple) -> list:
    """Report form of a closure kept as keyed parts ``(*key, exts)``: in key
    order, each key and the report strings of its views, the empty view among
    them.  With no part, the empty view is reported at *empty_key*."""
    parts = sorted(parts, key=lambda p: p[:-1]) or [(*empty_key, frozenset())]
    return [[*key, format_views(chain((frozenset(),), exts))] for *key, exts in parts]  # a list display would ask len()


def make_instance(
    rels: Mapping[str, Iterable[Sequence[Value]]],
    *,
    arities: Mapping[str, int] | None = None,
    partition: Mapping[str, int] | None = None,
) -> Instance:
    """Build an instance from literal tuple data.

    A relation's arity is its entry in *arities*, else inferred from its
    tuples, so a relation with no tuples needs an entry.  *partition* maps
    relation names to components; a relation it leaves out is in component 0.
    """
    arities, relations = arities or {}, []
    for name, tuples in rels.items():
        tuples = frozenset(tuple(t) for t in tuples)
        if not tuples and name not in arities:
            raise ArityError(f"empty relation {name!r} needs an explicit arity")
        arity = arities[name] if name in arities else len(next(iter(tuples)))
        relations.append(Relation(name, arity, tuples))
    return Instance(tuple(relations), tuple({**dict.fromkeys(rels, 0), **(partition or {})}.items()))


def bottom_instance() -> Instance:
    """The instance of the implicit empty relation alone: the instance with no
    relations, equal to ``make_instance({})``."""
    return Instance((), ())


def is_empty_isomorphic(a: Instance) -> bool:
    """True iff every relation of *a* has zero tuples."""
    return not any(r.tuples for r in a.relations)


def active_domain(a: Instance) -> frozenset:
    """All values occurring in any tuple of *a*."""
    return frozenset(v for r in a.relations for t in r.tuples for v in t)


def _leaf_key(entry: tuple) -> tuple:
    """Leaf order of (name, component) entries within one summand: by base,
    the bare name first, then by numeric suffix, then any other suffix."""
    base, _, k = entry[0].partition("#")
    return (base, bool(k), not k.isdecimal(), int(k) if k.isdecimal() else 0, k)


@lru_cache(maxsize=MEMO_ENTRIES)
def _sum_layout(pa: tuple, pb: tuple) -> tuple:
    """The layout of the sums of summands partitioned as *pa* and *pb*, worked out
    once per shape: each relation's (new name, side, old name, new component) in
    name order, the sum's partition separated and federated, and the name and
    component maps, which every sum of the shape shares."""
    comp_maps, leaves, taken = [], [], 1
    for part in (pa, pb):
        comp_maps.append({c: k for k, c in enumerate(sorted({c for _, c in part}), taken)})
        taken += len(comp_maps[-1])
        # a partition is in name order: leaf order, unless a name holds '#'
        leaves.append(sorted(part, key=_leaf_key) if "#" in "".join(n for n, _ in part) else part)
    rels = [(side, old, comp_maps[side][c]) for side in (0, 1) for old, c in leaves[side]]
    named = [(name, *rel) for rel, name in zip(rels, qualified_names([old for _, old, _ in rels]))]
    name_maps = ({old: name for name, s, old, _ in named if s == side} for side in (0, 1))
    slots = tuple(sorted(named))
    partitions = tuple(zip(*[((name, comp), (name, 0)) for name, _, _, comp in slots]))
    return (slots, partitions, *name_maps, *comp_maps)


def _sum(a: Instance, b: Instance, federated: bool) -> tuple:
    """The one sum builder, :func:`disjoint_union_with_maps`; *federated* puts every relation in component 0."""
    bare = [not inst.relations for inst in (a, b)]
    if any(bare):
        names = ({n: n for n in inst.names} for inst in (a, b))
        comps = ({c: c for _, c in inst.partition} for inst in (a, b))
        inst = b if bare[0] else a
        inst = Instance._derived(inst.relations, tuple((n, 0) for n in inst.names)) if federated else inst
        return (inst, *names, *comps)
    slots, partitions, *maps = _sum_layout(a.partition, b.partition)
    partition, sides, by_name = partitions[federated], (a._by_name, b._by_name), {}
    for (name, side, old, _), (_, comp) in zip(slots, partition):
        r = sides[side][old][0]  # valid relations under distinct names: nothing to check again
        if name != old:  # a relation's dict holds its fields alone: copy them under the new name
            r, fields = Relation.__new__(Relation), r.__dict__
            r.__dict__.update(fields, name=name)
        by_name[name] = (r, comp)
    inst = Instance.__new__(Instance)
    inst.__dict__.update(relations=tuple(r for r, _ in by_name.values()), partition=partition, _by_name=by_name)
    sigs = [x.__dict__.get("closure_signature") for x in (a, b)]
    if not federated and None not in sigs:  # the sum's components are its summands'
        counts = dict(sigs[0])
        for pair, n in sigs[1]:
            counts[pair] = counts.get(pair, 0) + n
        inst.__dict__["closure_signature"] = frozenset(counts.items())
    return (inst, *maps)


def disjoint_union_with_maps(a: Instance, b: Instance):
    """Disjoint union keeping track of how names and components were relabeled.

    Returns ``(instance, name_map_a, name_map_b, comp_map_a, comp_map_b)``.
    Components are renumbered 1..n, *a*'s first.  Relations are named by
    :func:`qualified_names` in leaf order, *a*'s first, so a name map may
    rename a name that was already qualified: ``r#1`` of a nested sum
    becomes ``r#2`` after a bare ``r``.  Every relation of both summands is
    kept: the empty relation is implicit in each and stored by neither.
    A summand with no relations, ⊥, is the unit: the sum is the other summand
    as it is, with identity maps, so ``A + ⊥ == A == ⊥ + A``.
    Otherwise the sums of one shape share the maps, which callers only read; a sum is
    born with its name lookup and, when both summands hold one, its :attr:`Instance.closure_signature`.
    """
    return _sum(a, b, False)


def disjoint_union(a: Instance, b: Instance) -> Instance:
    """Coproduct of two instances: every relation tagged with a fresh component."""
    return disjoint_union_with_maps(a, b)[0]


def federate(a: Instance, b: Instance) -> Instance:
    """Single-component union of two instances (one shared query engine): the
    disjoint union with every relation in component 0, so queries may span
    both inputs."""
    return _sum(a, b, True)[0]

