"""Finite relational instances: relations, values, component tagging, disjoint union.

Instances are immutable values.  Every instance implicitly contains the empty
relation and none stores it: :func:`bottom_instance` has no relations.
Relations carry a component id so that instances built by :func:`disjoint_union`
remember which side each relation came from; an ordinary instance keeps
everything in component 0.

Both sums, :func:`disjoint_union` and :func:`federate`, name relations by
:func:`qualified_names`, the one rule that forms ``name#k``, so nested sums
never collide and name relations as ``interpret_term`` does.

The value classes of the whole package derive from :class:`Record`.
"""
from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from functools import cached_property, lru_cache
from itertools import chain
from operator import attrgetter, itemgetter


#: The bounds of a listing (``power_view``, ``flux``) when a caller gives none.  A verdict
#: decides at fixpoint, where no depth or cap is read and no width changes an answer.
DEFAULT_DEPTH = 2
DEFAULT_MAX_ARITY = 4
DEFAULT_CAP = 100_000
MEMO_ENTRIES = 64  # entries per memo; tools/memo_traffic.py shows what each one holds


class DbcatError(Exception):
    """Base class for all errors raised by this package."""


class ArityError(DbcatError):
    pass


_set = object.__setattr__


class Record:
    """Base of the immutable value classes: each behaves as a frozen dataclass.

    A subclass's fields are its annotations, after its parent's; a class
    attribute of the same name is a default, and ``__post_init__`` runs once
    the fields are set.  Two instances of one class are equal when their
    fields are, and hash as the field tuple.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(n for n in cls.__annotations__ if n not in cls._fields)
        cls._fields = names = cls._fields + own
        count, required = len(names), sum(not hasattr(cls, n) for n in names)
        if not all(hasattr(cls, n) for n in names[required:]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        fallback = tuple(getattr(cls, n, None) for n in names)
        post, get = getattr(cls, "__post_init__", None), names and attrgetter(*names)
        key = get if count > 1 else (lambda self: (get(self),)) if names else (lambda self: ())

        def __init__(self, *args, **kwargs):
            given = len(args)
            if kwargs or given != count:
                if given > count or not all(map(kwargs.__contains__, names[given:required])):
                    raise TypeError(f"{cls.__name__}() takes {', '.join(names)}: too many or too few")
                args += tuple(map(kwargs.pop, names[given:], fallback[given:])) if kwargs else fallback[given:]
                if kwargs:
                    raise TypeError(f"{cls.__name__}() got unknown or repeated {', '.join(kwargs)}")
            i = 0
            for value in args:
                _set(self, names[i], value)
                i += 1
            if post is not None:
                post(self)

        def __eq__(self, other):
            return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

        def __hash__(self):
            return hash(key(self))

        for method in (__init__, __eq__, __hash__):
            if method.__name__ not in cls.__dict__:
                setattr(cls, method.__name__, method)

    @classmethod
    def _derived(cls, *values):
        """The value whose fields are *values*, all given and already valid, as
        when derived from valid values: ``__post_init__`` does not run."""
        self = cls.__new__(cls)
        self.__dict__.update(zip(cls._fields, values))
        return self

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Verdicts(Record):
    """What a checker finds: one (check id, ok, detail) line per check."""

    checks: tuple

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


class Sentinel(Record):
    """Reserved constant lying outside every user value domain."""

    tag: str

    def __repr__(self) -> str:
        return f"#{self.tag}"


SENTINEL_A = Sentinel("A")
SENTINEL_B = Sentinel("B")

#: A value is an integer, a string, or one of the two reserved sentinels.
Value = int | str | Sentinel


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


class Relation(Record):
    """A named finite set of equal-length tuples."""

    name: str
    arity: int
    tuples: frozenset = frozenset()

    def __post_init__(self):
        if self.arity < 0:
            raise ArityError(f"negative arity for {self.name}")
        for t in self.tuples:
            if not isinstance(t, tuple) or len(t) != self.arity:
                raise ArityError(f"tuple {t!r} does not match arity {self.arity} of {self.name}")


class Instance(Record):
    """A finite database: relations plus a relation-name -> component-id map.
    Its name lookup and :attr:`closure_signature` are cached properties."""

    relations: tuple
    partition: tuple

    def __post_init__(self):
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise DbcatError(f"duplicate relation names: {names}")
        part = dict(self.partition)
        if len(part) != len(self.partition):
            raise DbcatError(f"partition lists a relation name twice: {self.partition}")
        if set(part) != set(names):
            raise DbcatError("partition must cover exactly the relation names")
        object.__setattr__(self, "relations", tuple(sorted(self.relations, key=lambda r: r.name)))
        object.__setattr__(self, "partition", tuple(sorted(part.items())))

    @cached_property
    def _by_name(self) -> dict:
        """Relation name -> (relation, component id)."""
        part = dict(self.partition)
        return {r.name: (r, part[r.name]) for r in self.relations}

    @cached_property
    def _indexes(self) -> dict:
        return {}

    @cached_property
    def closure_signature(self) -> frozenset:
        """Per component with a nonempty relation, the pair (active domain,
        holds ``{()}``), as a multiset: a frozenset of (pair, count) items.
        No operator adds a value or a nullary tuple, so every closure of the
        component has the pair of its seeds, and at fixpoint the pair fixes
        the closure (see :mod:`dbcat.powerview`).  Outside equality and
        hashing; a non-federated sum is born with it when both summands hold it."""
        seeds, counts = {}, {}
        for r, comp in self._by_name.values():
            if r.tuples:  # a component holding only empty relations has no pair
                seeds.setdefault(comp, []).append(r.tuples)
        for seed in seeds.values():
            pair = seed_pair(seed)
            counts[pair] = counts.get(pair, 0) + 1
        return frozenset(counts.items())

    def _entry(self, name: str) -> tuple:
        try:
            return self._by_name[name]
        except KeyError:
            raise DbcatError(f"unknown relation {name!r}") from None

    def relation(self, name: str) -> Relation:
        return self._entry(name)[0]

    @property
    def names(self) -> tuple:
        return tuple(r.name for r in self.relations)

    def has(self, name: str) -> bool:
        return name in self._by_name

    def component_of(self, name: str) -> int:
        return self._entry(name)[1]

    def index(self, name: str, cols: tuple) -> dict:
        """Hash index of relation *name* on the columns *cols*, as
        :func:`index_tuples` builds it.  Built on first use and cached with
        the instance; it never takes part in equality or hashing.  A
        concurrent first use may build the same index twice, but only one
        copy is kept.  Queries ask only for partial keys: a key that binds
        every column is tested against the relation's own tuples."""
        key = (name, cols)
        idx = self._indexes.get(key)
        if idx is None:
            idx = self._indexes.setdefault(key, index_tuples(self.relation(name).tuples, cols))
        return idx

    def components(self) -> dict:
        """Component id -> list of relations, in name order."""
        out: dict = {}
        for r, comp in self._by_name.values():
            out.setdefault(comp, []).append(r)
        return out

    def max_arity(self) -> int:
        return max((r.arity for r in self.relations), default=0)


def picker(cols: Sequence[int]):
    """C-level projection and rename kernel taking a tuple to the tuple of its values
    at *cols*: an itemgetter, over a slice for adjacent columns so that one column gives a 1-tuple."""
    start = cols[0] if cols else 0
    if len(cols) < 2 or tuple(cols) == tuple(range(start, start + len(cols))):
        return itemgetter(slice(start, start + len(cols)))
    return itemgetter(*cols)


def index_tuples(tuples: Collection[tuple], cols: Sequence[int]) -> dict:
    """Hash index of *tuples* on *cols*: key (a bare value on one column, a tuple on several) -> the
    tuples with it, a 1-tuple while every key is unique (built in C), else a list; on no column, () -> *tuples*."""
    if not cols:
        return {(): tuples} if tuples else {}
    key = itemgetter(*cols)
    idx = dict(zip(map(key, tuples), zip(tuples)))
    if len(idx) < len(tuples):  # some key repeats
        idx = {}
        for t in tuples:
            idx.setdefault(key(t), []).append(t)
    return idx


def make_instance(
    rels: Mapping[str, Iterable[Sequence[Value]]],
    *,
    arities: Mapping[str, int] | None = None,
    partition: Mapping[str, int] | None = None,
) -> Instance:
    """Build an instance from literal tuple data.

    Arities are inferred from the tuples; relations with no tuples need an
    entry in *arities*.
    """
    relations = []
    for name, tuples in rels.items():
        tuples = frozenset(tuple(t) for t in tuples)
        if tuples:
            arity = len(next(iter(tuples)))
        elif arities and name in arities:
            arity = arities[name]
        else:
            raise ArityError(f"empty relation {name!r} needs an explicit arity")
        relations.append(Relation(name, arity, tuples))
    part = {name: (partition or {}).get(name, 0) for name in rels}
    return Instance(tuple(relations), tuple(part.items()))


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


def qualified_names(names: Sequence[str]) -> list:
    """The names the relations of a sum take, given their names in leaf order.

    The base of a name is the part before ``#``.  Each name whose base
    occurs more than once becomes ``base#k``, k being its rank among the
    names with that base; every other name is kept as it is.
    """
    bases = [name.partition("#")[0] for name in names]
    total, rank, out = dict.fromkeys(bases, 0), {}, []
    for base in bases:
        total[base] += 1
    for name, base in zip(names, bases):
        rank[base] = k = rank.get(base, 0) + 1
        out.append(name if total[base] == 1 else f"{base}#{k}")
    return out


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


def seed_pair(seeds: Iterable[frozenset]) -> tuple:
    """The pair (active domain, holds ``{()}``) of a component whose nonempty
    extensions are *seeds*."""
    tuples = frozenset().union(*seeds)
    return frozenset().union(*tuples), () in tuples
