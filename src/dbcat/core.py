"""Finite relational instances: relations, values, component tagging, disjoint union.

Instances are immutable values.  Every instance implicitly contains the empty
relation; it is stored explicitly only in the bottom instance returned by
:func:`bottom_instance`.  Relations carry a component id so that instances
built by :func:`disjoint_union` remember which side each relation came from;
an ordinary instance keeps everything in component 0.

Both sums, :func:`disjoint_union` and :func:`federate`, name relations by
:func:`qualified_names`, the one rule that forms ``name#k``, so nested sums
never collide and name relations as ``interpret_term`` does.

The value classes of the whole package derive from :class:`Record`.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from operator import attrgetter


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
    fields are, and hash as the field tuple.  Fields named by the class
    keyword ``hidden`` take no part in equality, hashing or ``repr``.
    """

    __slots__ = ()
    _fields = _shown = ()

    def __init_subclass__(cls, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(n for n in cls.__annotations__ if n not in cls._fields)
        cls._fields = names = cls._fields + own
        cls._shown = shown = cls._shown + tuple(n for n in own if n not in hidden)
        count, required = len(names), sum(not hasattr(cls, n) for n in names)
        if not all(hasattr(cls, n) for n in names[required:]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        fallback = tuple(getattr(cls, n, None) for n in names)
        post, get = getattr(cls, "__post_init__", None), shown and attrgetter(*shown)
        key = get if len(shown) > 1 else (lambda self: (get(self),)) if shown else (lambda self: ())

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

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Sentinel(Record):
    """Reserved constant lying outside every user value domain."""

    tag: str

    def __repr__(self) -> str:
        return f"#{self.tag}"


SENTINEL_A = Sentinel("A")
SENTINEL_B = Sentinel("B")

#: A value is an integer, a string, or one of the two reserved sentinels.
Value = int | str | Sentinel

#: Name of the distinguished empty relation (arity 0, never any tuples).
BOT = "_bot"


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
    """Exact sort key for a frozenset of extensions, such as a closure.

    Equality and hashing are the frozenset's, whose hash CPython caches.  The
    order is by size, then hash; only two unequal sets that tie on both are
    ordered by their sorted :func:`ext_key` lists, so the order is total and
    exact even when hashes collide.  Hashes of strings vary between
    processes, so the order is for comparisons within one process; reports
    sort by :func:`ext_key`.
    """

    __slots__ = ("exts",)

    def __init__(self, exts: frozenset):
        self.exts = exts

    def __eq__(self, other) -> bool:
        return self.exts is other.exts or self.exts == other.exts

    def __hash__(self) -> int:
        return hash(self.exts)

    def __lt__(self, other) -> bool:
        a, b = self.exts, other.exts
        ka, kb = (len(a), hash(a)), (len(b), hash(b))
        if ka != kb:
            return ka < kb
        return a != b and sorted(map(ext_key, a)) < sorted(map(ext_key, b))


def format_value(v: Value) -> str:
    if isinstance(v, Sentinel):
        return repr(v)
    if isinstance(v, str):
        return f"'{v}'"
    return str(v)


def format_tuple(t: Sequence[Value]) -> str:
    return "(" + ",".join(format_value(v) for v in t) + ")"


def format_extension(ext: frozenset) -> str:
    return "{" + " ".join(format_tuple(t) for t in sorted(ext, key=tuple_key)) + "}"


class Relation(Record):
    """A named finite set of equal-length tuples."""

    name: str
    arity: int
    tuples: frozenset = frozenset()
    attributes: tuple = ()

    def __post_init__(self):
        if self.arity < 0:
            raise ArityError(f"negative arity for {self.name}")
        for t in self.tuples:
            if not isinstance(t, tuple) or len(t) != self.arity:
                raise ArityError(f"tuple {t!r} does not match arity {self.arity} of {self.name}")
        if not self.attributes:
            object.__setattr__(self, "attributes", tuple(f"c{i}" for i in range(self.arity)))
        elif len(self.attributes) != self.arity:
            raise ArityError(f"attribute list of {self.name} does not match arity")

    @property
    def is_empty(self) -> bool:
        return not self.tuples


class Instance(Record):
    """A finite database: relations plus a relation-name -> component-id map."""

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
        """Hash index of relation *name* on the columns *cols*: key tuple ->
        tuples holding those values there; ``cols=()`` maps ``()`` to every
        tuple.  Built on first use and cached with the instance; it never
        takes part in equality or hashing.  A concurrent first use may build
        the same index twice, but only one copy is kept."""
        key = (name, cols)
        idx = self._indexes.get(key)
        if idx is None:
            idx = self._indexes.setdefault(key, _build_index(self.relation(name), cols))
        return idx

    def components(self) -> dict:
        """Component id -> list of relations, in name order."""
        out: dict = {}
        part = dict(self.partition)
        for r in self.relations:
            out.setdefault(part[r.name], []).append(r)
        return out

    def max_arity(self) -> int:
        return max((r.arity for r in self.relations), default=0)


def _build_index(r: Relation, cols: tuple) -> dict:
    idx: dict = {}
    for t in r.tuples:
        idx.setdefault(tuple(t[c] for c in cols), []).append(t)
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
    """The instance containing only the empty relation."""
    return Instance((Relation(BOT, 0),), ((BOT, 0),))


def is_empty_isomorphic(a: Instance) -> bool:
    """True iff every relation of *a* has zero tuples."""
    return all(r.is_empty for r in a.relations)


def active_domain(a: Instance) -> frozenset:
    """All values occurring in any tuple of *a*."""
    return frozenset(v for r in a.relations for t in r.tuples for v in t)


def active_domain_by_component(a: Instance) -> dict:
    out: dict = {}
    for comp, rels in a.components().items():
        out[comp] = frozenset(v for r in rels for t in r.tuples for v in t)
    return out


def qualified_names(names: Sequence[str]) -> list:
    """The names the relations of a sum take, given their names in leaf order.

    The base of a name is the part before ``#``.  Each name whose base
    occurs more than once becomes ``base#k``, k being its rank among the
    names with that base; every other name is kept as it is.
    """
    bases = [name.partition("#")[0] for name in names]
    counts, ranks, out = Counter(bases), Counter(), []
    for name, base in zip(names, bases):
        ranks[base] += 1
        out.append(name if counts[base] == 1 else f"{base}#{ranks[base]}")
    return out


def _leaf_key(r: Relation) -> tuple:
    """Leaf order within one summand: by base, the bare name first, then by
    numeric suffix; any other suffix sorts after the numeric ones."""
    base, _, k = r.name.partition("#")
    return (base, bool(k), not k.isdecimal(), int(k) if k.isdecimal() else 0, k)


def disjoint_union_with_maps(a: Instance, b: Instance):
    """Disjoint union keeping track of how names and components were relabeled.

    Returns ``(instance, name_map_a, name_map_b, comp_map_a, comp_map_b)``.
    Components are renumbered 1..n, *a*'s first.  Relations are named by
    :func:`qualified_names` in leaf order, *a*'s first, so a name map may
    rename a name that was already qualified: ``r#1`` of a nested sum
    becomes ``r#2`` after a bare ``r``.  The distinguished empty relation is
    dropped from both sides (it is implicit) unless nothing else remains.
    """
    comp_maps, taken = [], 1
    for inst in (a, b):
        comps = sorted({c for _, c in inst.partition})
        comp_maps.append(dict(zip(comps, range(taken, taken + len(comps)))))
        taken += len(comps)
    rels = [
        (side, r, comp_maps[side][inst.component_of(r.name)])
        for side, inst in enumerate((a, b))
        for r in sorted(inst.relations, key=_leaf_key)
        if r.name != BOT
    ]
    name_maps = ({}, {})
    relations, partition = [], []
    for (side, r, comp), name in zip(rels, qualified_names([r.name for _, r, _ in rels])):
        name_maps[side][r.name] = name
        relations.append(Relation(name, r.arity, r.tuples))
        partition.append((name, comp))
    inst = Instance(tuple(relations), tuple(partition)) if relations else bottom_instance()
    return (inst, *name_maps, *comp_maps)


def disjoint_union(a: Instance, b: Instance) -> Instance:
    """Coproduct of two instances: every relation tagged with a fresh component."""
    return disjoint_union_with_maps(a, b)[0]


def federate(a: Instance, b: Instance) -> Instance:
    """Single-component union of two instances (one shared query engine): the
    disjoint union with every relation in component 0, so queries may span
    both inputs."""
    ab = disjoint_union_with_maps(a, b)[0]
    return Instance(ab.relations, tuple((name, 0) for name in ab.names))
