"""What a workspace reader builds: errors, the record base, values, relations and instances.

Instances are immutable values.  Every instance implicitly contains the empty
relation and none stores it.  Relations carry a component id so that a sum
(:mod:`dbcat.core`, the instance algebra) remembers which side each relation
came from; an ordinary instance keeps everything in component 0.

The value classes of the whole package derive from :class:`Record`.  This
module imports no other ``dbcat`` module.
"""
from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from functools import cached_property
from operator import attrgetter, itemgetter

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


class Sentinel(Record):
    """Reserved constant lying outside every user value domain."""

    tag: str

    def __repr__(self) -> str:
        return f"#{self.tag}"


SENTINEL_A = Sentinel("A")
SENTINEL_B = Sentinel("B")

#: A value is an integer, a string, or one of the two reserved sentinels.
Value = int | str | Sentinel


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


def seed_pair(seeds: Iterable[frozenset]) -> tuple:
    """The pair (active domain, holds ``{()}``) of a component whose nonempty
    extensions are *seeds*."""
    tuples = frozenset().union(*seeds)
    return frozenset().union(*tuples), () in tuples


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
