"""The syntax of queries and dependencies, which parsing, schemas and sketches
need without the engines that run them: rules, TGDs, EGDs, sentences and the
errors they raise.  A record imports :mod:`dbcat.rules` to build its plan."""
from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache

from .values import MEMO_ENTRIES, DbcatError, Record, Value


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


class ConstraintError(DbcatError):
    pass


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

    def rename_relations(self, mapping: dict) -> "Rule":
        return Rule(self.head_name, self.head_vars, rename_atoms(self.body, mapping))

    @cached_property
    def _copies(self) -> str:
        """The relation a copy rule copies, else "": one relation atom over
        the head's distinct variables, in order, nullary included."""
        (atom, *rest), hv = self.body, self.head_vars
        copies = not rest and isinstance(atom, RelAtom) and atom.args == hv and len(set(hv)) == len(hv)
        return atom.name if copies else ""

    @cached_property
    def _plan(self) -> tuple:
        """The :func:`~dbcat.rules.plan` streaming the head's values."""
        from . import rules
        return rules.plan(self.body, (), [v.name for v in self.head_vars])

    @cached_property
    def _spjru(self):
        """The :func:`~dbcat.queries.rule_to_spjru` term, translated once."""
        from . import queries
        return queries._translate(self)


def rename_atoms(atoms, mapping: dict) -> tuple:
    """*atoms* with each relation atom's name mapped by *mapping*, when it has an entry."""
    return tuple(
        RelAtom(mapping.get(a.name, a.name), a.args) if isinstance(a, RelAtom) else a for a in atoms
    )


@lru_cache(maxsize=MEMO_ENTRIES)
def copy_rule(name: str, source: str, arity: int) -> Rule:
    """``q_<name>(X0..Xk) :- source(X0..Xk)``: copies one relation whole, which ``eval_rule`` answers without a plan."""
    hv = tuple(Var(f"X{i}") for i in range(arity))
    return Rule(f"q_{name}", hv, (RelAtom(source, hv),))


def _vars_of(atoms) -> frozenset:
    return frozenset(v.name for a in atoms for v in a.variables())


def _read_key_form(d):
    from .constraints import key_form  # how key views decide the dependency *d*, if they do
    return key_form(d)


class Tgd(Record):
    """``forall x (exists y: left(x,y)) => (exists z: right(x,z))``.

    ``universal`` lists the shared variables x; every other variable on the
    left is implicitly existential (y), likewise on the right (z).  When
    ``weakly_full`` is set the right side must not introduce new variables and
    each left-existential may occur only once.
    """

    universal: tuple
    left: tuple
    right: tuple
    weakly_full: bool = False
    _key_form = cached_property(_read_key_form)

    def __post_init__(self):
        left_vars, right_vars = _vars_of(self.left), _vars_of(self.right)
        for u in self.universal:
            if u not in left_vars:
                raise ConstraintError(f"universal variable {u} missing from the left side")
        if self.weakly_full:
            extra = right_vars - set(self.universal)
            if extra:
                raise ConstraintError(
                    f"weakly-full dependency has existential right variables {sorted(extra)}"
                )
            uses = Counter(v.name for a in self.left for v in a.variables())
            for y in sorted(left_vars - set(self.universal)):
                if uses[y] > 1:
                    raise ConstraintError(
                        f"weakly-full dependency repeats existential variable {y} on the left"
                    )

    @cached_property
    def _left(self) -> tuple:
        """The :func:`~dbcat.rules.plan` streaming the left side's universal tuples."""
        from . import rules
        return rules.plan(self.left, (), self.universal)

    @cached_property
    def _right(self) -> tuple:
        """The plan of the right side fed the universal tuples: it streams the witnessed ones."""
        from . import rules
        return rules.plan(self.right, self.universal, self.universal)


class Egd(Record):
    """``forall x (left(x)) => x1 = x2``."""

    left: tuple
    pair: tuple
    _key_form = cached_property(_read_key_form)

    def __post_init__(self):
        left_vars = _vars_of(self.left)
        for v in self.pair:
            if v not in left_vars:
                raise ConstraintError(f"equated variable {v} missing from the left side")

    @cached_property
    def _variables(self) -> tuple:
        """The variables of the left side, sorted by name."""
        return tuple(sorted(_vars_of(self.left)))

    @cached_property
    def _plan(self) -> tuple:
        """The :func:`~dbcat.rules.plan` streaming the assignments that equate two distinct values."""
        from . import rules
        return rules.plan(self.left, (), self._variables, self.pair)


class Sentence(Record):
    """A finite conjunction of dependencies; the empty conjunction is true."""

    items: tuple = ()

    def rename_relations(self, mapping: dict) -> "Sentence":
        items = []
        for it in self.items:
            if isinstance(it, Tgd):
                left, right = rename_atoms(it.left, mapping), rename_atoms(it.right, mapping)
                items.append(Tgd(it.universal, left, right, it.weakly_full))
            else:
                items.append(Egd(rename_atoms(it.left, mapping), it.pair))
        return Sentence(tuple(items))
