"""Integrity constraints: tuple- and equality-generating dependencies.

Constraints are checked against finite instances, never repaired.  Existential
witnesses on the right side of a dependency range over the instance's active
domain and the dependency's constants, extended with the two reserved sentinel
constants, which keeps the sentinel dependencies produced by sketch
construction checkable.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property, partial

from . import queries
from .core import SENTINEL_A, SENTINEL_B, DbcatError, Instance, Record, active_domain, format_value, tuple_key
from .queries import atom_components, atom_constants, bind, rename_atoms


class ConstraintError(DbcatError):
    pass


def _vars_of(atoms) -> frozenset:
    return frozenset(v.name for a in atoms for v in a.variables())


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
        """The :func:`~dbcat.queries.plan` streaming the left side's universal tuples."""
        return queries.plan(self.left, (), self.universal)

    @cached_property
    def _right(self) -> tuple:
        """The plan of the right side fed the universal tuples: it streams the witnessed ones."""
        return queries.plan(self.right, self.universal, self.universal)


class Egd(Record):
    """``forall x (left(x)) => x1 = x2``."""

    left: tuple
    pair: tuple

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
        """The :func:`~dbcat.queries.plan` streaming the assignments that equate two distinct values."""
        return queries.plan(self.left, (), self._variables, self.pair)


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


def _constraint_domain(atoms, inst: Instance, with_sentinels: bool) -> frozenset:
    values = atom_constants(atoms) | active_domain(inst)
    return values | {SENTINEL_A, SENTINEL_B} if with_sentinels else values


def _violations(d: Tgd | Egd, inst: Instance):
    """``(names, rows)``: the variables a violation binds, and a stream of rows
    of their values.  For a TGD: the left side's distinct universal tuples
    less those a semi-join with the right side witnesses; a right-side
    variable only a built-in binds ranges over the left side's domain, the
    right side's constants and the sentinels.  For an EGD: the satisfying
    assignments, over its variables by name, equating two distinct values;
    its kernel tests the pair."""
    domain = partial(_constraint_domain, d.left, inst, with_sentinels=False)
    if isinstance(d, Egd):
        atom_components(d.left, inst)
        return d._variables, bind(d._plan, inst, domain)([()])
    atom_components(d.left + d.right, inst)
    right_domain = partial(_constraint_domain, d.left + d.right, inst, with_sentinels=True)
    universals = set(bind(d._left, inst, domain)([()]))
    return d.universal, iter(universals.difference(bind(d._right, inst, right_domain)(universals)))


def _least_violation(d: Tgd | Egd, inst: Instance):
    names, rows = _violations(d, inst)
    row = min(rows, key=tuple_key, default=None)
    return None if row is None else dict(zip(names, row))


def find_tgd_violation(t: Tgd, inst: Instance):
    """The universal assignment whose right side has no witness that is least
    in value order of the universal tuple, or None."""
    return _least_violation(t, inst)


def check_tgd(t: Tgd, inst: Instance) -> bool:
    return next(_violations(t, inst)[1], None) is None


def find_egd_violation(e: Egd, inst: Instance):
    """The satisfying assignment equating two distinct values that is least in
    value order over the variables sorted by name, or None."""
    return _least_violation(e, inst)


def check_egd(e: Egd, inst: Instance) -> bool:
    return next(_violations(e, inst)[1], None) is None


def find_sentence_violation(s: Sentence, inst: Instance):
    """Description of the first violated conjunct, at its least violation, or
    None when satisfied."""
    for idx, item in enumerate(s.items):
        env = _least_violation(item, inst)
        if env is not None:
            kind = "tgd" if isinstance(item, Tgd) else "egd"
            binding = " ".join(f"{k}={format_value(v)}" for k, v in sorted(env.items()))
            return f"{kind}[{idx}] fails at {binding}" if binding else f"{kind}[{idx}] fails"
    return None


def check_sentence(s: Sentence, inst: Instance) -> bool:
    """Conjunction over all items; the empty sentence always holds."""
    return find_sentence_violation(s, inst) is None
