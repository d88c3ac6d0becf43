"""Integrity constraints: tuple- and equality-generating dependencies.

Constraints are checked against finite instances, never repaired.  Existential
witnesses on the right side of a dependency range over the instance's active
domain and the dependency's constants, extended with the two reserved sentinel
constants, which keeps the sentinel dependencies produced by sketch
construction checkable.
"""
from __future__ import annotations

from functools import partial

from .core import SENTINEL_A, SENTINEL_B, DbcatError, Instance, Record, active_domain, format_value
from .queries import RelAtom, atom_components, atom_constants, match_atoms, matcher


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
            exist = left_vars - set(self.universal)
            for y in exist:
                count = sum(
                    1
                    for a in self.left
                    for v in a.variables()
                    if v.name == y
                )
                if count > 1:
                    raise ConstraintError(
                        f"weakly-full dependency repeats existential variable {y} on the left"
                    )


class Egd(Record):
    """``forall x (left(x)) => x1 = x2``."""

    left: tuple
    pair: tuple

    def __post_init__(self):
        left_vars = _vars_of(self.left)
        for v in self.pair:
            if v not in left_vars:
                raise ConstraintError(f"equated variable {v} missing from the left side")


class Sentence(Record):
    """A finite conjunction of dependencies; the empty conjunction is true."""

    items: tuple = ()

    def __bool__(self):
        return bool(self.items)

    def rename_relations(self, mapping: dict) -> "Sentence":
        def ren(atoms):
            return tuple(
                RelAtom(mapping.get(a.name, a.name), a.args) if isinstance(a, RelAtom) else a
                for a in atoms
            )

        items = []
        for it in self.items:
            if isinstance(it, Tgd):
                items.append(Tgd(it.universal, ren(it.left), ren(it.right), it.weakly_full))
            else:
                items.append(Egd(ren(it.left), it.pair))
        return Sentence(tuple(items))


def _constraint_domain(atoms, inst: Instance, with_sentinels: bool) -> frozenset:
    values = atom_constants(atoms) | active_domain(inst)
    return values | {SENTINEL_A, SENTINEL_B} if with_sentinels else values


def find_tgd_violation(t: Tgd, inst: Instance):
    """First universal assignment whose right side has no witness, or None.

    A right-side variable that only a built-in binds ranges over the left
    side's domain, the right side's constants and the sentinels."""
    atom_components(t.left + t.right, inst)
    left_domain = partial(_constraint_domain, t.left, inst, with_sentinels=False)
    right_domain = partial(_constraint_domain, t.left + t.right, inst, with_sentinels=True)
    witnesses = matcher(t.right, inst, right_domain, t.universal)
    seen = set()
    for env in match_atoms(t.left, inst, left_domain):
        ua = tuple(env[u] for u in t.universal)
        if ua in seen:
            continue
        seen.add(ua)
        fixed = dict(zip(t.universal, ua))
        if next(witnesses(fixed), None) is None:
            return fixed
    return None


def check_tgd(t: Tgd, inst: Instance) -> bool:
    return find_tgd_violation(t, inst) is None


def find_egd_violation(e: Egd, inst: Instance):
    """First satisfying assignment equating two distinct values, or None."""
    atom_components(e.left, inst)
    domain = partial(_constraint_domain, e.left, inst, with_sentinels=False)
    a, b = e.pair
    for env in match_atoms(e.left, inst, domain):
        if env[a] != env[b]:
            return env
    return None


def check_egd(e: Egd, inst: Instance) -> bool:
    return find_egd_violation(e, inst) is None


def find_sentence_violation(s: Sentence, inst: Instance):
    """Description of the first violated conjunct, or None when satisfied."""
    for idx, item in enumerate(s.items):
        if isinstance(item, Tgd):
            env = find_tgd_violation(item, inst)
            if env is not None:
                binding = " ".join(f"{k}={format_value(v)}" for k, v in sorted(env.items()))
                return f"tgd[{idx}] fails at {binding}" if binding else f"tgd[{idx}] fails"
        else:
            env = find_egd_violation(item, inst)
            if env is not None:
                binding = " ".join(f"{k}={format_value(v)}" for k, v in sorted(env.items()))
                return f"egd[{idx}] fails at {binding}"
    return None


def check_sentence(s: Sentence, inst: Instance) -> bool:
    """Conjunction over all items; the empty sentence always holds."""
    return find_sentence_violation(s, inst) is None
