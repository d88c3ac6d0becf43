"""Finite relational instances, bounded power-views, and a category of
view-based database mappings with functorial model checking.

``import dbcat`` loads no submodule.  Each name below is imported from its
home module the first time it is used (PEP 562), and is then bound here, so
later lookups are plain attribute reads.  The values a workspace is read into
live in ``dbcat.values``, which imports no other module of the package;
``dbcat.core``, the instance algebra, loads it alone.
"""

import importlib

__version__ = "0.1.0"

#: Each exported name and the module that defines it.
_HOME = {
    name: module
    for module, names in (
        ("values", "SENTINEL_A SENTINEL_B DbcatError Instance Relation Sentinel"),
        ("core", "active_domain bottom_instance disjoint_union federate is_empty_isomorphic make_instance"),
        ("syntax", "Builtin Const CrossComponentQuery Egd RelAtom Rule Sentence Tgd Var"),
        ("rules", "eval_rule"),
        ("queries", "BaseRel ColEq ConstEq Join Project Rename Select Union eval_spjru rule rule_to_spjru"),
        ("constraints", "check_egd check_sentence check_tgd"),
        ("powerview", "ViewSet instances_isomorphic matching merging power_view"),
        ("category", "Flux ModeViolation Morphism ViewMap compose coproduct_morphism empty_morphism "
                     "equivalent flux identity injection make_atomic mediating pairing projection "
                     "verify_duality"),
        ("schemas", "EMPTY_SCHEMA MappingGraph SAtom Schema SchemaMapping branch fed make_pair "
                    "mapping_graph schema_identity sep term_layout"),
        ("sketch", "Sketch build_sketch"),
        ("interpret", "Interpretation check_functor check_gamma_iso check_model interpret_arrow "
                      "interpret_term interpretation"),
        ("dsl", "Workspace parse_workspace parse_workspace_text"),
        ("writer", "serialize_workspace"),
    )
    for name in names.split()
}

__all__ = list(_HOME)


def __getattr__(name):
    # An AttributeError here is what lets ``from dbcat import dsl`` go on to
    # import the submodule.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
