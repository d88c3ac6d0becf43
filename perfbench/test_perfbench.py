"""Self-tests of the benchmark: seeded generators, output checkers, tracing.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402
from dbcat import core  # noqa: E402
from dbcat import powerview as pv  # noqa: E402
from dbcat.powerview import ViewSet  # noqa: E402


# -- generators -----------------------------------------------------------------


def test_join_inputs_depend_only_on_seed_and_pass():
    a = w.joins_inputs(w.joins_setup(7), 0)
    b = w.joins_inputs(w.joins_setup(7), 0)
    assert a["ops"] == b["ops"]
    assert a["instances"] == b["instances"]
    assert len(a["ops"]) == 4 * sum(w.JOIN_REPEATS.values())
    c = w.joins_inputs(w.joins_setup(8), 0)
    d = w.joins_inputs(w.joins_setup(7), 1)
    assert a["instances"][250, 0] != c["instances"][250, 0]
    assert a["instances"][250, 0] != d["instances"][250, 0]
    assert a["instances"][250, 0] != a["instances"][250, 1]


def test_closure_inputs_depend_only_on_seed_and_pass():
    a = w.closures_inputs(w.closures_setup(3), 0)
    b = w.closures_inputs(w.closures_setup(3), 0)
    assert a == b
    assert a != w.closures_inputs(w.closures_setup(4), 0)
    assert len(set(a["stream"])) == w.STREAM_PER_PASS
    assert list(map(w.component_domains, a["fixset"])) == [
        sorted(values for values, _ in shape) for shape in w.FIXPOINT_SHAPES
    ]


def test_cli_order_depends_only_on_seed_and_pass():
    state = w.cli_setup(5)
    assert w.cli_inputs(state, 0) == w.cli_inputs(w.cli_setup(5), 0)
    assert sorted(w.cli_inputs(state, 0)) == sorted(w.cli_inputs(state, 1))
    assert len(w.cli_inputs(state, 0)) == 2 * len(w.CLI_COMMANDS)


def test_random_instance_has_the_requested_shape():
    rng = random.Random(0)
    for _ in range(200):
        inst = w.random_instance(rng, [((1, 2, 4), (1,)), ((2, 5), (1, 2))])
        assert w.component_domains(inst) == [(1, 2, 4), (2, 5)]
        assert [r.arity for r in inst.relations] == [1, 1, 2]


# -- checkers reject corrupted results ----------------------------------------------


def test_join_checkers_reject_a_dropped_tuple_and_a_flipped_verdict():
    inst, r = w.join_instance(1, 0, 250)
    expected = w.reference_self_join(r)
    assert len(expected) == 250
    good = core.Relation("q", 2, expected)
    assert w.tuples_problem(expected, good) is None
    dropped = core.Relation("q", 2, expected - {next(iter(expected))})
    assert w.tuples_problem(expected, dropped)
    assert w.holds_problem(True) is None
    assert w.holds_problem(False)


def test_cli_checker_rejects_changed_bytes_and_status():
    golden = {"status": 0, "stdout": "a\tPASS\tx\n"}
    assert w.cli_problem(golden, (0, "a\tPASS\tx\n")) is None
    assert w.cli_problem(golden, (1, "a\tPASS\tx\n"))
    assert w.cli_problem(golden, (0, "a\tPASS\tx \n"))


def _closure(inst):
    return pv.power_view(inst, None, 2)


def _drop_one(vs: ViewSet, ext=None) -> ViewSet:
    """The same view set without *ext* (default: its smallest extension)."""
    (comp, exts), *rest = vs.components
    ext = min(exts, key=len) if ext is None else ext
    return ViewSet(((comp, exts - {ext}), *rest), vs.depth, vs.max_arity, vs.fixpoint)


def test_fixpoint_checker_counts_views_and_needs_the_flag():
    a = core.make_instance({"r": [(1, 2)], "s": [(3,)]})
    vs = _closure(a)
    assert w.closure_count(3, 2, False) == 518
    assert w.fixpoint_problem(a, vs) is None
    assert w.fixpoint_problem(a, _drop_one(vs))
    unflagged = ViewSet(vs.components, vs.depth, vs.max_arity, False)
    assert w.fixpoint_problem(a, unflagged)
    assert w.merged_problem(3, vs) is None
    assert w.merged_problem(3, _drop_one(vs))


def test_iso_checker_rejects_flipped_verdicts():
    a = core.make_instance({"r": [(1, 2)]})
    b = core.make_instance({"r": [(1, 3)]})
    assert w.iso_problem(a, a, True, True) is None
    assert w.iso_problem(a, a, False, True)
    assert w.iso_problem(a, b, True)
    assert w.iso_problem(a, b, False) is None
    assert w.iso_problem(a, b, None)


def test_chain_matching_and_duality_checkers_reject_corruption():
    x = core.make_instance({"r": [(1, 2), (2, 3)]})
    levels = [pv.power_view(x, d, 2) for d in (1, 2, 3)]
    assert w.chain_problem(x, levels) is None
    source = x.relations[0].tuples
    assert w.chain_problem(x, [levels[0], _drop_one(levels[1], source), levels[2]])
    assert w.chain_problem(x, [_drop_one(levels[0], source), *levels[1:]])
    va, vb = _closure(x), _closure(core.make_instance({"s": [(1,), (2,)]}))
    shared = pv.matching(x, core.make_instance({"s": [(1,), (2,)]}), None, 2)
    assert w.matching_problem(shared, va, vb) is None
    assert w.matching_problem(va, va, vb)

    class Report:
        passed = False

    assert w.duality_problem(Report())


# -- harness and tracing ----------------------------------------------------------


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ("root", "m", 0.0, 10.0, None, 1),
        ("a", "m", 1.0, 4.0, 0, 1),
        ("b", "m", 3.0, 6.0, 0, 1),  # overlaps a by one unit
        ("c", "m", 2.0, 3.0, 1, 1),
        ("d", "m", 9.0, 12.0, 0, 1),  # runs past the root's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_recorder_counts_raised_and_rejected_ops():
    rec = run.Recorder(run.Probe())
    assert rec.op("k", lambda: 1, check=lambda out: None) == 1
    rec.op("k", lambda: 1 / 0)
    rec.op("k", lambda: 2, check=lambda out: "wrong")
    assert (rec.attempted, rec.failed) == (3, 2)
    rec.end_pass()
    assert rec.pass_sums()[0]["k"] == pytest.approx(sum(rec.scaled()))


def test_latencies_are_rescaled_by_the_probes_around_each_op():
    rec = run.Recorder(run.Probe())
    ref = run.PROBE_REF_S
    rec.latencies = [1.0, 1.0, 1.0]
    # Op 0 runs between samples 0 and 1, op 1 spans sample 2, op 2 follows.
    rec.probe_at, rec.probe_end = [1, 2, 3], [1, 3, 3]
    rec.probe.samples = [ref, 2 * ref, ref, 4 * ref]
    assert rec.scaled() == pytest.approx([1 / 1.5, 3 / 7, 1 / 2.5])
    rec.probe.samples = rec.probe.samples[:3]  # no sample after the last op
    assert rec.scaled() == pytest.approx([1 / 1.5, 1 / 1.5, 1.0])


def test_tracer_nests_spans_and_detects_cache_hits():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 1
        inst = core.make_instance({"r": [(1, 2), (2, 9)]})
        first = pv.power_view_cached(inst, 1, 2)
        assert pv.power_view_cached(inst, 1, 2) is first
        assert pv.instances_isomorphic(inst, inst, 1, 2)
    finally:
        tracer.uninstall()
    assert pv.power_view_cached.__module__ == "dbcat.powerview"
    assert not hasattr(pv.power_view_cached, "__wrapped__")
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[:3] == ["make_instance", "power_view_cached", "power_view"]
    assert tracer.spans[2][tracing.PARENT] == 1
    assert tracer.counts["power_view_cached.calls"] == 4
    assert tracer.counts["power_view_cached.hits"] == 3
    assert "ViewSet.canonical" in names


def test_metric_names_and_units_match_benchmark_json():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    plain, traced = run.Recorder(run.Probe()), run.Recorder(run.Probe())
    for rec in (plain, traced):
        rec.op("bounded", lambda: None)
        rec.end_pass()
        rec.probe.samples.append(0.002)
    setup = {"setup_s": 0.1, "import_s": 0.05}
    layers = run.per_layer(plain, traced, tracing.Tracer(), setup)
    ends = run.end_to_end("joins", plain, setup)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in ends.items()}
    assert [w["name"] for w in spec["workloads"]] == list(w.WORKLOADS)
