"""dbcat benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload {cli,joins,closures,all} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it imports ``dbcat`` from the
checkout's ``src/``.  One client runs ops one after another (a closed loop).
A run makes ``max(1, seconds // PASS_SECONDS)`` passes over the
workload's fixed work list, each with fresh inputs drawn from the seed, so
what a run computes depends on ``--seconds`` but never on machine speed.

Every gated time is rescaled to a reference machine speed.  The host the
benchmark was built on drifts between a fast and a slow state, about 1.4x
apart, over seconds to minutes, each CPU on its own, and CPU time drifts with
wall time.  So the run pins itself and its children to one CPU, and an
interval timer runs a fixed probe kernel that does the kind of work dbcat
does (tuples, sets, a dict index) every ``PROBE_EVERY_S``, inside ops too.
Each op's latency, less the probe's time, is multiplied by ``PROBE_REF_S``
over the mean of the probe times taken during it and just before and after
it.  The table also prints the raw op time and the probe times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with spans recorded around each dbcat module's public
functions, prints the per-layer metrics and writes the spans to
``perfbench/out/``.  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out"
# Run seconds per pass; a pass of any workload holds 8-18 s of rescaled op time.
PASS_SECONDS = 20
SETUP_SAMPLES = 7
# The probe kernel's time at the reference speed, and how often it runs.
PROBE_REF_S = 0.0014
PROBE_EVERY_S = 0.05
SETUP_PROBES = 3
PHASES = ("fixpoint", "bounded", "classify", "rule", "spjru", "constraint")
FAILURES_SHOWN = 10
P90_MIN_OPS = 100


def probe_kernel() -> int:
    """Fixed pure-Python work of the kind dbcat does: tuples, a dict index
    and a set of joined pairs.  It tracks the machine's speed drift far more
    closely than an arithmetic loop does."""
    rows = [(i % 61, i * 7 % 53) for i in range(1500)]
    index: dict = {}
    for a, b in rows:
        index.setdefault(b, []).append(a)
    return len({(a, c) for a, _ in rows for c in index.get(a, ())[:4]})


def time_probe() -> float:
    """CPU seconds of one kernel run.  CPU time, not wall time: a child on
    the same CPU may run while the probe waits, and CPU time drifts with the
    machine's speed just as wall time does."""
    start = time.thread_time()
    probe_kernel()
    return time.thread_time() - start


class Probe:
    """Probe times, taken every PROBE_EVERY_S while ``running``.

    The timer's handler runs in the main thread, between the bytecodes of
    whatever op is running, or while the main thread waits for a child; the
    child shares the run's one CPU, so the probe measures the CPU the op
    runs on.  ``spent`` sums the CPU time the probe took from the op it
    interrupted, which the op gives back.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def sample(self, *_):
        # A collection started by the kernel's allocations would collect the
        # interrupted op's garbage on the probe's clock; leave it to the op.
        collecting = gc.isenabled()
        gc.disable()
        start = time.thread_time()
        self.samples.append(time_probe())
        self.spent += time.thread_time() - start
        if collecting:
            gc.enable()

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def pin_to_one_cpu():
    """Run this process, and the children it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Recorder:
    """Times ops, runs their output checks and counts failures.

    Per op it keeps the latency less the probe's time, the probe's time,
    the kind, the label and the range of probe samples taken while it ran.
    """

    def __init__(self, probe: Probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.latencies: list = []
        self.probe_cpu: list = []
        self.kinds: list = []
        self.labels: list = []
        self.probe_at: list = []
        self.probe_end: list = []
        self.passes: list = []  # index after each pass's last op
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def op(self, kind, fn, *args, check=None, label=None, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        problem = None
        self.probe_at.append(len(self.probe.samples))
        spent = self.probe.spent
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, problem = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        probed = self.probe.spent - spent
        self.probe_end.append(len(self.probe.samples))
        if self.tracer is not None:
            self.tracer.op = None
        self.latencies.append(seconds - probed)
        self.probe_cpu.append(probed)
        self.kinds.append(kind)
        self.labels.append(label)
        if problem is None and check is not None:
            with self.untraced():
                problem = check(out)
        if problem:
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(f"op {self.attempted} ({label or kind}): {problem}")
        return out

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.paused += 1
        try:
            yield
        finally:
            self.tracer.paused -= 1

    def run_cli(self, argv):
        if self.tracer is None:
            return workloads.run_cli(argv)
        trace_file = OUT / f"cli-child-{os.getpid()}.json"
        try:
            result = workloads.run_cli(argv, trace_file)
            self.tracer.merge(json.loads(trace_file.read_text()), self.attempted)
        finally:
            trace_file.unlink(missing_ok=True)
        return result

    def end_pass(self):
        self.passes.append(len(self.latencies))

    def scaled(self) -> list:
        """Each op's latency at reference speed, scaled by the mean of the
        probe samples taken during it and just before and after it."""
        samples = self.probe.samples
        out = []
        for seconds, at, end in zip(self.latencies, self.probe_at, self.probe_end):
            around = samples[max(at - 1, 0) : end + 1] or [PROBE_REF_S]
            out.append(seconds * PROBE_REF_S / statistics.fmean(around))
        return out

    def by_label(self) -> dict:
        """Scaled latencies per op label."""
        out: dict = {}
        for label, seconds in zip(self.labels, self.scaled()):
            if label is not None:
                out.setdefault(label, []).append(seconds)
        return out

    def pass_sums(self) -> list:
        """Per pass, the scaled op seconds per kind of op and in all, and the
        raw op seconds in all."""
        scaled = self.scaled()
        out, start = [], 0
        for end in self.passes:
            sums = {"all": sum(scaled[start:end]), "raw": sum(self.latencies[start:end])}
            for i in range(start, end):
                sums[self.kinds[i]] = sums.get(self.kinds[i], 0.0) + scaled[i]
            out.append(sums)
            start = end
        return out


def run_passes(rec: Recorder, workload: str, state, passes: range):
    _, make_inputs, run_pass = workloads.WORKLOADS[workload]
    with rec.probe.running():
        for index in passes:
            with rec.untraced():
                pass_inputs = make_inputs(state, index)
            rec.probe.sample()
            run_pass(rec, state, pass_inputs)
            rec.end_pass()
            rec.probe.sample()


def setup_child(workload: str, seed: int):
    """Time imports plus the set-up of pass 0, in this fresh interpreter,
    at reference speed: scaled by the probe times just before and after."""
    before = [time_probe() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    import dbcat  # noqa: F401

    imported = time.perf_counter()
    setup, make_inputs, _ = workloads.WORKLOADS[workload]
    make_inputs(setup(seed), 0)
    done = time.perf_counter()
    after = [time_probe() for _ in range(SETUP_PROBES)]
    scale = PROBE_REF_S / statistics.fmean([statistics.median(before), statistics.median(after)])
    print(json.dumps({"import_s": (imported - start) * scale, "setup_s": (done - start) * scale}))


def measure_setup(workload: str, seed: int) -> dict:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            env=workloads.cli_env(),
            capture_output=True,
            text=True,
            timeout=170,
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {k: statistics.median(s[k] for s in samples) for k in ("import_s", "setup_s")}


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def phase_medians(rec: Recorder) -> dict:
    sums = rec.pass_sums()
    return {p: statistics.median(s.get(p, 0.0) for s in sums) for p in ("all", "raw", *PHASES)}


def end_to_end(workload, rec, setup) -> dict:
    ms = [s * 1000 for s in rec.scaled()]
    return {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (phase_medians(rec)["all"], "s"),
        "op_p50_ms": (quantile(ms, 50), "ms"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def _ratio(hits, calls):
    return hits / calls if calls else 0.0


def per_layer(plain: Recorder, traced: Recorder, tracer, setup) -> dict:
    """Per-layer metrics of the traced passes, plus untraced context."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    # Spans cover the probe's time too, so their shares are of op time with it.
    walls = [s + p for s, p in zip(traced.latencies, traced.probe_cpu)]
    op_time = sum(walls)
    plain_labels = plain.by_label()
    fixpoint_ops = {i + 1 for i, k in enumerate(traced.kinds) if k == "fixpoint"}
    fixpoint_time = sum(s for s, k in zip(walls, traced.kinds) if k == "fixpoint")
    calls = dict.fromkeys(tracing.MODULES, 0)
    self_s = dict.fromkeys(tracing.MODULES, 0.0)
    inclusive: dict = {}
    fixpoint_pv_cat = 0.0
    for span, own in zip(spans, selfs):
        name, module, start, end, parent, op = span
        if op is None:
            continue
        calls[module] += 1
        self_s[module] += own
        if parent is None or spans[parent][tracing.NAME] != name:
            inclusive[name] = inclusive.get(name, 0.0) + end - start
        if op in fixpoint_ops and module in ("powerview", "category"):
            fixpoint_pv_cat += own
    counts = tracer.counts
    m = {}
    for module in tracing.MODULES:
        m[f"{module}.calls"] = (calls[module], "count")
        m[f"{module}.self_pct"] = (100 * _ratio(self_s[module], op_time), "%")
    m["queries.tuples_in"] = (counts.get("queries.tuples_in", 0), "count")
    m["queries.tuples_out"] = (counts.get("queries.tuples_out", 0), "count")
    for kind, name in (("rule", "queries.eval_rule"), ("spjru", "queries.eval_spjru"), ("tgd", "constraints.tgd"), ("egd", "constraints.egd")):
        for n in workloads.JOIN_SIZES:
            lat = plain_labels.get(f"{kind}.n{n}")
            m[f"{name}.n{n}_per_s"] = (n / statistics.median(lat) if lat else 0.0, "1/s")
    m["constraints.violations"] = (counts.get("constraints.violations", 0), "count")
    pv_calls = tracer.powerview_calls
    m["powerview.views_out"] = (counts.get("powerview.views_out", 0), "count")
    m["powerview.views_per_s"] = (_rate(counts.get("powerview.views_out", 0), sum(c[3] for c in pv_calls)), "1/s")
    m["powerview.fixpoint_ratio"] = (_ratio(counts.get("powerview.fixpoints", 0), len(pv_calls)), "ratio")
    m["powerview.cache_hit_ratio"] = (
        _ratio(counts.get("power_view_cached.hits", 0), counts.get("power_view_cached.calls", 0)),
        "ratio",
    )
    m["powerview.budget_errors"] = (counts.get("powerview.budget_errors", 0), "count")
    m["powerview.canonical_pct"] = (100 * _ratio(inclusive.get("ViewSet.canonical", 0.0), op_time), "%")
    for dom in (2, 3, 4):
        for depth in (1, 2, 3, None):
            if depth is None and dom == 4:
                continue
            picked = [c[3] for c in pv_calls if c[0] == dom and c[1] == depth and c[2] == 2]
            suffix = "fixpoint" if depth is None else f"depth{depth}"
            m[f"powerview.dom{dom}.{suffix}_per_s"] = (_rate(len(picked), sum(picked)), "1/s")
    m["category.flux_cache_hit_ratio"] = (_ratio(counts.get("flux.hits", 0), counts.get("flux.calls", 0)), "ratio")
    m["category.canonical_pct"] = (100 * _ratio(inclusive.get("Flux.canonical", 0.0), op_time), "%")
    m["category.channels_out"] = (counts.get("category.channels_out", 0), "count")
    m["interpret.term_cache_hit_ratio"] = (
        _ratio(counts.get("interpret_term.hits", 0), counts.get("interpret_term.calls", 0)),
        "ratio",
    )
    m["dsl.bytes_per_s"] = (_rate(counts.get("dsl.bytes", 0), inclusive.get("parse_workspace", 0.0)), "B/s")
    m["cli.import_s"] = (setup["import_s"], "s")
    plain_wall = sum(plain.scaled())
    for command, _, _ in workloads.CLI_COMMANDS:
        for bound in workloads.CLI_BOUNDS:
            lat = plain_labels.get(f"cli.{command}.{bound}", [])
            m[f"cli.{command}.{bound}_pct"] = (100 * _ratio(sum(lat), plain_wall), "%")
    m["fixpoint.powerview_category_pct"] = (100 * _ratio(fixpoint_pv_cat, fixpoint_time), "%")
    phases = phase_medians(plain)
    plain_median = phases["all"]
    for p in PHASES:
        m[f"phase.{p}_pct"] = (100 * _ratio(phases[p], plain_median), "%")
    traced_median = phase_medians(traced)["all"]
    m["trace.overhead_s"] = (traced_median - plain_median, "s")
    m["trace.overhead_pct"] = (100 * (traced_median - plain_median) / plain_median, "%")
    m["bench.probe_ms"] = (1000 * statistics.median(plain.probe.samples + traced.probe.samples), "ms")
    return m


def report(workload, seed, recs, metrics, extra_lines=()):
    """Human-readable lines; the JSON result line follows them."""
    passes = " + ".join(str(len(rec.passes)) for rec in recs)
    print(f"# workload {workload}  seed {seed}  passes {passes}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<34} {value:>14.6g} {unit}")
    for line in extra_lines:
        print(f"#   {line}")
    attempted, failed = sum(r.attempted for r in recs), sum(r.failed for r in recs)
    print(f"#   ops_failed {failed} of {attempted} attempted")
    for rec in recs:
        for failure in rec.failures:
            print(f"#   FAILED {failure}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    setup_times = measure_setup(workload, seed)
    setup_fn = workloads.WORKLOADS[workload][0]
    state = setup_fn(seed)
    probe = Probe()
    plain = Recorder(probe)
    passes = max(1, int((seconds / 2 if trace else seconds) // PASS_SECONDS))
    run_passes(plain, workload, state, range(passes))
    if not trace:
        metrics = end_to_end(workload, plain, setup_times)
        phases = phase_medians(plain)
        extra = [f"{p}_s (median per pass) {phases[p]:.6g} s" for p in PHASES if phases[p] > 0]
        samples = len(plain.latencies)
        if samples >= P90_MIN_OPS:
            extra.append(f"op_p90_ms {1000 * quantile(plain.scaled(), 90):.6g} ms over {samples} ops")
        else:
            extra.append(f"op_p90_ms not reported: {samples} ops, fewer than {P90_MIN_OPS}")
        extra.append(f"raw op seconds (median per pass, not rescaled) {phases['raw']:.6g} s")
        extra.append(
            f"probe_ms median {1000 * statistics.median(probe.samples):.4g}, mean "
            f"{1000 * statistics.fmean(probe.samples):.4g} over {len(probe.samples)} samples; "
            f"reference {1000 * PROBE_REF_S:.4g}"
        )
        recs = [plain]
        report(workload, seed, recs, metrics, extra)
    else:
        OUT.mkdir(exist_ok=True)
        tracer = tracing.Tracer()
        traced = Recorder(Probe(), tracer)
        tracer.install()
        try:
            run_passes(traced, workload, state, range(passes, 2 * passes))
        finally:
            tracer.uninstall()
        metrics = per_layer(plain, traced, tracer, setup_times)
        (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(tracer.export()))
        recs = [plain, traced]
        report(workload, seed, recs, metrics, ["passes: untraced + traced"])
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dbcat" / "__init__.py").is_file():
        print(f"perfbench: no dbcat package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    if args.setup_only:
        setup_child(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
