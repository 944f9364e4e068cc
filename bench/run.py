"""Benchmark of the desitter_horizons library, end to end and layer by layer.

    python3 bench/run.py --workload pair_verdicts --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and WORKLOADS.md) in a closed loop on
one thread for about --seconds, checks every result, and prints the metrics
by name and unit, then one JSON line: {"correct", "attempted", "failed",
"metrics"}. After the timed loop it runs the seeded Event sweep of
workloads.EventSweep. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 the run measures half its time untraced and
half with every public library function wrapped by layertrace.py, then a
fixed reference probe and the sweep, and reports the per-layer metrics.

The library is imported from ../src of this file, never from an installed
copy; without it the run exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

# BLAS reads its thread count when numpy is first imported, so the pin comes
# before any import of numpy; set-up probes inherit it.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from layertrace import LAYERS, PACKAGE, LayerTracer  # noqa: E402
from library import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    SRC,
    MissingLibrary,
    import_library,
    make_workload,
)
from workloads import WORKLOADS, Counters, EventSweep  # noqa: E402

ROOT, SRC, OUT_DIR = Path(ROOT), Path(SRC), Path(OUT_DIR)

SETUP_REPEATS = 15
MIN_OPS = 100  # p90 of an end-to-end run has at least 10 ops beyond it
HARD_CAP_FACTOR = 3.0  # stop at a pass boundary after 3x --seconds regardless
TRACE_SPAN_CAP = 1_000_000  # end the traced phase at a pass boundary past this


# ---------------------------------------------------------------------------
# set-up time


class SetupProbe:
    """Wall time from spawning a fresh interpreter to its first op being
    ready, and its import time, one child process per call of spawn().

    The machine's speed drifts for tens of seconds at a time, so an
    end-to-end run spreads its children over the measured phase rather than
    timing them back to back; the reported value is their median."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
                    workload, str(seed)]
        self.setup: list[float] = []
        self.imports: list[float] = []
        self.spawn()  # unmeasured: warms the file cache
        self.setup.clear()
        self.imports.clear()

    def spawn(self) -> None:
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {code}")
        self.setup.append(ready)
        self.imports.append(json.loads(line)["import_s"])

    def finish(self) -> tuple[float, float]:
        """Median set-up and import time, after topping up to SETUP_REPEATS."""
        while len(self.setup) < SETUP_REPEATS:
            self.spawn()
        return statistics.median(self.setup), statistics.median(self.imports)


# ---------------------------------------------------------------------------
# the closed loop


class Phase:
    """Outcome of one measured phase: per-op times and unit outcomes."""

    def __init__(self):
        self.op_ns = array("q")
        self.op_ok = array("b")
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.first_failure: str | None = None
        self.seconds = 0.0

    def record(self, ns: int, verdicts: list) -> None:
        bad = [v for v in verdicts if v is not None]
        self.op_ns.append(ns)
        self.op_ok.append(not bad)
        self.attempted += len(verdicts)
        self.failed += len(bad)
        self.rejected += sum(not v.startswith("raised") for v in bad)
        if bad and self.first_failure is None:
            self.first_failure = bad[0]

    def op_ms(self) -> np.ndarray:
        return np.frombuffer(self.op_ns, dtype=np.int64) / 1e6

    def ok(self) -> np.ndarray:
        return np.frombuffer(self.op_ok, dtype=np.int8).astype(bool)


def run_phase(wl, seconds: float, min_ops: int = MIN_OPS, tracer=None,
              setup: SetupProbe | None = None) -> Phase:
    """Cycle whole passes over the workload's op pool until `seconds` have
    passed and at least `min_ops` ops ran. With a tracer, each op is a root
    span, and the phase also ends once TRACE_SPAN_CAP spans are held. With a
    set-up probe, its children run at pass boundaries, evenly over the
    phase; their time is not counted in the phase."""
    ns = time.perf_counter_ns
    op_call = None if tracer is None else tracer.root("bench.op", wl.op)
    phase = Phase()
    t_start = ns()
    paused = 0
    index = 0
    while True:
        for i in range(len(wl)):
            if op_call is None:
                t0 = ns()
                result = wl.op(i)
                t1 = ns()
            else:
                t0 = ns()
                result = op_call(index, i)
                t1 = ns()
            phase.record(t1 - t0, wl.check(result))
            index += 1
        elapsed = (ns() - t_start - paused) / 1e9
        if setup is not None:
            t0 = ns()
            while len(setup.setup) < SETUP_REPEATS * min(elapsed / seconds, 1.0):
                setup.spawn()
            paused += ns() - t0
        if (
            (elapsed >= seconds and index >= min_ops)
            or elapsed >= HARD_CAP_FACTOR * seconds
            or (tracer is not None and len(tracer.name_id) >= TRACE_SPAN_CAP)
        ):
            phase.seconds = elapsed
            return phase


def warm_up(wl) -> None:
    for k in range(wl.warmup_ops):
        wl.check(wl.op(k % len(wl)))
    wl.counters = Counters()


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, phase: Phase, setup_s: float, sweep: tuple[int, int],
               lines: list) -> dict:
    all_ms, ok = phase.op_ms(), phase.ok()
    if ok.sum() < 2:
        raise RuntimeError(f"only {int(ok.sum())} successful ops: {phase.first_failure}")
    chunk = min(wl.chunk_ops, len(all_ms))
    rates = [
        ok[start : start + chunk].sum() / (all_ms[start : start + chunk].sum() / 1e3)
        for start in range(0, len(all_ms) - chunk + 1, chunk)
    ]
    ok_ms = all_ms[ok].tolist()
    p50, p90 = percentile(ok_ms, 50), percentile(ok_ms, 90)
    beyond = sum(v > p90 for v in ok_ms)
    fail_frac = phase.failed / phase.attempted
    # Throughput and p50 are printed but not reported. Between identical
    # runs on the shared build machine they moved by up to 50% and 40% (the
    # machine's speed drifts for minutes at a time), beyond any bound the
    # benchmark may set, while p90 moved by at most about 20%.
    lines.append(f"ops_per_s = {float(statistics.median(rates))!r} 1/s (median of "
                 f"{len(rates)} chunks of {chunk} ops; printed only)")
    lines.append(f"op_ms_p50 = {p50!r} ms (n={len(ok_ms)} successful ops; printed only)")
    lines.append(f"fail_frac = {fail_frac!r} frac ({phase.failed} of {phase.attempted} "
                 f"units failed; printed only)")
    accepted, attempted = sweep
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh interpreters"),
        "op_ms_p90": (p90, "ms", f"n={len(ok_ms)} successful ops, {beyond} beyond p90"),
        "event_accept_frac": (accepted / attempted, "frac",
                              f"{accepted} of {attempted} sampled events at large |t| accepted"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "workload process"),
    }
    for name, (value, unit, note) in metrics.items():
        lines.append(f"{name} = {value!r} {unit} ({note})")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


# ---------------------------------------------------------------------------
# traced run


def run_probe(lib, tracer) -> int:
    """Fixed reference calls (the ROADMAP baseline rows), traced as op -2.

    Returns the bytes written by the probe's emit calls."""
    M, C, K, Q, F = lib.manifold, lib.causal, lib.minkowski, lib.quotient, lib.figures
    ctx = M.SpacetimeContext(radius=1.0, n=2)
    rng = np.random.default_rng(0)
    ps = M.sample_hyperboloid(ctx, 200, rng, t_span=2.0)
    qs = M.sample_hyperboloid(ctx, 200, rng, t_span=2.0)
    observed = C.sample_causal_past_canonical(ctx, 20, rng)
    cones = F.build_scene(ctx, "cones", resolution=512, psi_list=[-2.0, -1.0, 0.0, 1.0, 2.0])
    out = OUT_DIR / "probe"
    written = 0

    def body():
        nonlocal written
        jm = C.J_minus_L(ctx)
        for a, b in zip(ps, qs):
            p = M.Event(point=a, context=ctx)
            q = M.Event(point=b, context=ctx)
            K.inner(a, b)
            C.causal_past_of_event(q, p)
            C.causal_future_of_event(q, p)
            C.chord_oracle_past(p, q)
            C.chord_oracle(p, q)
            K.classify(b - a)
            jm.verdict(b)
            Q.quotient_rep(q)
        for x in observed:
            C.union_witness(ctx, M.Event(point=x, context=ctx))
        for _ in range(3):
            C.nesting_check(ctx, 0.0, 0.5, samples=4096, rng=rng)
            Q.injectivity_check(jm, ctx, samples=4096, rng=rng)
        for _ in range(20):
            F.build_scene(ctx, "fig2")
        for _ in range(3):
            F.emit_csv(cones, out.with_suffix(".csv"))
            F.emit_svg(cones, out.with_suffix(".svg"))
            for ext in (".csv", ".svg"):
                written += out.with_suffix(ext).stat().st_size
                out.with_suffix(ext).unlink()

    OUT_DIR.mkdir(exist_ok=True)
    tracer.root("bench.probe", body)(-2)
    return written


# Function timings reported per layer: metric stem -> (span name, unit).
TIMED = {
    "manifold.event": ("manifold.Event.__init__", "us"),
    "manifold.canonicalize": ("manifold.canonicalize", "us"),
    "minkowski.inner": ("minkowski.inner", "us"),
    "minkowski.classify": ("minkowski.classify", "us"),
    "causal.past_of_event": ("causal.causal_past_of_event", "us"),
    "causal.future_of_event": ("causal.causal_future_of_event", "us"),
    "causal.chord_oracle": ("causal.chord_oracle", "us"),
    "causal.chord_oracle_past": ("causal.chord_oracle_past", "us"),
    "causal.halfspace_verdict": ("causal.HalfSpaceSet.verdict", "us"),
    "causal.union_witness": ("causal.union_witness", "us"),
    "causal.nesting_check": ("causal.nesting_check", "ms"),
    "quotient.injectivity_check": ("quotient.injectivity_check", "ms"),
    "quotient.quotient_rep": ("quotient.quotient_rep", "us"),
    "figures.build_scene": ("figures.build_scene", "ms"),
    "figures.emit_csv": ("figures.emit_csv", "ms"),
    "figures.emit_svg": ("figures.emit_svg", "ms"),
}
# ROADMAP baseline rows, timed on the probe alone: metric stem -> (span, unit).
BASELINE = {
    "baseline.event": ("manifold.Event.__init__", "us"),
    "baseline.inner": ("minkowski.inner", "us"),
    "baseline.canonicalize": ("manifold.canonicalize", "us"),
    "baseline.past_of_event": ("causal.causal_past_of_event", "us"),
    "baseline.chord_oracle_past": ("causal.chord_oracle_past", "us"),
    "baseline.halfspace_verdict": ("causal.HalfSpaceSet.verdict", "us"),
    "baseline.union_witness": ("causal.union_witness", "ms"),
    "baseline.build_scene_fig2": ("figures.build_scene", "ms"),
    "baseline.emit_csv_cones512": ("figures.emit_csv", "ms"),
    "baseline.emit_svg_cones512": ("figures.emit_svg", "ms"),
}
COUNTED = {
    "manifold.canonicalize.calls": "manifold.canonicalize",
    "causal.union_witness.calls": "causal.union_witness",
    "minkowski.boost.calls": "minkowski.boost",
}
SCALE = {"us": 1e3, "ms": 1e6}


def per_layer(wl, untraced: Phase, tracer, probe_bytes: int, import_s: float,
              lines: list) -> dict:
    S = tracer.spans()
    name_id, dur, self_ns, op = S["name_id"], S["dur_ns"], S["self_ns"], S["op"]
    in_ops, in_probe = op >= 0, op == -2
    roots = in_ops & (name_id == tracer.id_of("bench.op"))
    n_ops = int(roots.sum())
    op_ns = float(dur[roots].sum())

    def named(span: str, where) -> np.ndarray:
        return where & (name_id == tracer.id_of(span))

    metrics: dict[str, tuple[float, str, str]] = {}

    def timed(stem: str, span: str, unit: str, sources) -> None:
        for where, label in sources:
            mask = named(span, where)
            if mask.any():
                note = f"{int(mask.sum())} calls in the {label}"
                value = float(np.median(dur[mask])) / SCALE[unit]
                metrics[f"{stem}.{unit}_p50"] = (value, unit, note)
                return
        raise RuntimeError(f"no traced call of {span}")

    workload_then_probe = ((in_ops, "workload"), (in_probe, "reference probe"))
    for stem, (span, unit) in TIMED.items():
        timed(stem, span, unit, workload_then_probe)
    for stem, (span, unit) in BASELINE.items():
        timed(stem, span, unit, workload_then_probe[1:])

    for metric, span in COUNTED.items():
        metrics[metric] = (int(named(span, in_ops).sum()) / n_ops, "count", "per op")
    modules = S["module"]
    metrics["minkowski.calls"] = (
        int((in_ops & (modules == "minkowski")).sum()) / n_ops, "count", "per op")
    for layer in LAYERS + ("bench",):
        share = float(self_ns[in_ops & (modules == layer)].sum()) / op_ns
        metrics[f"{layer}.self_frac"] = (share, "frac", "share of traced op time")

    emits = named("figures.emit_csv", in_ops) | named("figures.emit_svg", in_ops)
    if emits.any():
        emitted, emit_ns = wl.bytes_out * n_ops, float(dur[emits].sum())
        source = "workload"
    else:
        emits = named("figures.emit_csv", in_probe) | named("figures.emit_svg", in_probe)
        emitted, emit_ns = probe_bytes, float(dur[emits].sum())
        source = "reference probe"
    metrics["figures.emit_MB_per_s"] = (emitted / 1e6 / (emit_ns / 1e9), "MB/s", source)
    metrics["figures.vertices"] = (float(getattr(wl, "vertices", 0)), "count", "per op")
    metrics["figures.bytes_out"] = (float(getattr(wl, "bytes_out", 0)), "count", "per op")

    events = named("manifold.Event.__init__", op == -3)
    metrics["manifold.event.accept_ratio"] = (
        1.0 - float(S["raised"][events].sum()) / int(events.sum()), "frac",
        f"{int(events.sum())} Event constructions in the sweep")
    for where, source in ((in_ops, "workload"), (in_probe, "reference probe")):
        inj = named("quotient.injectivity_check", where)
        if inj.any():
            draws = named("manifold.sample_hyperboloid", where) & np.isin(
                S["parent"], np.flatnonzero(inj))
            metrics["quotient.injectivity.accept_ratio"] = (
                int(inj.sum()) / int(draws.sum()), "frac", f"{source}: samples kept / drawn")
            break
    tally = wl.counters
    metrics["causal.boundary_ratio"] = (
        tally.boundary / max(tally.verdicts, 1), "frac", f"{tally.verdicts} verdicts")
    metrics["causal.band_disagreement_ratio"] = (
        tally.band_disagreements / max(tally.route_pairs, 1), "frac",
        f"{tally.route_pairs} canonical/chord verdict pairs")

    traced_p50 = float(np.median(dur[roots])) / 1e6
    untraced_ms = untraced.op_ms()[untraced.ok()]
    untraced_p50 = float(np.median(untraced_ms)) if untraced_ms.size else traced_p50
    metrics["trace.op_ms_p50"] = (traced_p50, "ms", f"{n_ops} traced ops")
    metrics["trace.overhead_frac"] = (
        traced_p50 / untraced_p50 - 1.0, "frac",
        f"traced op p50 vs untraced op p50 {untraced_p50!r} ms")
    metrics["trace.spans_per_op"] = (
        int(in_ops.sum()) / n_ops, "count", f"{int(in_ops.sum())} spans")
    metrics["cli.import_s"] = (import_s, "s", f"median of {SETUP_REPEATS} fresh interpreters")

    for name, (value, unit, note) in metrics.items():
        lines.append(f"{name} = {value!r} {unit} ({note})")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


# ---------------------------------------------------------------------------
# metadata


def metadata(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "desitter_horizons").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "native_threads": len(os.listdir("/proc/self/task")),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        lib = import_library()
        setup = SetupProbe(args.workload, args.seed)
        if args.trace == 1:
            setup_s, import_s = setup.finish()
    except (MissingLibrary, RuntimeError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2

    wl = make_workload(lib, args.workload, args.seed)
    sweep = EventSweep(lib, args.seed)
    warm_up(wl)
    lines = [f"meta {json.dumps(metadata(args), sort_keys=True)}"]
    if args.trace == 0:
        phases = [run_phase(wl, args.seconds, setup=setup)]
        setup_s, import_s = setup.finish()
        swept = sweep.run()
    else:
        untraced = run_phase(wl, args.seconds / 2, min_ops=1)
        wl.counters = Counters()
        tracer = LayerTracer()
        modules = {short: getattr(lib, short) for short in LAYERS}
        modules[PACKAGE] = lib.package
        tracer.install(modules)
        try:
            traced = run_phase(wl, args.seconds / 2, min_ops=1, tracer=tracer)
            probe_bytes = run_probe(lib, tracer)
            tracer.root("bench.sweep", sweep.run)(-3)
        finally:
            tracer.uninstall()
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
        phases = [untraced, traced]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    rejected = sum(p.rejected for p in phases)
    first = next((p.first_failure for p in phases if p.first_failure), None)
    measured = " + ".join(f"{p.seconds:.1f} s" for p in phases)
    lines.append(f"units: {attempted} attempted in {measured}, {failed} failed "
                 f"({rejected} rejected by output checks); first failure: {first}")
    try:
        if args.trace == 0:
            metrics = end_to_end(wl, phases[0], setup_s, swept, lines)
        else:
            metrics = per_layer(wl, untraced, tracer, probe_bytes, import_s, lines)
    except RuntimeError as exc:
        lines.append(f"error: {exc}")
        metrics = None
    for line in lines:
        print(f"# {line}")
    if metrics is None:
        return 1
    print(json.dumps({"correct": rejected == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
