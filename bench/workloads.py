"""The three benchmark workloads.

Each workload is a closed loop driven from one thread: the next op starts
when the previous one has finished. Inputs are made from the seed alone and
form a fixed pool of ops; a run cycles through whole passes of the pool. No
op of any workload fails on the library as it stands; the one known defect,
Event rejecting the sampler's own large-|t| events, is measured apart from
the ops by EventSweep. The library is reached only through module attributes
looked up at call time, so a traced run sees every call.

An op returns a list of unit outcomes: None for a unit that passed, or a
string saying why it failed. A failure string starting with "raised" means
the library raised; any other string means the output check rejected a
result the library returned.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _attempt(fn, *args, **kwargs):
    """fn's result, or a failure string if the library raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return _raised(exc)


class Counters:
    """Verdict tallies behind causal.boundary_ratio and band_disagreement_ratio."""

    def __init__(self):
        self.verdicts = 0
        self.boundary = 0
        self.route_pairs = 0
        self.band_disagreements = 0

    def verdict(self, v, boundary) -> None:
        self.verdicts += 1
        self.boundary += v.region is boundary


# ---------------------------------------------------------------------------
# pair_verdicts


class PairVerdicts:
    """One op is one independent pair (p, q): both Events, both verdict
    routes for past and future, and classify/time_direction of the chord."""

    name = "pair_verdicts"
    units_per_op = 1
    chunk_ops = 64
    warmup_ops = 300
    # n x R x t_span grid; ops cycle through the 36 cells. At t_span = 3e2
    # the membership residual of a sampled event stays below a tenth of the
    # tolerance; from about 1e3 on, Event starts to reject the sampler's own
    # events, which EventSweep measures.
    GRID_N = (2, 3, 4, 6)
    GRID_R = (1e-3, 1.0, 1e3)
    GRID_T = (2.0, 1e2, 3e2)
    PAIRS_PER_CELL = 192
    # Same rule as the acceptance test: routes may disagree only inside
    # |margin| <= 1e-7 R^2.
    AGREE_BAND = 1e-7

    def __init__(self, lib, seed: int):
        self.lib = lib
        M = lib.manifold
        rng = np.random.default_rng([seed, 1])
        cells = []
        for n in self.GRID_N:
            for r in self.GRID_R:
                for t_span in self.GRID_T:
                    ctx = M.SpacetimeContext(radius=r, n=n)
                    ps = M.sample_hyperboloid(ctx, self.PAIRS_PER_CELL, rng, t_span=t_span)
                    qs = M.sample_hyperboloid(ctx, self.PAIRS_PER_CELL, rng, t_span=t_span)
                    cells.append((ctx, ps, qs))
        self.inputs = [
            (ctx, ps[k], qs[k])
            for k in range(self.PAIRS_PER_CELL)
            for ctx, ps, qs in cells
        ]
        self.counters = Counters()

    def __len__(self) -> int:
        return len(self.inputs)

    def op(self, i: int):
        ctx, p_pt, q_pt = self.inputs[i]
        M, C, K = self.lib.manifold, self.lib.causal, self.lib.minkowski
        try:
            p = M.Event(point=p_pt, context=ctx)
            q = M.Event(point=q_pt, context=ctx)
            past = C.causal_past_of_event(q, p)
            future = C.causal_future_of_event(q, p)
            chord_past = C.chord_oracle_past(p, q)
            chord_future = C.chord_oracle(p, q)
            d = q.point - p.point
            cls = K.classify(d)
            direction = K.time_direction(d)
        except Exception as exc:
            return [_raised(exc)]
        return (ctx, past, future, chord_past, chord_future, cls, direction)

    def check(self, result) -> list:
        if isinstance(result, list):
            return result
        ctx, past, future, chord_past, chord_future, cls, direction = result
        C, K = self.lib.causal, self.lib.minkowski
        band = self.AGREE_BAND * ctx.radius**2
        tally = self.counters
        for v in result[1:5]:
            tally.verdict(v, C.Region.BOUNDARY)
        tally.route_pairs += 2
        for canon, chord in ((past, chord_past), (future, chord_future)):
            if canon.region is not chord.region:
                tally.band_disagreements += 1
                if abs(chord.margin) > band:
                    return [f"routes disagree outside the band: {canon} vs {chord}"]
        causal_chord = (K.CausalClass.TIMELIKE, K.CausalClass.NULL)
        if chord_future.margin > band and (
            cls not in causal_chord or direction is not K.TimeDirection.FUTURE
        ):
            return [f"chord {cls}/{direction} but chord oracle says future"]
        if chord_past.margin > band and (
            cls not in causal_chord or direction is not K.TimeDirection.PAST
        ):
            return [f"chord {cls}/{direction} but chord oracle says past"]
        if max(chord_past.margin, chord_future.margin) < -band and cls in (
            K.CausalClass.TIMELIKE,
            K.CausalClass.ZERO,
        ):
            return [f"chord {cls} but chord oracle says neither past nor future"]
        return [None]


class EventSweep:
    """The share of sample_hyperboloid's own events that Event accepts at
    large |t| (ROADMAP Open item 3), over the n x R grid of PairVerdicts.

    It runs once per benchmark run, outside the timed loop and outside any
    op: a rejection here is the known defect, reported as a metric, not a
    failed op. The events depend on the seed alone, so the share repeats
    exactly for a seed."""

    GRID_T = (3e3, 1e4)
    EVENTS_PER_CELL = 2000

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def run(self) -> tuple[int, int]:
        """(accepted, attempted) Event constructions."""
        M = self.lib.manifold
        rng = np.random.default_rng([self.seed, 3])
        accepted = attempted = 0
        for n in PairVerdicts.GRID_N:
            for r in PairVerdicts.GRID_R:
                ctx = M.SpacetimeContext(radius=r, n=n)
                for t_span in self.GRID_T:
                    for pt in M.sample_hyperboloid(ctx, self.EVENTS_PER_CELL, rng, t_span=t_span):
                        attempted += 1
                        try:
                            M.Event(point=pt, context=ctx)
                        except ValueError:
                            continue
                        accepted += 1
        return accepted, attempted


# ---------------------------------------------------------------------------
# observer_checks


class ObserverChecks:
    """One op is one observer event L(psi): 16 queries sharing its frame,
    their witnesses and quotient representatives, and two sampling checks."""

    name = "observer_checks"
    QUERIES = 16
    SAMPLES = 4096
    units_per_op = QUERIES + 2
    chunk_ops = 2
    warmup_ops = 4
    POOL_OPS = 128
    PSI_RANGE = 4.0
    # Rapidity slack when comparing a bisected witness with psi.
    WITNESS_SLACK = 1e-9

    def __init__(self, lib, seed: int):
        self.lib = lib
        M = lib.manifold
        rng = np.random.default_rng([seed, 2])
        self.contexts = {n: M.SpacetimeContext(radius=1.0, n=n) for n in (2, 3)}
        # An observed query costs a witness bisection, so the number of
        # observed queries sets an op's cost. Under sample_hyperboloid it is
        # Binomial(16, 1/2) per op (x1 - t is symmetric about 0). The pool
        # takes that distribution's quantiles, shuffled, so every seed's pool
        # has the same mix of op costs.
        cdf = np.cumsum([math.comb(self.QUERIES, m) for m in range(self.QUERIES + 1)])
        observed_counts = np.searchsorted(
            cdf / cdf[-1], (np.arange(self.POOL_OPS) + 0.5) / self.POOL_OPS
        )
        rng.shuffle(observed_counts)
        self.inputs = []
        for k, observed in enumerate(observed_counts):
            ctx = self.contexts[2 + k % 2]
            psi = float(rng.uniform(-self.PSI_RANGE, self.PSI_RANGE))
            qs = self._queries(M, ctx, int(observed), rng)
            check_seed = int(rng.integers(2**63))
            self.inputs.append((ctx, psi, qs, check_seed))
        self.j_sets = ("J_minus_L", "J_plus_L", "J_plus_negL", "J_minus_negL")
        self.counters = Counters()

    def _queries(self, M, ctx, observed: int, rng) -> np.ndarray:
        """QUERIES events from sample_hyperboloid, `observed` of them with
        x1 - t > 0, in random order."""
        inside, outside = [], []
        while len(inside) < observed or len(outside) < self.QUERIES - observed:
            for pt in M.sample_hyperboloid(ctx, self.QUERIES, rng):
                gap = pt[0] - pt[-1]
                if gap > 1e-6:
                    inside.append(pt)
                elif gap < -1e-6:
                    outside.append(pt)
        qs = np.array(inside[:observed] + outside[: self.QUERIES - observed])
        return qs[rng.permutation(self.QUERIES)]

    def __len__(self) -> int:
        return len(self.inputs)

    def op(self, i: int):
        ctx, psi, qs, check_seed = self.inputs[i]
        M, C, Q = self.lib.manifold, self.lib.causal, self.lib.quotient
        try:
            p = M.Event(point=M.canonical_worldline(ctx).at(psi), context=ctx)
            observed_set = C.J_minus_L(ctx)
        except Exception as exc:
            return [_raised(exc)] * self.units_per_op
        outcomes = [_attempt(self._query, ctx, p, observed_set, q) for q in qs]
        rng = np.random.default_rng(check_seed)
        outcomes.append(
            _attempt(C.nesting_check, ctx, psi, psi + 0.5, samples=self.SAMPLES, rng=rng)
        )
        j_set = self.j_sets[(i // 2) % 4]
        outcomes.append(
            _attempt(
                lambda: Q.injectivity_check(
                    getattr(C, j_set)(ctx), ctx, samples=self.SAMPLES, rng=rng
                )
            )
        )
        return (psi, outcomes)

    def _query(self, ctx, p, observed_set, q_pt):
        M, C, Q = self.lib.manifold, self.lib.causal, self.lib.quotient
        q = M.Event(point=q_pt, context=ctx)
        past = C.causal_past_of_event(q, p)
        observed = observed_set.verdict(q.point)
        witness = C.union_witness(ctx, q) if observed.region is C.Region.INSIDE else None
        same_rep = Q.quotient_rep(q) == Q.quotient_rep(Q.antipode(q))
        return past, observed, witness, same_rep

    def check(self, result) -> list:
        if isinstance(result, list):
            return result
        psi, outcomes = result
        Region = self.lib.causal.Region
        verdicts = []
        for out in outcomes[: self.QUERIES]:
            if isinstance(out, str):
                verdicts.append(out)
                continue
            past, observed, witness, same_rep = out
            self.counters.verdict(past, Region.BOUNDARY)
            self.counters.verdict(observed, Region.BOUNDARY)
            verdicts.append(self._check_query(psi, past, witness, same_rep))
        for report in outcomes[self.QUERIES :]:
            if isinstance(report, str):
                verdicts.append(report)
            elif report.violations != 0 or report.samples != self.SAMPLES:
                verdicts.append(f"sampling check reported {report}")
            else:
                verdicts.append(None)
        return verdicts

    def _check_query(self, psi, past, witness, same_rep):
        Region = self.lib.causal.Region
        if not same_rep:
            return "q and its antipode have different quotient representatives"
        if witness is None:
            if past.region is Region.INSIDE:
                return "inside J^-(L(psi)) but not an observed event"
            return None
        if past.region is Region.INSIDE and witness > psi + self.WITNESS_SLACK:
            return f"inside J^-(L({psi})) but witness {witness} > psi"
        if past.region is Region.OUTSIDE and witness < psi - self.WITNESS_SLACK:
            return f"outside J^-(L({psi})) but witness {witness} < psi"
        return None


# ---------------------------------------------------------------------------
# figure_render


class FigureRender:
    """One op is three in-process `horizons` CLI calls writing SVG and CSV."""

    name = "figure_render"
    FIGURES = (
        ("fig2", ["fig2", "--resolution", "64"]),
        ("fig3", ["fig3", "--resolution", "256"]),
        ("cones", ["cones", "--resolution", "512", "--psi-list=-2,-1,0,1,2"]),
    )
    units_per_op = len(FIGURES)
    chunk_ops = 2
    warmup_ops = 2
    GOLDEN = BENCH_DIR / "golden_figures.json"

    def __init__(self, lib, seed: int, out_dir: Path):
        # The figure CLI has no random input; the seed does not change the op.
        self.lib = lib
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.argvs = [
            argv + ["--format", "both", "--out", str(out_dir / name)]
            for name, argv in self.FIGURES
        ]
        self.golden = json.loads(self.GOLDEN.read_text())
        self.counters = Counters()
        self.bytes_out = 0
        self.vertices = 0

    def __len__(self) -> int:
        return 1

    def op(self, i: int):
        with redirect_stdout(io.StringIO()):
            return [_attempt(self.lib.cli.main, argv) for argv in self.argvs]

    def output_digests(self) -> dict:
        """SHA-256, size and CSV row count of every output file."""
        digests = {}
        for name, _ in self.FIGURES:
            for ext in ("svg", "csv"):
                path = self.out_dir / f"{name}.{ext}"
                data = path.read_bytes() if path.exists() else b""
                digests[f"{name}.{ext}"] = (
                    hashlib.sha256(data).hexdigest(),
                    len(data),
                    data.count(b"\n") - 1 if ext == "csv" else 0,
                )
        return digests

    def check(self, codes) -> list:
        digests = self.output_digests()
        self.bytes_out = sum(size for _, size, _ in digests.values())
        self.vertices = sum(rows for _, _, rows in digests.values())
        verdicts = []
        for (name, _), code in zip(self.FIGURES, codes):
            if isinstance(code, str):
                verdicts.append(code)
            elif code != 0:
                verdicts.append(f"raised: exit code {code}")
            else:
                bad = [
                    f"{name}.{ext}"
                    for ext in ("svg", "csv")
                    if digests[f"{name}.{ext}"][0] != self.golden[f"{name}.{ext}"]
                ]
                verdicts.append(f"output differs from golden: {bad}" if bad else None)
        for name, _ in self.FIGURES:
            for ext in ("svg", "csv"):
                (self.out_dir / f"{name}.{ext}").unlink(missing_ok=True)
        return verdicts


WORKLOADS = {cls.name: cls for cls in (PairVerdicts, ObserverChecks, FigureRender)}
