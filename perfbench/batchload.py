"""The two in-process batch workloads: ``paper-suite`` and
``resweep-warm``.

Both compile the paper's circuits on L6 under three configurations
from one pinned greedy mapping per circuit (as
:func:`repro.batch.paired_jobs` pins it): ``baseline[7]``,
``this-work`` and ``this-work`` with the default post-pass pipeline.
Every job is simulated and runs through a serial
:class:`~repro.batch.BatchRunner` with an on-disk
:class:`~repro.batch.ResultCache`.

The random part of the suite keeps the paper's ensemble statistics
(sizes 60/65/70/75 qubits, gate counts N(1438, 413) clamped to
[400, 2600]) but takes each size's gate counts at fixed quantiles of
that distribution instead of drawing them.  The seed then chooses the
circuits, not the amount of work, so the totals and tails of two seeds
compare; a drawn count moves a 16-circuit suite's work by ~8%.
"""

from __future__ import annotations

import math
import pickle
import random
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from time import perf_counter

from repro.arch import l6_machine
from repro.batch import BatchRunner, CompileJob, ResultCache
from repro.bench import nisq_suite, random_circuit
from repro.bench.random_circuits import (
    PAPER_MEAN_GATES,
    PAPER_SIZES,
    PAPER_STD_GATES,
)
from repro.compiler import CompilerConfig, QCCDCompiler, greedy_initial_mapping
from repro.passes import PassManager
from repro.sim import Simulator

from checker import ScheduleRejected, check_result
from common import (
    HostSpeed,
    Outcome,
    latency_tails,
    mean,
    self_peak_rss_mb,
    setup_metric,
    span_of,
    timed_metrics,
    trace_overhead,
)
from tracing import END, NAME, PARENT, START, Tracer

#: Random circuits per qubit size: paper-suite / resweep-warm.
PAPER_PER_SIZE = 4
RESWEEP_PER_SIZE = 3
#: Gate-count clamp of the paper ensemble generator.
MIN_GATES, MAX_GATES = 400, 2600
#: A timed phase runs whole rounds until both its seconds and this many
#: jobs are reached, so p90 has at least ten samples beyond it.
MIN_JOBS = 100
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Host-speed probes before and after each set-up repetition.
SETUP_PROBES = 20


def configs() -> tuple[CompilerConfig, ...]:
    return (
        CompilerConfig.baseline(),
        CompilerConfig.optimized(),
        CompilerConfig.optimized().variant(
            post_passes=("default",), name="this-work+passes"
        ),
    )


@dataclass
class Suite:
    circuits: list
    chains: list
    machine: object


def build_suite(seed: int, per_size: int, span) -> Suite:
    """NISQ circuits plus the quantile-stratified random ensemble, each
    with its greedy initial mapping."""
    with span("bench.nisq_suite"):
        circuits = nisq_suite()
    rng = random.Random(seed)
    counts = NormalDist(PAPER_MEAN_GATES, PAPER_STD_GATES)
    for qubits in PAPER_SIZES:
        for k in range(per_size):
            gates = round(counts.inv_cdf((k + 0.5) / per_size))
            gates = min(MAX_GATES, max(MIN_GATES, gates))
            with span("bench.random_circuit"):
                circuit = random_circuit(qubits, gates, rng.randrange(1 << 30))
            circuit.name = f"Random-{qubits}q-{k:02d}"
            circuits.append(circuit)
    machine = l6_machine()
    chains = []
    for circuit in circuits:
        with span("compiler.mapping"):
            chains.append(greedy_initial_mapping(circuit, machine))
    return Suite(circuits, chains, machine)


def make_jobs(suite: Suite) -> list[CompileJob]:
    """Fresh job objects for one round.  Inputs go through a pickle
    round trip, so no object (or memo on it) survives from an earlier
    round that a new process would not have."""
    circuits, chains, machine = pickle.loads(
        pickle.dumps((suite.circuits, suite.chains, suite.machine))
    )
    return [
        CompileJob(circuit, machine, config, simulate=True, initial_chains=chain)
        for circuit, chain in zip(circuits, chains)
        for config in configs()
    ]


@dataclass
class Phase:
    """One timed phase: per-job latencies, its wall time (without the
    host-speed probes taken between jobs), the probes, the digests of
    its first round and a summary of that round's results.  Each round
    is checked right after it runs and its results are then dropped, so
    no round runs with earlier rounds' schedules still alive."""

    latencies: list = field(default_factory=list)
    wall: float = 0.0
    speed: HostSpeed = field(default_factory=HostSpeed)
    reference: list | None = None
    summary: dict = field(default_factory=dict)
    cache_dirs: list = field(default_factory=list)

    def timed(self) -> tuple[dict[str, float], str]:
        return timed_metrics(len(self.latencies), self.wall, self.latencies, self.speed)


def timed_setup(build, tracer) -> tuple[float, object, HostSpeed]:
    """Run ``build`` :data:`SETUP_REPS` times between host-speed probes;
    median seconds, the last build and the probes."""
    seconds, built, speed = [], None, HostSpeed()
    for _ in range(SETUP_REPS):
        speed.probe(SETUP_PROBES)
        start = perf_counter()
        built = build(span_of(tracer))
        seconds.append(perf_counter() - start)
    speed.probe(SETUP_PROBES)
    return statistics.median(seconds), built, speed


def wrap_layers(tracer: Tracer) -> None:
    """Span every call the program makes into the measured layers."""
    tracer.wrap(QCCDCompiler, "compile", "compiler.compile")
    tracer.wrap(PassManager, "run", "passes.optimize")
    tracer.wrap(Simulator, "run", "sim.simulate")
    tracer.wrap(CompileJob, "fingerprint", "batch.fingerprint")
    tracer.wrap(ResultCache, "put", "batch.cache_put")
    tracer.wrap(
        ResultCache, "get", "batch.cache_get",
        tag=lambda value: "miss" if value is None else "hit",
    )


# ----------------------------------------------------------------------
# Timed phases
# ----------------------------------------------------------------------
def cold_rounds(suite, seconds, workdir, tracer, settle) -> Phase:
    """paper-suite: each round compiles every job into a fresh cache;
    a job's latency is its ``BatchRunner.run`` call."""
    span = span_of(tracer)
    phase = Phase()
    begin = perf_counter()
    while True:
        jobs = make_jobs(suite)
        cache_dir = Path(tempfile.mkdtemp(prefix="cold-", dir=workdir))
        phase.cache_dirs.append(cache_dir)
        runner = BatchRunner(n_jobs=1, cache=ResultCache(cache_dir))
        results = []
        probing = 0.0
        round_start = perf_counter()
        for job in jobs:
            start = perf_counter()
            with span("batch.job"):
                (job_result,) = runner.run([job])
            phase.latencies.append(perf_counter() - start)
            results.append(job_result)
            probing += phase.speed.probe()
        phase.wall += perf_counter() - round_start - probing
        settle(phase, jobs, results)
        if perf_counter() - begin >= seconds and len(phase.latencies) >= MIN_JOBS:
            return phase


def warm_passes(suite, cache_dir, seconds, tracer, settle) -> Phase:
    """resweep-warm: each pass re-runs the whole grid through one
    ``BatchRunner.run`` call against the warm cache; a job's latency is
    the gap between its progress callback and the end of the previous
    one, which takes a host-speed probe."""
    span = span_of(tracer)
    phase = Phase(cache_dirs=[cache_dir])
    begin = perf_counter()
    while True:
        jobs = make_jobs(suite)
        stamps: list[float] = []
        resumed: list[float] = []

        def progress(*_):
            stamps.append(perf_counter())
            phase.speed.probe()
            resumed.append(perf_counter())

        runner = BatchRunner(n_jobs=1, cache=ResultCache(cache_dir), progress=progress)
        start = perf_counter()
        with span("batch.pass"):
            results = runner.run(jobs)
        probing = sum(hi - lo for lo, hi in zip(stamps, resumed))
        phase.wall += perf_counter() - start - probing
        bounds = list(zip([start] + resumed[:-1], stamps))
        phase.latencies.extend(hi - lo for lo, hi in bounds)
        if tracer is not None:
            for lo, hi in bounds:
                tracer.add("batch.job", lo, hi)
        settle(phase, jobs, results)
        if perf_counter() - begin >= seconds and len(phase.latencies) >= MIN_JOBS:
            return phase


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def digest(job_result):
    """Content fingerprint of one result: schedule ops, initial chains
    and the simulated figures (``None`` for a failed job).  Built on
    ``hash``, so digests compare within one process only."""
    if not job_result.ok:
        return None
    result, report = job_result.result, job_result.report
    chains = tuple(tuple(chain) for _, chain in sorted(result.initial_chains.items()))
    return (
        hash(tuple(result.schedule)),
        hash(chains),
        result.num_shuttles,
        report.program_log_fidelity,
        report.duration,
    )


def settler(outcome: Outcome, reference=None, claims: bool = False):
    """The per-round check.  Without a ``reference``, the phase's first
    round goes through the independent checker and its digests become
    the reference; every other round must match the reference job by
    job.  Failed jobs and mismatches count as failed operations."""

    def settle(phase: Phase, jobs, results) -> None:
        outcome.attempted += len(jobs)
        digests = [digest(r) for r in results]
        expected = phase.reference or reference
        for index, (job, job_result) in enumerate(zip(jobs, results)):
            if not job_result.ok:
                outcome.reject(f"{job.label}: job ended {job_result.outcome}")
            elif expected is not None:
                if digests[index] != expected[index]:
                    outcome.reject(f"{job.label}: result differs from its reference")
            else:
                check_one(outcome, job, job_result)
        if phase.reference is None:
            phase.reference = expected or digests
            phase.summary = summarize(jobs, results)
            if claims:
                check_paper_claims(outcome, jobs, results)

    return settle


def check_one(outcome: Outcome, job, job_result) -> None:
    try:
        check_result(job_result.result, job)
    except ScheduleRejected as exc:
        outcome.reject(f"{job.label}: {exc}")
        return
    log_fidelity = job_result.report.program_log_fidelity
    if not (math.isfinite(log_fidelity) and log_fidelity <= 0.0):
        outcome.reject(f"{job.label}: fidelity exp({log_fidelity}) not in (0, 1]")


def check_paper_claims(outcome: Outcome, jobs, results) -> None:
    """this-work beats baseline[7] on total shuttles, and the pass
    pipeline never costs shuttles or fidelity against this-work."""
    baseline = this_work = 0
    for index in range(0, len(jobs), 3):
        base, plain, passed = results[index : index + 3]
        if not (base.ok and plain.ok and passed.ok):
            continue
        baseline += base.result.num_shuttles
        this_work += plain.result.num_shuttles
        name = jobs[index].circuit.name
        if passed.result.num_shuttles > plain.result.num_shuttles:
            outcome.reject(f"{name}: passes added shuttles", failed_ops=0)
        if passed.report.program_log_fidelity < plain.report.program_log_fidelity:
            outcome.reject(f"{name}: passes lowered fidelity", failed_ops=0)
    if not this_work < baseline:
        outcome.reject(
            f"this-work {this_work} shuttles, not below baseline[7] {baseline}",
            failed_ops=0,
        )
    outcome.notes.append(
        f"shuttles per round: baseline[7] {baseline}, this-work {this_work}"
    )


def summarize(jobs, results) -> dict[str, float]:
    """Output quality (means per this-work schedule, with and without
    passes) and compiler/pass counts (means per job) of one round."""
    ok = [(job, r) for job, r in zip(jobs, results) if r.ok]
    mine = [r for job, r in ok if job.config.name.startswith("this-work")]
    compiled = [r.result for _, r in ok]
    passed = [r for r in compiled if r.optimized]
    return {
        "shuttles": mean(r.result.num_shuttles for r in mine),
        "program_s": mean(r.report.duration for r in mine),
        "fidelity_loss_nat": mean(-r.report.program_log_fidelity for r in mine),
        "compiler.reorders": mean(r.num_reorders for r in compiled),
        "compiler.rebalances": mean(r.num_rebalances for r in compiled),
        "compiler.ops_emitted": mean(
            r.raw_num_ops if r.optimized else len(r.schedule) for r in compiled
        ),
        "passes.rewrites": mean(r.pass_rewrites for r in passed),
        "passes.shuttles_removed": mean(r.shuttles_removed_by_passes for r in passed),
    }


QUALITY = ("shuttles", "program_s", "fidelity_loss_nat")


def layer_metrics(tracer: Tracer, phase: Phase) -> dict[str, float]:
    """Per-layer split of a traced phase: per-call medians of the spans,
    and the counts of its first round."""
    entries = [
        path.stat().st_size
        for cache_dir in phase.cache_dirs
        for path in Path(cache_dir).glob("*/*.pkl")
    ]
    generate = tracer.durations("bench.random_circuit")
    counts = {k: v for k, v in phase.summary.items() if k not in QUALITY}
    return {
        **counts,
        "bench.generate_s": statistics.median(generate) if generate else 0.0,
        "compiler.mapping_ms": tracer.median_ms("compiler.mapping"),
        "compiler.compile_ms": tracer.median_ms("compiler.compile", self_time=True),
        "passes.optimize_ms": tracer.median_ms("passes.optimize"),
        "sim.simulate_ms": tracer.median_ms("sim.simulate"),
        "batch.fingerprint_ms": tracer.median_ms("batch.fingerprint"),
        "batch.cache_put_ms": tracer.median_ms("batch.cache_put"),
        "batch.entry_bytes": statistics.median(entries) if entries else 0.0,
        "batch.cache_get_ms": tracer.median_ms("batch.cache_get", tag="hit"),
        "batch.runner_overhead_ms": 1e3 * statistics.median(job_self_times(tracer)),
    }


def job_self_times(tracer: Tracer) -> list[float]:
    """Per job: its window minus the top-level layer spans that start
    inside it (the runner's own share of the job)."""
    spans = tracer.spans
    windows = sorted((s[START], s[END]) for s in spans if s[NAME] == "batch.job")
    layers = sorted(
        (s[START], s[END] - s[START])
        for s in spans
        if s[NAME] in _RUNNER_CHILDREN
        and (s[PARENT] < 0 or spans[s[PARENT]][NAME] not in _RUNNER_CHILDREN)
    )
    out, k = [], 0
    for lo, hi in windows:
        inside = 0.0
        while k < len(layers) and layers[k][0] < lo:
            k += 1
        while k < len(layers) and layers[k][0] < hi:
            inside += layers[k][1]
            k += 1
        out.append(hi - lo - inside)
    return out


_RUNNER_CHILDREN = {
    "compiler.compile",
    "passes.optimize",
    "sim.simulate",
    "batch.fingerprint",
    "batch.cache_put",
    "batch.cache_get",
}


def end_to_end(outcome: Outcome, setup_s: float, setup_speed: HostSpeed, phase: Phase) -> None:
    setup, setup_note = setup_metric(setup_s, setup_speed)
    timed, timed_note = phase.timed()
    outcome.notes += [latency_tails(phase.latencies), setup_note, timed_note]
    outcome.metrics.update(
        setup,
        peak_rss_mb=self_peak_rss_mb(),
        **timed,
        **{k: phase.summary[k] for k in QUALITY},
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_paper_suite(seed, seconds, workdir, traced, import_s):
    outcome = Outcome()
    tracer = Tracer() if traced else None
    setup_s, suite, setup_speed = timed_setup(
        lambda span: build_suite(seed, PAPER_PER_SIZE, span), tracer
    )
    outcome.notes.append(
        f"paper-suite: {len(suite.circuits)} circuits x 3 configs per round, "
        f"{sum(len(c) for c in suite.circuits)} gates"
    )
    plain = cold_rounds(suite, seconds, workdir, None, settler(outcome, claims=True))
    end_to_end(outcome, import_s + setup_s, setup_speed, plain)
    if traced:
        traced_split(
            outcome,
            tracer,
            plain,
            lambda spans: cold_rounds(
                suite, seconds, workdir, spans, settler(outcome, plain.reference)
            ),
        )
    return outcome, tracer


def run_resweep_warm(seed, seconds, workdir, traced, import_s):
    outcome = Outcome()
    tracer = Tracer() if traced else None

    # Generation and mapping repeat like paper-suite's; the cold fill
    # (51 compilations, most of the set-up) runs once, since repeating
    # it would triple the run.
    build_s, suite, setup_speed = timed_setup(
        lambda span: build_suite(seed, RESWEEP_PER_SIZE, span), tracer
    )
    jobs = make_jobs(suite)
    cache_dir = workdir / "warm"
    start = perf_counter()
    cold = BatchRunner(n_jobs=1, cache=ResultCache(cache_dir)).run(jobs)
    setup_s = build_s + perf_counter() - start
    setup_speed.probe(SETUP_PROBES)
    # The cold fill goes through the checker; every warm hit must then
    # carry the same digest as its cold result.
    fill = Outcome()
    for job, job_result in zip(jobs, cold):
        if job_result.ok:
            check_one(fill, job, job_result)
        else:
            fill.reject(f"{job.label}: job ended {job_result.outcome}")
    for problem in fill.problems:
        outcome.reject(f"cold fill: {problem}", failed_ops=0)
    reference = [digest(r) for r in cold]
    del cold
    outcome.notes.append(f"resweep-warm: {len(jobs)} jobs per pass against a warm cache")

    def settle_warm(phase, pass_jobs, results):
        misses = sum(1 for r in results if not r.cache_hit)
        if misses:
            outcome.reject(f"{misses} warm jobs missed the cache", misses)
        settle(phase, pass_jobs, results)

    settle = settler(outcome, reference)
    plain = warm_passes(suite, cache_dir, seconds, None, settle_warm)
    end_to_end(outcome, import_s + setup_s, setup_speed, plain)
    if traced:
        traced_split(
            outcome,
            tracer,
            plain,
            lambda spans: warm_passes(suite, cache_dir, seconds, spans, settle_warm),
        )
    return outcome, tracer


def traced_split(outcome: Outcome, tracer: Tracer, plain: Phase, run_phase) -> None:
    """The traced run's per-layer split: ``run_phase(tracer)`` with the
    layers wrapped, then ``run_phase(None)`` once more, so the traced
    phase sits between two untraced ones and a drift in the host's
    speed does not read as tracing overhead."""
    wrap_layers(tracer)
    try:
        spanned = run_phase(tracer)
    finally:
        tracer.unwrap()
    after = run_phase(None)
    outcome.metrics.update(layer_metrics(tracer, spanned))
    untraced = (plain.timed()[0]["jobs_per_s"] + after.timed()[0]["jobs_per_s"]) / 2
    outcome.metrics.update(trace_overhead(untraced, spanned.timed()[0]["jobs_per_s"]))
