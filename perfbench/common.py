"""Shared pieces of the benchmark workloads: the outcome record,
statistics, resource readings and the host-speed probe."""

from __future__ import annotations

import math
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: Property violations; any entry makes the run incorrect.
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Lines printed before the result (counts, trace totals, notes).
    notes: list[str] = field(default_factory=list)

    def reject(self, message: str, failed_ops: int = 1) -> None:
        """Record a violated property, counted as ``failed_ops`` failed
        operations (0 for properties of the whole run)."""
        self.failed += failed_ops
        if len(self.problems) < 20:
            self.problems.append(message)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_tails(latencies_s) -> str:
    """A note with the tail percentiles the sample supports (ten or
    more samples beyond), as measured."""
    n = len(latencies_s)
    tails = [q for q in (90, 99) if n * (100 - q) / 100 >= 10]
    note = ", ".join(
        f"p{q} {1e3 * percentile(latencies_s, q):.1f} ms" for q in tails
    )
    return (
        f"latency over {n} jobs: {note or 'too few samples for a tail'}"
        " (as measured; printed, not gated: see README)"
    )


def timed_metrics(jobs: int, wall: float, latencies_s, speed: "HostSpeed"):
    """``jobs_per_s`` and ``latency_p50_ms`` of a timed phase at the
    reference speed, and a note with the figures as measured."""
    jobs_per_s = jobs / wall
    p50_ms = 1e3 * statistics.median(latencies_s)
    factor = speed.factor
    return (
        {"jobs_per_s": jobs_per_s * factor, "latency_p50_ms": p50_ms / factor},
        f"as measured: jobs_per_s {jobs_per_s:.4g}, latency_p50_ms "
        f"{p50_ms:.4g}; host speed factor {factor:.3f} over "
        f"{len(speed.samples)} probes",
    )


def setup_metric(seconds: float, speed: "HostSpeed") -> tuple[dict[str, float], str]:
    """``setup_s`` at the reference speed, and a note as measured."""
    factor = speed.factor
    return (
        {"setup_s": seconds / factor},
        f"as measured: setup_s {seconds:.4g}; host speed factor "
        f"{factor:.3f} over {len(speed.samples)} probes",
    )


def trace_overhead(untraced_jobs_per_s: float, traced_jobs_per_s: float) -> dict[str, float]:
    """The traced run's two throughputs and the traced one's shortfall."""
    return {
        "trace.untraced_jobs_per_s": untraced_jobs_per_s,
        "trace.traced_jobs_per_s": traced_jobs_per_s,
        "trace.overhead_pct": 100.0 * (1.0 - traced_jobs_per_s / untraced_jobs_per_s),
    }


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span_of(tracer):
    """``tracer.span`` or, untraced, a no-op of the same shape."""
    if tracer is None:
        return lambda name: nullcontext()
    return tracer.span


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


#: Seconds one :func:`_probe_kernel` call is taken to last at the
#: reference speed: a round figure near its median time on the 2-vCPU
#: reference host (README.md, "Host-speed scaling").
REFERENCE_PROBE_S = 300e-6


def _probe_kernel() -> int:
    """A fixed piece of interpreter work (dict, list and integer
    operations, as the program's own code does) that nothing in the
    program can speed up or slow down."""
    table: dict[int, int] = {}
    for k in range(2000):
        table[k % 61] = table.get(k % 61, 0) + k
    return len(sorted(table.values()))


class HostSpeed:
    """How fast this host ran while a phase was measured.

    The host is a few vCPUs of a shared machine whose speed drifts by
    up to ~1.7x within minutes, whatever this process does.  Workloads
    call :meth:`probe` between their timed operations (never inside
    one), so the probes sample the same minutes as the operations;
    :attr:`factor` is the probes' mean time over
    :data:`REFERENCE_PROBE_S`.  A phase's seconds divided by it are
    seconds at the reference speed: the program's own speed-ups and
    slow-downs still move them one to one, the host's drift does not.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self, times: int = 1) -> float:
        """Run the probe ``times`` times; returns the seconds spent."""
        begin = perf_counter()
        for _ in range(times):
            # An untimed first call warms the caches, so a probe right
            # after a job times the same thing as one in a burst.
            _probe_kernel()
            start = perf_counter()
            _probe_kernel()
            self.samples.append(perf_counter() - start)
        return perf_counter() - begin

    @property
    def factor(self) -> float:
        return mean(self.samples) / REFERENCE_PROBE_S
