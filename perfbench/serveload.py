"""The ``serve-small`` workload: ``repro serve`` under closed-loop load.

The server runs in a subprocess with 2 supervised workers, an on-disk
result cache and no rate limit.  This process is its one client, with
one job in flight: it POSTs a seeded random spec, polls its status
every :data:`POLL_INTERVAL` seconds, fetches the artifact, and starts
the next.  (Two closed-loop clients on the host's 2 CPUs spread about
twice as much from run to run; see README.md.)  No spec repeats, so
every job compiles.  A job's latency runs from sending the POST to
receiving the artifact.

After the timed phase every artifact is compared with compiling the
same spec in this process, outside the timed phase.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

from repro.batch import execute_job
from repro.batch.spec import JobSpec
from repro.batch import runner as runner_module
from repro.compiler import QCCDCompiler
from repro.sim import Simulator

from checker import ScheduleRejected, check_result
from common import (
    HostSpeed,
    Outcome,
    latency_tails,
    mean,
    setup_metric,
    span_of,
    timed_metrics,
    trace_overhead,
)
from tracing import Tracer

WORKERS = 2
POLL_INTERVAL = 0.002
#: Server starts per run; ``setup_s`` reports their median.
SETUP_REPS = 9
#: Host-speed probes before and after each server start.
SETUP_PROBES = 20
#: A timed phase runs until both its seconds and this many jobs are
#: reached, so the printed p99 has at least ten samples beyond it.
MIN_JOBS = 1000
#: Jobs run on the started server before the timed phase: a fresh
#: server's first second runs ~20% slower (worker imports and first
#: calls), which would otherwise read as run-to-run spread.
WARMUP_JOBS = 100
#: Bound on one job's life before the client gives up on it.
JOB_TIMEOUT = 30.0
#: Specs drawn per second of a timed phase (more than it can use).
SPECS_PER_SECOND = 400


def make_specs(seed: int, count: int) -> list[dict]:
    """Seeded JobSpec documents: 12-24 qubits and 60-150 MS gates on
    ``linear4``, simulated, configs alternating baseline/optimized.

    Sizes follow two golden-ratio sequences from seeded offsets, so
    every prefix of the stream (a run completes a prefix) covers the
    size ranges evenly and two seeds ask for the same work; circuit
    seeds are distinct draws, so no two specs share a fingerprint."""
    rng = random.Random(seed)
    qubit_phase, gate_phase = rng.random(), rng.random()
    first_config = rng.randrange(2)
    seeds = rng.sample(range(1 << 30), count)
    return [
        {
            "kind": "random",
            "machine": "linear4",
            "config": ("baseline", "optimized")[(i + first_config) % 2],
            "qubits": 12 + int(13 * ((qubit_phase + i * _PHI) % 1.0)),
            "gates": 60 + int(91 * ((gate_phase + i * _SQRT2) % 1.0)),
            "seed": circuit_seed,
            "simulate": True,
        }
        for i, circuit_seed in enumerate(seeds)
    ]


_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT2 = math.sqrt(2.0) - 1.0


class Server:
    """``python -m repro serve`` in a subprocess, started until ready."""

    def __init__(self, root: Path, workdir: Path, tag: str) -> None:
        self.log_path = workdir / f"serve-{tag}.log"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(self.log_path, "wb")
        started = perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", str(WORKERS),
                "--cache-dir", str(workdir / f"serve-cache-{tag}"),
            ],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        try:
            self.port = self._wait_listening()
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.start_seconds = perf_counter() - started

    def _wait_listening(self) -> int:
        deadline = perf_counter() + 60.0
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_path.read_text()}")
            text = self.log_path.read_text(errors="replace")
            marker = "listening on http://127.0.0.1:"
            if marker in text:
                tail = text.split(marker, 1)[1]
                digits = tail.split(" ", 1)[0].strip()
                if digits.isdigit() and " " in tail:
                    return int(digits)
            sleep(0.002)
        raise RuntimeError("server did not start listening within 60 s")

    def _wait_ready(self) -> None:
        deadline = perf_counter() + 60.0
        while perf_counter() < deadline:
            try:
                status, _ = request(self.port, "GET", "/readyz")
            except OSError:
                status = None
            if status == 200:
                return
            sleep(0.002)
        raise RuntimeError("server did not become ready within 60 s")

    def peak_rss_mb(self) -> float:
        """Sum of peak RSS (VmHWM) of the server and its descendants."""
        total_kib = 0
        for pid in _descendants(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                pass
        return total_kib / 1024.0

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill past 30 s."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _descendants(pid: int) -> list[int]:
    found, queue = [], [pid]
    while queue:
        current = queue.pop()
        found.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as fh:
                    queue.extend(int(child) for child in fh.read().split())
            except OSError:
                pass
    return found


def request(port: int, method: str, path: str, body: dict | None = None):
    """One request on its own connection, as the program's own client
    (``repro.serve.client``) and curl make them."""
    payload = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if payload else {}
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT)
    try:
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def drive(
    server: Server, specs: list[dict], seconds: float, min_jobs: int = MIN_JOBS
) -> tuple[list[dict], float, HostSpeed]:
    """Closed loop: one job at a time, in spec order, until ``seconds``
    have passed and ``min_jobs`` are done, with a host-speed probe after
    each job.  Returns one record per job, the phase's wall time without
    the probes, and the probes."""
    records: list[dict] = []
    speed = HostSpeed()
    probing = 0.0
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline + probing or len(records) < min_jobs:
        if len(records) == len(specs):
            raise RuntimeError("spec stream exhausted; raise SPECS_PER_SECOND")
        records.append(run_job(server.port, specs[len(records)]))
        probing += speed.probe()
    return records, perf_counter() - start - probing, speed


def run_job(port: int, spec: dict) -> dict:
    """Submit, poll, fetch one job; timings in seconds on the record."""
    record: dict = {"spec": spec, "polls": []}
    sent = perf_counter()
    try:
        status, body = request(port, "POST", "/v1/jobs", spec)
        record["submit"] = (sent, perf_counter())
        if status != 202:
            record["error"] = f"POST {status}: {body[:200]!r}"
            return record
        job_id = json.loads(body)["id"]
        give_up = sent + JOB_TIMEOUT
        while True:
            sleep(POLL_INTERVAL)
            polled = perf_counter()
            status, body = request(port, "GET", f"/v1/jobs/{job_id}")
            record["polls"].append((polled, perf_counter()))
            if status != 200:
                record["error"] = f"status {status}: {body[:200]!r}"
                return record
            document = json.loads(body)
            if document["state"] == "done":
                break
            if perf_counter() > give_up:
                record["error"] = f"job {job_id} not done after {JOB_TIMEOUT} s"
                return record
        record["status"] = document
        if document["outcome"] != "ok":
            record["error"] = f"job ended {document['outcome']}"
            return record
        fetched = perf_counter()
        status, body = request(port, "GET", f"/v1/jobs/{job_id}/result")
        done = perf_counter()
        if status != 200:
            record["error"] = f"result {status}: {body[:200]!r}"
            return record
        record["fetch"] = (fetched, done)
        record["artifact_bytes"] = len(body)
        record["artifact"] = json.loads(body)["result"]
        record["latency"] = done - sent
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def check_records(outcome: Outcome, records: list[dict], tracer) -> list:
    """Count failures; compare each artifact with an in-process compile
    of its spec, marking a rejected record with its ``error``.  Returns
    the in-process results."""
    span = span_of(tracer)
    compiled = []
    outcome.attempted += len(records)
    for record in records:
        spec = record["spec"]
        label = f"random:{spec['qubits']}:{spec['gates']}:{spec['seed']}/{spec['config']}"
        if "error" not in record:
            with span("bench.random_circuit"):
                job = JobSpec.from_dict(spec).resolve()
            with span("serve.compute"):
                result, report = execute_job(job)
            compiled.append(result)
            record["error"] = artifact_problem(record["artifact"], spec, job, result, report)
            if record["error"] is None:
                del record["error"]
                continue
        outcome.reject(f"{label}: {record['error']}")
    return compiled


def artifact_problem(artifact: dict, spec: dict, job, result, report) -> str | None:
    try:
        check_result(result, job)
    except ScheduleRejected as exc:
        return f"in-process schedule rejected: {exc}"
    simulation = artifact.get("simulation") or {}
    if artifact.get("num_gates") != spec["gates"]:
        return f"artifact has {artifact.get('num_gates')} gates"
    if (
        artifact.get("num_shuttles") != result.num_shuttles
        or simulation.get("log10_fidelity") != report.log10_fidelity
        or simulation.get("duration") != report.duration
    ):
        return "artifact differs from the in-process compile"
    return None


def served_metrics(records: list[dict], wall: float, speed: HostSpeed):
    """End-to-end metrics over the jobs that passed the checks, and a
    note with the timings as measured."""
    ok = [r for r in records if "error" not in r]
    mine = [r["artifact"] for r in ok if r["spec"]["config"] == "optimized"]
    timed, note = timed_metrics(len(ok), wall, [r["latency"] for r in ok], speed)
    return {
        **timed,
        "shuttles": mean(a["num_shuttles"] for a in mine),
        "program_s": mean(a["simulation"]["duration"] for a in mine),
        "fidelity_loss_nat": mean(
            -a["simulation"]["log10_fidelity"] * math.log(10.0) for a in mine
        ),
    }, note


def layer_metrics(records: list[dict], tracer: Tracer, compiled: list) -> dict[str, float]:
    ok = [r for r in records if "error" not in r]

    def median_ms(values):
        values = list(values)
        return 1e3 * statistics.median(values) if values else 0.0

    for r in ok:
        tracer.add("serve.submit", *r["submit"])
        for poll in r["polls"]:
            tracer.add("serve.poll", *poll)
        tracer.add("serve.fetch", *r["fetch"])
    statuses = [r["status"] for r in ok]
    generate = tracer.durations("bench.random_circuit")
    return {
        "bench.generate_s": statistics.median(generate) if generate else 0.0,
        "compiler.mapping_ms": tracer.median_ms("compiler.mapping"),
        "compiler.compile_ms": tracer.median_ms("compiler.compile", self_time=True),
        "compiler.reorders": mean(r.num_reorders for r in compiled),
        "compiler.rebalances": mean(r.num_rebalances for r in compiled),
        "compiler.ops_emitted": mean(len(r.schedule) for r in compiled),
        "sim.simulate_ms": tracer.median_ms("sim.simulate"),
        "serve.submit_ms": tracer.median_ms("serve.submit"),
        "serve.queue_wait_ms": median_ms(
            s["finished_at"] - s["submitted_at"] - s["seconds"] for s in statuses
        ),
        "serve.service_ms": median_ms(s["seconds"] for s in statuses),
        "serve.compute_ms": tracer.median_ms("serve.compute"),
        "serve.poll_ms": tracer.median_ms("serve.poll"),
        "serve.polls_per_job": mean(len(r["polls"]) for r in ok),
        "serve.fetch_ms": tracer.median_ms("serve.fetch"),
        "serve.artifact_bytes": statistics.median(r["artifact_bytes"] for r in ok),
    }


def run_serve_small(seed, seconds, workdir, traced, root) -> tuple[Outcome, Tracer | None]:
    outcome = Outcome()
    starts = []
    setup_speed = HostSpeed()
    for rep in range(SETUP_REPS):
        setup_speed.probe(SETUP_PROBES)
        server = Server(root, workdir, str(rep))
        starts.append(server.start_seconds)
        if rep < SETUP_REPS - 1:
            server.stop()
    tracer = Tracer() if traced else None
    try:
        setup_speed.probe(SETUP_PROBES)
        per_phase = max(int(SPECS_PER_SECOND * seconds), 3 * MIN_JOBS)
        specs = make_specs(seed, WARMUP_JOBS + per_phase * (3 if traced else 1))
        warmup, _, _ = drive(server, specs[:WARMUP_JOBS], 0.0, WARMUP_JOBS)
        specs = specs[WARMUP_JOBS:]
        plain = drive(server, specs, seconds)
        if traced:
            # The spanned phase sits between two untraced ones, so a
            # drift in the host's speed does not read as overhead.
            spanned = drive(server, specs[len(plain[0]):], seconds)
            after = drive(server, specs[len(plain[0]) + len(spanned[0]):], seconds)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    outcome.notes.append(
        f"serve-small: {len(plain[0])} jobs, one closed-loop client, "
        f"{WORKERS} workers, poll every {POLL_INTERVAL * 1e3:g} ms"
    )
    check_records(outcome, warmup, None)
    check_records(outcome, plain[0], None)
    outcome.notes.append(
        latency_tails([r["latency"] for r in plain[0] if "error" not in r])
    )
    setup, setup_note = setup_metric(statistics.median(starts), setup_speed)
    served, served_note = served_metrics(*plain)
    outcome.notes += [setup_note, served_note]
    outcome.metrics.update(setup, peak_rss_mb=peak_rss, **served)
    if traced:
        tracer.wrap(QCCDCompiler, "compile", "compiler.compile")
        tracer.wrap(Simulator, "run", "sim.simulate")
        tracer.wrap(runner_module, "greedy_initial_mapping", "compiler.mapping")
        try:
            compiled = check_records(outcome, spanned[0], tracer)
        finally:
            tracer.unwrap()
        check_records(outcome, after[0], None)
        outcome.metrics.update(layer_metrics(spanned[0], tracer, compiled))
        untraced = (served["jobs_per_s"] + served_metrics(*after)[0]["jobs_per_s"]) / 2
        outcome.metrics.update(
            trace_overhead(untraced, served_metrics(*spanned)[0]["jobs_per_s"])
        )
    return outcome, tracer
