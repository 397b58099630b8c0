"""The ``serve-mixed`` workload: a local ``repro-serve`` daemon and two
closed-loop clients.

The daemon runs one worker, fresh state and cache directories, and
admission limits far above the offered load.  Each client thread holds one
:class:`repro.service.client.ServiceClient` connection and, per batch,
submits one fresh job and up to three repeats of its own earlier fresh
jobs, then watches the fresh job to terminal (as ``repro-submit`` does).
Repeats are answered from the result cache at submit time.  After the
timed window every fresh job's result is fetched through the ``result`` op
and gated like a sweep result.
"""

from __future__ import annotations

import bisect
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import inputs
import metrics
import yardstick
from gate import Gate
from ledger import calibrate
from repro.service.client import ServiceClient
from repro.service.protocol import DONE, QUEUED
from repro.sim.stats import RunResult

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "serve_launcher.py"
YARDSTICK = HERE / "yardstick.py"

#: Seconds between the starts of two yardstick samples on a CPU (on the
#: worker's CPU the sampler takes ~2% of the worker's time).
SPEED_PERIOD = 0.05

#: Yardstick samples that set the scale of one fresh job (taken from the
#: nearest in time on the worker's CPU).
SPEED_SAMPLES = 9

#: A repeat is scaled by the daemon CPU's samples within this many seconds
#: of it.  Over ten runs, windows of 0.5 s and 5 s both left the spread of
#: ``hit_p50_ms`` about twice that of 2 s; a repeat takes under a
#: millisecond, so single samples next to it say little.
HIT_SPEED_WINDOW = 2.0

#: Seconds per slice when a whole timed window is scaled.
SPAN_SLICE = 0.5

#: Admission limits well above what two closed-loop clients can offer.
DAEMON_FLAGS = ["--workers", "1", "--queue-depth", "100000",
                "--rate", "1000000", "--burst", "1000000",
                "--drain-grace", "60"]

READY_TIMEOUT = 60.0
EXIT_TIMEOUT = 60.0


class Daemon:
    """One benchmark-owned daemon in a fresh temporary directory."""

    def __init__(self, root: Path, tmp_root: Path, trace: bool) -> None:
        tmp_root.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=tmp_root))
        # Relative to the checkout root (the working directory of both
        # processes) so the unix socket path stays short.
        self.socket = os.path.relpath(self.tmp / "s.sock", root)
        self.out = self.tmp / "launcher.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        command = [sys.executable, str(LAUNCHER), "--out", str(self.out)]
        if trace:
            command.append("--trace")
        command += ["--", "--state-dir", str(self.tmp / "state"),
                    "--cache-dir", str(self.tmp / "cache"),
                    "--socket", self.socket] + DAEMON_FLAGS
        self.log = open(self.tmp / "daemon.log", "wb")
        self.proc = subprocess.Popen(command, cwd=root, env=env,
                                     stdout=self.log, stderr=subprocess.STDOUT)

    def wait_ready(self) -> None:
        """Poll the socket until the daemon accepts connections."""
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode} "
                                   f"during start-up")
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                try:
                    probe.connect(self.socket)
                    return
                except OSError:
                    pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not start listening")
            time.sleep(0.005)

    def client(self) -> ServiceClient:
        return ServiceClient(socket_path=self.socket, timeout=120.0,
                             connect_attempts=3)

    def stop(self) -> dict:
        """Drain the daemon, wait for it, return the launcher's report."""
        try:
            if self.proc.poll() is None:
                try:
                    with self.client() as client:
                        client.drain()
                except (OSError, RuntimeError):
                    self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=EXIT_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            try:
                return json.loads(self.out.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                return {}
        finally:
            self.log.close()
            shutil.rmtree(self.tmp, ignore_errors=True)


def isolate_workers(daemon: Daemon) -> int:
    """Give the daemon's worker processes a CPU of their own.

    The worker is the only busy process of the workload; left to the
    scheduler it shares a CPU with the daemon and the clients at times,
    which makes cache-hit round trips wait behind simulations.  The
    benchmark process and the daemon keep the other CPUs.  Workers
    respawned later inherit the daemon's CPUs.  Returns the worker's CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus[0]
    workers = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            command = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        if parent == daemon.proc.pid and b"repro.service.worker" in command:
            workers.append(int(entry.name))
    for pid in workers:
        os.sched_setaffinity(pid, cpus[-1:])
    os.sched_setaffinity(daemon.proc.pid, cpus[:-1])
    os.sched_setaffinity(0, cpus[:-1])
    return cpus[-1]


class Speed:
    """Yardstick samples taken on one CPU during the window, as
    ``(start, seconds)`` pairs in time order (see :mod:`yardstick`)."""

    def __init__(self, samples=()) -> None:
        self.samples: list[tuple[float, float]] = sorted(samples)

    def around(self, at: float, window: float) -> float:
        """Scale to the reference speed for short work done at ``at``: the
        samples within ``window`` seconds of it (or the nearest
        ``SPEED_SAMPLES`` if there are fewer)."""
        low = bisect.bisect_left(self.samples, (at - window,))
        high = bisect.bisect_right(self.samples, (at + window, float("inf")))
        if high - low >= SPEED_SAMPLES:
            return yardstick.scale([took for _, took in
                                    self.samples[low:high]])
        return self.factor(at, at)

    def factor(self, start: float, end: float) -> float:
        """Scale to the reference speed for work done from ``start`` to
        ``end``: the samples taken in that interval, or if there are fewer
        than ``SPEED_SAMPLES``, that many nearest to its middle."""
        if not self.samples:
            raise RuntimeError("the yardstick sampler took no samples")
        inside = [took for at, took in self.samples if start <= at <= end]
        if len(inside) >= SPEED_SAMPLES:
            return yardstick.scale(inside)
        middle = (start + end) / 2.0
        nearest = sorted(self.samples,
                         key=lambda pair: abs(pair[0] - middle))
        return yardstick.scale([took for _, took in
                                nearest[:SPEED_SAMPLES]])

    def span(self, start: float, end: float) -> float:
        """The seconds from ``start`` to ``end`` at the reference speed,
        scaled slice by slice."""
        slices = max(1, round((end - start) / SPAN_SLICE))
        step = (end - start) / slices
        return sum(step * self.factor(start + k * step, start + (k + 1) * step)
                   for k in range(slices))


class SpeedProbe(Speed):
    """Yardstick samples on one CPU, taken every ``SPEED_PERIOD`` seconds
    in a subprocess alongside the service."""

    def __init__(self, tmp: Path, cpu: int) -> None:
        super().__init__()
        self.out = tmp / f"speed-{cpu}.json"
        self.proc = subprocess.Popen(
            [sys.executable, str(YARDSTICK), "--cpu", str(cpu),
             "--period", str(SPEED_PERIOD), "--out", str(self.out)],
            stdin=subprocess.PIPE)

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        try:
            self.samples = sorted(
                tuple(pair) for pair in
                json.loads(self.out.read_text(encoding="utf-8")))
        except (OSError, ValueError):
            self.samples = []       # factor() then fails the run


def sample_between_batches(threads, runs) -> Speed:
    """Yardstick samples on the daemon's CPU, taken by the main thread
    every ``SPEED_PERIOD`` seconds until the client threads end.

    The benchmark process shares that CPU with the daemon.  A sample is
    taken only while it holds every client's ``submitting`` lock, so it
    never runs alongside a timed repeat: a sampler process running beside
    them, even at idle priority, doubled the share of repeats slower than
    twice the median.  A client whose watch ends mid-sample waits for the
    lock at most one sample, before its next batch's first submit.
    """
    samples = []
    while any(thread.is_alive() for thread in threads):
        start = time.perf_counter()
        held = []
        for run in runs:
            if not run.submitting.acquire(blocking=False):
                break
            held.append(run.submitting)
        try:
            if len(held) == len(runs):
                samples.append((time.perf_counter(), yardstick.sample()))
        finally:
            for lock in held:
                lock.release()
        time.sleep(max(0.0, start + SPEED_PERIOD - time.perf_counter()))
    return Speed(samples)


def run_warmup(daemon: Daemon, seed: int) -> None:
    with daemon.client() as client:
        if not client.status().get("ok"):
            raise RuntimeError("daemon status failed")
        client.submit("warmup", inputs.warmup_job(seed).to_payload(),
                      tenant="warmup")
        state = client.watch(["warmup"])["warmup"].get("state")
        if state != DONE:
            raise RuntimeError(f"warm-up job ended {state}")


def setup(root: Path, tmp_root: Path, seed: int, seconds: float,
          trace: bool):
    """Everything before the first timed request: the request plans, the
    daemon's start until ``status`` answers, and the warm-up job."""
    plans = inputs.serve_plan(seed, seconds)
    daemon = Daemon(root, tmp_root, trace)
    try:
        daemon.wait_ready()
        run_warmup(daemon, seed)
    except BaseException:
        daemon.stop()
        raise
    return plans, daemon


class ClientRun:
    """What one client thread saw."""

    def __init__(self) -> None:
        # fresh id -> (sent, seconds); repeats as (sent, seconds)
        self.fresh_latency: dict[str, tuple[float, float]] = {}
        self.terminal: dict[str, dict] = {}         # fresh id -> frame
        self.hit_latency: list[tuple[float, float]] = []
        self.ok = 0
        self.errors: list[str] = []
        # Held while submitting a batch; see sample_between_batches().
        self.submitting = threading.Lock()


def client_loop(daemon: Daemon, index: int, batches, barrier,
                out: ClientRun) -> None:
    try:
        with daemon.client() as client:
            barrier.wait()
            for batch in batches:
                submitted: dict[str, float] = {}
                with out.submitting:
                    for request in batch:
                        sent = time.perf_counter()
                        response = client.submit(request.id,
                                                 request.job.to_payload(),
                                                 tenant=f"client-{index}")
                        elapsed = time.perf_counter() - sent
                        state = response.get("state")
                        if not request.repeat:
                            if state != QUEUED:
                                out.errors.append(f"{request.id}: submit answered "
                                                  f"{state}")
                            submitted[request.id] = sent
                            continue
                        first = out.terminal.get(request.repeat_of, {})
                        if state == DONE and response.get("cached") \
                                and response.get("cycles") == first.get("cycles"):
                            out.hit_latency.append((sent, elapsed))
                            out.ok += 1
                        else:
                            out.errors.append(
                                f"{request.id}: repeat of {request.repeat_of} "
                                f"answered {state} cached={response.get('cached')} "
                                f"cycles={response.get('cycles')}")

                def arrived(frame, submitted=submitted):
                    sent = submitted[frame["id"]]
                    out.fresh_latency[frame["id"]] = (
                        sent, time.perf_counter() - sent)
                    out.terminal[frame["id"]] = frame

                client.watch(list(submitted), on_event=arrived)
                for job_id in submitted:
                    state = out.terminal.get(job_id, {}).get("state")
                    if state == DONE:
                        out.ok += 1
                    else:
                        out.errors.append(f"{job_id}: ended {state}")
    except Exception as error:   # noqa: BLE001 - reported as a failed run
        out.errors.append(f"client {index}: {type(error).__name__}: {error}")
        barrier.abort()   # never leave the main thread waiting for us


def run(root: Path, seed: int, seconds: float, trace: bool, started: float,
        setup_samples, tmp_root: Path, gate: Gate) -> dict:
    """One run; same contract as :func:`sweep.run`."""
    plans, daemon = setup(root, tmp_root, seed, seconds, trace)
    cpus = os.sched_getaffinity(0)
    probes: list[SpeedProbe] = []
    try:
        setup_s = yardstick.setup_seconds(started)
        worker_cpu = isolate_workers(daemon)
        if not trace:
            probes.append(SpeedProbe(daemon.tmp, worker_cpu))
        with daemon.client() as control:
            if trace:
                control.status()                       # window start mark
            runs = [ClientRun() for _ in plans]
            barrier = threading.Barrier(len(plans) + 1)
            threads = [threading.Thread(target=client_loop, daemon=True,
                                        args=(daemon, i, plans[i], barrier,
                                              runs[i]))
                       for i in range(len(plans))]
            for thread in threads:
                thread.start()
            try:
                barrier.wait(timeout=READY_TIMEOUT)
            except BaseException:
                barrier.abort()
                raise
            window_start = time.perf_counter()
            if not trace:
                front = sample_between_batches(threads, runs)
            for thread in threads:
                thread.join()
            window = time.perf_counter() - window_start
            if trace:
                control.status()                       # window end mark
            results = fetch_results(control, plans, gate)
    finally:
        for probe in probes:
            probe.stop()
        report = daemon.stop()
        os.sched_setaffinity(0, cpus)

    attempted = sum(len(batch) for plan in plans for batch in plan)
    fresh_n = sum(len(plan) for plan in plans)
    described = (f"serve-mixed: {len(plans)} clients, {fresh_n} fresh and "
                 f"{attempted - fresh_n} repeated requests")
    errors = [e for r in runs for e in r.errors]
    gate.errors.extend(errors)
    ok = sum(r.ok for r in runs)
    failed = attempted - ok
    fresh = [timed for r in runs for timed in r.fresh_latency.values()]
    hits = [timed for r in runs for timed in r.hit_latency]
    if trace:
        values = _traced_values(report, results,
                                [latency for _, latency in fresh])
        return {"attempted": attempted, "failed": failed, "values": values,
                "inputs": described}
    # Fresh jobs are simulated on the worker's CPU, repeats answered on the
    # daemon's: each time is scaled by the speed of the CPU that did it.
    worker = probes[0]
    p50, p90 = metrics.percentiles_ms(
        [latency * worker.factor(sent, sent + latency)
         for sent, latency in fresh])
    hit50, hit90 = metrics.percentiles_ms(
        [latency * front.around(sent + latency / 2.0, HIT_SPEED_WINDOW)
         for sent, latency in hits])
    window = worker.span(window_start, window_start + window)
    values = {
        "jobs_per_s": ok / window,
        "sim_kips": sum(r.instructions for r in results) / 1000.0 / window,
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "hit_p50_ms": hit50,
        "hit_p90_ms": hit90,
        "ok_ratio": ok / attempted,
        "peak_rss_mb": float(report["peak_rss_mb"]),
    }
    values["setup_s"] = statistics.median([setup_s] + setup_samples())
    return {"attempted": attempted, "failed": failed, "values": values,
            "inputs": described}


def fetch_results(client: ServiceClient, plans, gate: Gate) -> list[RunResult]:
    """Every fresh job's result through the ``result`` op, gated."""
    results = []
    for plan in plans:
        for batch in plan:
            request = batch[0]
            label = f"{request.id} {inputs.job_label(request.job)}"
            payload = client.result(request.id).get("result")
            result = RunResult.from_dict(payload) if payload else None
            if gate.check(label, request.job, result):
                results.append(result)
    return results


def _traced_values(report: dict, results, fresh: list[float]) -> dict:
    marks = report.get("marks") or []
    if len(marks) < 3:
        raise RuntimeError(f"daemon recorded {len(marks)} status marks, "
                           f"expected 3")
    (t0, before), (t1, after) = marks[-2], marks[-1]
    total = t1 - t0
    cost = calibrate()
    values, untraced = metrics.layer_metrics(before, after, total, cost)
    values["sim.events.per_kinst"] = 0.0
    values.update(metrics.memory_ratios(results))
    busy = values["service.supervisor.busy_s"]
    runs = values["service.supervisor.calls"]
    values["service.worker_utilization"] = busy / total
    values["service.wait_ms"] = ((statistics.mean(fresh) - busy / runs) * 1000.0
                                 if runs and fresh else 0.0)
    # The daemon cannot re-run the window untraced: the ratio is estimated
    # from the calibrated wrapper cost.
    values["trace.overhead_ratio"] = total / untraced
    values["trace.per_call_us"] = sum(cost) * 1e6
    return values
