"""One workload in a fresh interpreter: set up, measure, check.

Started by ``run.py``; prints one JSON line with the measurements::

    python3 -m perfbench.workload --workload NAME --seed N --seconds S \\
        --t0 MONOTONIC --work DIR [--setup-only] [--trace]

``--t0`` is the launcher's ``time.monotonic()`` just before it started
this interpreter (the clock is system-wide), so ``setup_s`` runs from
interpreter start to the first timed operation.  ``--setup-only`` stops
there, which is how the launcher repeats set-up to report its median.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy

from repro.core.classifier import DrBwClassifier
from repro.core.training import train_default_classifier
from repro.errors import ReproError, ServiceError
from repro.eval.configs import config_by_name
from repro.eval.groundtruth import interleave_oracle
from repro.fleet.aggregator import FleetAggregator
from repro.fleet.sim import run_fleet
from repro.numasim.machine import Machine
from repro.parallel import seeding
from repro.service import jobspec
from repro.service.client import ServiceClient
from repro.workloads.suites.registry import BENCHMARKS

from perfbench import checks, specs
from perfbench.tracer import LayerTracer, layer_metrics, merge

#: Jobs per run whose verdicts are checked against the interleave oracle
#: (~55 ms each, outside the timed phase).  Only these jobs' outputs are
#: kept; the others are checked as they arrive, so the benchmark's own
#: memory does not grow with throughput.
ORACLE_SAMPLE = 40
#: Open-loop arrival rate of ``serve-mix`` (requests/s): about half of
#: what the closed loop sustains on a 2-CPU host.
OPEN_RATE = 8.0
#: Share of a ``serve-mix`` run spent in the closed loop, which gives the
#: gated throughput and latency; the open loop has the rest.
CLOSED_SHARE = 0.7
#: ``ServiceClient.wait`` poll interval, fixed (no backoff).
POLL_S = 0.005
#: ``fleet-live`` simulates machines on this many threads.
FLEET_JOBS = 2
#: Fleet runs per run whose wire records are kept for the shuffled
#: re-ingest check; the others are checked as they arrive.
FLEET_REINGEST = 3
#: Per-layer metrics measured by the workloads rather than the tracer;
#: zero on the workloads that do not have them.
EXTRA_LAYER_METRICS = ("service.exec_ms", "service.wait_ms", "service.hit_ms", "fleet.epochs")


def _write_model(clf, path: str) -> None:
    """Save a classifier exactly as ``drbw train --model`` does."""
    with open(path, "w") as fh:
        json.dump(clf.to_dict(), fh, indent=2)


def _train_model(seed: int, path: str) -> None:
    clf, _ = train_default_classifier(Machine(), seed=seed)
    _write_model(clf, path)


def _train_model_apart(seed: int, path: str) -> None:
    """:func:`_train_model` in an interpreter of its own, as a user runs
    ``drbw train`` once before using the model.

    ``fleet-live`` trains this way: training's peak resident set lies
    above the fleet runs', and the fleet runs made on the heap training
    left behind peaked anywhere from 61.7 to 75.5 MB.  The ``detect-*``
    workloads train in-process, because their jobs ran steadier after
    it (see README).
    """
    subprocess.run(
        [sys.executable, "-c",
         "import sys; from perfbench.workload import _train_model; "
         "_train_model(int(sys.argv[1]), sys.argv[2])", str(seed), path],
        check=True, timeout=300,
    )


def _oracle_mode(text: str) -> str:
    r = json.loads(text)
    cfg = config_by_name(r["config"])
    workload = BENCHMARKS[r["benchmark"]].build(r["input"])
    return interleave_oracle(workload, Machine(), cfg.n_threads, cfg.n_nodes).mode.value


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Measurement:
    """What the timed phase of one run produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.elapsed = 0.0
        self.paused = 0.0
        self.info: dict[str, float] = {}

    @contextlib.contextmanager
    def pause(self):
        """Time spent in this block is left out of the measured phase."""
        t = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - t

    def summary(self) -> dict:
        lat = sorted(self.latencies)
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "ops": len(lat),
            "elapsed_s": self.elapsed,
            "ops_per_s": len(lat) / self.elapsed,
            "op_p50_ms": 1000.0 * statistics.median(lat),
        }
        if len(lat) >= 40:
            # The highest order statistic with ten operations beyond it.
            self.info["op_tail_ms"] = 1000.0 * lat[-11]
        return out


class Workload:
    """Defaults shared by the workloads: the work runs in this process."""

    #: Tracer stats of a traced subprocess, merged into this process's.
    server_stats: dict = {}

    def teardown(self) -> None:
        self.peak_rss_mb = _rss_mb()

    def extra_layers(self, ops: int) -> dict[str, float]:
        return {}

    def close(self) -> None:
        """Stop whatever set-up started, also after a failure."""


class DetectWorkload(Workload):
    """``detect-retrain`` and ``detect-model``: in-process
    ``canonical_json(execute_job(spec))``, what ``drbw detect --json`` prints."""

    def __init__(self, args) -> None:
        self.args = args
        self.retrain = args.workload == "detect-retrain"
        self.kept: list[tuple[dict, str]] = []
        self.problems: list[str] = []
        self.errors: list[str] = []

    def setup(self) -> None:
        if self.retrain:
            self.jobs = specs.detect_retrain_jobs(self.args.seed)
        else:
            model = os.path.join(self.args.work, "model.json")
            _train_model(specs.model_seed(self.args.seed), model)
            self.jobs = specs.detect_model_jobs(self.args.seed, model)

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        start = time.perf_counter()
        while True:
            spec = next(self.jobs)
            m.attempted += 1
            t = time.perf_counter()
            try:
                text = seeding.canonical_json(jobspec.execute_job(spec))
            except ReproError as exc:
                m.failed += 1
                self.errors.append(str(exc))
            else:
                m.latencies.append(time.perf_counter() - t)
                with m.pause():
                    self.problems += checks.check_detect_result(text)
                    if len(self.kept) < ORACLE_SAMPLE:
                        self.kept.append((spec, text))
            if time.perf_counter() - start - m.paused >= seconds:
                break
        m.elapsed = time.perf_counter() - start - m.paused
        return m

    def check(self) -> list[str]:
        problems = list(self.problems)
        sample = [text for _, text in self.kept]
        problems += checks.check_oracle(sample, [_oracle_mode(t) for t in sample])
        if self.retrain and self.kept:
            rng = random.Random(f"retrain-check:{self.args.seed}")
            spec, text = rng.choice(self.kept)
            model = os.path.join(self.args.work, "check-model.json")
            _train_model(spec["seed"], model)
            expected = seeding.canonical_json(jobspec.execute_job(dict(spec, model=model)))
            problems += checks.check_equal(
                f"retrained job vs model trained at seed {spec['seed']}", text, expected
            )
        return problems


class RecordingClient(ServiceClient):
    """A :class:`ServiceClient` that keeps the last status and the raw
    result bytes that :meth:`ServiceClient.wait` fetched."""

    last_status: dict = {}
    last_text: str = ""

    def status(self, job_id: str) -> dict:
        self.last_status = super().status(job_id)
        return self.last_status

    def result(self, job_id: str) -> dict:
        self.last_text = self.result_text(job_id)
        return json.loads(self.last_text)


class ServeWorkload(Workload):
    """``serve-mix``: ``drbw serve`` with its defaults as a subprocess,
    a closed loop over one connection, then an open loop at
    :data:`OPEN_RATE` from two senders."""

    def __init__(self, args) -> None:
        self.args = args
        self.records: list[dict] = []
        self.errors: list[str] = []
        self._lock = threading.Lock()
        self.server_stats: dict = {}

    def setup(self) -> None:
        work = self.args.work
        self.model = os.path.join(work, "model.json")
        _train_model(specs.model_seed(self.args.seed), self.model)
        self.stats_path = os.path.join(work, "server-stats.json")
        serve = ["serve", "--port", "0", "--cache-dir", os.path.join(work, "cache")]
        if self.args.trace:
            cmd = [sys.executable, "-m", "perfbench.serve_traced", self.stats_path, *serve]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        log_path = os.path.join(work, "server.log")
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log)
        url = None
        deadline = time.monotonic() + 60
        while url is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start; see {log_path}")
            time.sleep(0.01)
            with open(log_path) as fh:
                found = re.search(r"listening on (http://\S+)", fh.read())
            url = found.group(1) if found else None
        self.url = url
        probe = ServiceClient(url, timeout=5)
        while not probe.healthy():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server never became healthy; see {log_path}")
            time.sleep(0.01)
        # The server imports the pipeline lazily on its first jobs; a
        # user pays that once per server, not per request.
        for spec in specs.serve_warmup(self.model):
            probe.run(spec, timeout=60, poll_s=POLL_S)

    def _request(self, client: RecordingClient, spec: dict, repeat: bool, phase: str,
                 t_sched: float | None = None) -> None:
        t_send = time.perf_counter()
        try:
            job = client.submit(spec)
            client.wait(job["id"], timeout=60, poll_s=POLL_S, poll_max_s=POLL_S)
        except ServiceError as exc:
            with self._lock:
                self.errors.append(str(exc))
            return
        t_done = time.perf_counter()
        with self._lock:
            self.records.append({
                "phase": phase, "spec": spec, "repeat": repeat,
                "text": client.last_text, "status": client.last_status,
                "t_send": t_send, "t_done": t_done,
                "t_sched": t_send if t_sched is None else t_sched,
            })

    def _run_senders(self, target) -> None:
        """Run ``target(0)`` and ``target(1)`` on two threads; re-raise
        the first error."""
        errors: list[BaseException] = []

        def guarded(i: int) -> None:
            try:
                target(i)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(i,)) for i in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        if errors:
            raise errors[0]

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        closed_s = CLOSED_SHARE * seconds
        open_s = seconds - closed_s
        # One connection: with two, requests share the server's single
        # interpreter, and throughput and median latency swung 35% and
        # 50% between runs where one connection stayed within 14% and 10%.
        stream = specs.serve_stream(self.args.seed, self.model)
        client = RecordingClient(self.url)
        sent = 0
        start = time.perf_counter()
        while sent < specs.HEAD_FRESH or time.perf_counter() - start < closed_s:
            spec, repeat = next(stream)
            sent += 1
            self._request(client, spec, repeat, "closed")
        closed_recs = [r for r in self.records if r["phase"] == "closed"]
        m.elapsed = max(r["t_done"] for r in closed_recs) - start
        m.latencies = [r["t_done"] - r["t_send"] for r in closed_recs]

        arrivals = specs.serve_open_arrivals(
            self.args.seed, max(1, round(OPEN_RATE * open_s)), self.model
        )
        t_open = time.perf_counter() + 0.01

        def opened(j: int) -> None:
            client = RecordingClient(self.url)
            for k in range(j, len(arrivals), 2):
                t_sched = t_open + k / OPEN_RATE
                delay = t_sched - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                spec, repeat = arrivals[k]
                self._request(client, spec, repeat, "open", t_sched)

        self._run_senders(opened)
        open_recs = [r for r in self.records if r["phase"] == "open"]
        m.attempted = sent + len(arrivals)
        m.failed = len(self.errors)
        served = sorted(r["t_done"] - r["t_sched"] for r in open_recs)
        if served:
            m.info["served_p50_ms"] = 1000.0 * statistics.median(served)
            if len(served) >= 40:
                m.info["served_tail_ms"] = 1000.0 * served[-11]
            m.info["open_late_max_ms"] = 1000.0 * max(
                r["t_send"] - r["t_sched"] for r in open_recs
            )
        m.info["repeat_share"] = sum(r["repeat"] for r in self.records) / len(self.records)
        return m

    def teardown(self) -> None:
        self.peak_rss_mb = _server_peak_rss_mb(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited {self.proc.returncode} on SIGTERM")
        if self.args.trace:
            with open(self.stats_path) as fh:
                self.server_stats = json.load(fh)

    def close(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()

    def check(self) -> list[str]:
        problems: list[str] = []
        expected: dict[str, str] = {}
        for i, rec in enumerate(self.records):
            key = seeding.canonical_json(rec["spec"])
            if key not in expected:
                expected[key] = seeding.canonical_json(jobspec.execute_job(rec["spec"])) + "\n"
            label = f"{rec['phase']} request {i} ({rec['spec']['kind']})"
            problems += checks.check_equal(label, rec["text"], expected[key])
            if rec["repeat"]:
                problems += checks.check_repeat_hit(label, rec["status"])
        return problems

    def extra_layers(self, ops: int) -> dict[str, float]:
        recs = self.records
        exec_s = [r["status"].get("duration_s", 0.0) for r in recs]
        wait_s = [(r["t_done"] - r["t_send"]) - e for r, e in zip(recs, exec_s)]
        hits = [r["t_done"] - r["t_send"] for r in recs if r["status"].get("cache_hit")]
        return {
            "service.exec_ms": 1000.0 * statistics.fmean(exec_s),
            "service.wait_ms": 1000.0 * statistics.fmean(wait_s),
            "service.hit_ms": 1000.0 * statistics.fmean(hits) if hits else 0.0,
        }


def _server_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line for the server process")


class FleetWorkload(Workload):
    """``fleet-live``: repeated :func:`run_fleet` runs, each into a fresh
    :class:`FleetAggregator`, ending with its rollup."""

    def __init__(self, args) -> None:
        self.args = args
        self.kept: list[tuple[list[dict], str]] = []
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.epochs = 0

    def setup(self) -> None:
        model = os.path.join(self.args.work, "model.json")
        _train_model_apart(specs.model_seed(self.args.seed), model)
        self.clf = DrBwClassifier.load(model)
        self.fleets = specs.fleet_specs(self.args.seed)

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        windows = 0
        start = time.perf_counter()
        while True:
            spec = next(self.fleets)
            m.attempted += 1
            t = time.perf_counter()
            agg = FleetAggregator()
            records: list[dict] = []
            try:
                run_fleet(spec, self.clf, agg, wire_sink=records.append, jobs=FLEET_JOBS)
                text = seeding.canonical_json(agg.rollup())
            except ReproError as exc:
                m.failed += 1
                self.errors.append(str(exc))
            else:
                m.latencies.append(time.perf_counter() - t)
                windows += agg.machine_windows
                self.epochs += agg.epochs
                with m.pause():
                    self.problems += [f"fleet {m.attempted - 1}: {p}"
                                      for p in checks.check_fleet_roles(text)]
                    if len(self.kept) < FLEET_REINGEST:
                        self.kept.append((records, text))
            if time.perf_counter() - start - m.paused >= seconds:
                break
        m.elapsed = time.perf_counter() - start - m.paused
        m.info["windows_per_s"] = windows / m.elapsed
        return m

    def check(self) -> list[str]:
        problems = list(self.problems)
        rng = random.Random(f"fleet-check:{self.args.seed}")
        for i, (records, text) in enumerate(self.kept):
            agg = FleetAggregator(expected_machines=specs.FLEET_MACHINES)
            agg.ingest_many(checks.interleave_by_machine(records, rng))
            problems += checks.check_equal(
                f"fleet {i} rollup re-ingested in shuffled order",
                seeding.canonical_json(agg.rollup()), text,
            )
        return problems

    def extra_layers(self, ops: int) -> dict[str, float]:
        return {"fleet.epochs": self.epochs / ops}


WORKLOADS = {
    "detect-retrain": DetectWorkload,
    "detect-model": DetectWorkload,
    "serve-mix": ServeWorkload,
    "fleet-live": FleetWorkload,
}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    runner = WORKLOADS[args.workload](args)
    try:
        return _run(runner, args)
    finally:
        runner.close()


def _run(runner: Workload, args) -> int:
    runner.setup()
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0

    tracer = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
    setup_s = time.monotonic() - args.t0
    m = runner.measure(args.seconds)
    stats = None
    if tracer is not None:
        stats = tracer.snapshot()
        tracer.uninstall()
    runner.teardown()
    out = m.summary()
    out.update(setup_s=setup_s, peak_rss_mb=runner.peak_rss_mb, info=m.info,
               numpy=numpy.__version__)
    if stats is not None:
        ops = out["ops"]
        if isinstance(runner, ServeWorkload):
            ops = len(runner.records)
        layers = layer_metrics(merge(stats, runner.server_stats), ops)
        layers.update(dict.fromkeys(EXTRA_LAYER_METRICS, 0.0))
        layers.update(runner.extra_layers(ops))
        out["layers"] = layers
    out["problems"] = runner.check()
    out["errors"] = runner.errors[:5]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
