"""Per-layer tracing from outside the program.

A :class:`LayerTracer` replaces the public entry points of each layer
with timing wrappers and restores the originals on :meth:`uninstall`.
Nothing in ``src/`` knows about it: the untraced run never imports this
module's wrappers, so it measures the program exactly as users run it.

Times are *inclusive* wall-clock seconds of the outermost call per
thread (a wrapped function re-entered on the same thread through another
wrapped entry of the same metric is not counted twice).  Layers nest —
``training.collect`` contains ``campaign.run``, which contains
``numasim.run``, ``pmu.sample``, ``osl.lookup`` and
``features.extract``; on the streaming path ``numasim.run`` contains
``pmu.interval`` and ``monitor.observe`` — so layer times do not add up
to the operation time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

#: The entry points wrapped, as (metric, module, qualified attribute).
#: A class attribute (``Class.method``) is patched on the class; a
#: module function is patched in every loaded ``repro`` module that holds
#: a reference to it, so ``from x import f`` call sites are covered too.
ENTRY_POINTS = (
    ("numasim.run", "repro.numasim.engine", "ExecutionEngine.run"),
    ("osl.lookup", "repro.osl.pages", "PageTable.nodes_of_addresses"),
    ("osl.lookup", "repro.osl.pages", "PageTable.node_fractions"),
    ("pmu.sample", "repro.pmu.sampler", "AddressSampler.sample_run_batch"),
    ("pmu.interval", "repro.pmu.sampler", "AddressSampler.sample_interval"),
    ("features.extract", "repro.core.features", "extract_channel_features"),
    ("training.models", "repro.core.training", "train_default_classifier"),
    ("training.collect", "repro.core.training", "collect_training_set"),
    ("training.fit", "repro.core.classifier", "DrBwClassifier.fit"),
    ("classifier.classify", "repro.core.classifier", "DrBwClassifier.classify_profile_detailed"),
    ("classifier.classify", "repro.core.classifier", "DrBwClassifier.classify_profile"),
    ("classifier.classify", "repro.core.classifier", "DrBwClassifier.classify_channel_detailed"),
    ("diagnoser.diagnose", "repro.core.diagnoser", "Diagnoser.diagnose"),
    ("campaign.run", "repro.parallel.campaign", "CampaignRunner.run"),
    ("cache.get", "repro.parallel.cache", "ResultCache.get"),
    ("cache.put", "repro.parallel.cache", "ResultCache.put"),
    ("codec.encode", "repro.parallel.seeding", "canonical_json"),
    ("http.submit", "repro.service.client", "ServiceClient.submit"),
    ("http.poll", "repro.service.client", "ServiceClient.status"),
    ("http.fetch", "repro.service.client", "ServiceClient.result_text"),
    ("monitor.observe", "repro.monitor.monitor", "LiveMonitor.observe_interval"),
    ("fleet.ingest", "repro.fleet.aggregator", "FleetAggregator.ingest"),
    ("fleet.rollup", "repro.fleet.aggregator", "FleetAggregator.rollup"),
)


def _items(metric: str, args: tuple, result) -> float:
    """Work items one call carried, for the metrics that count them."""
    if metric == "pmu.sample":
        return float(len(result))
    if metric == "campaign.run":
        return float(len(args[1]))
    if metric == "cache.get":
        return 0.0 if result is None else 1.0  # a hit
    return 0.0


class LayerTracer:
    """Accumulates calls, seconds and items per metric across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: metric -> [calls, seconds, items]
        self.stats: dict[str, list[float]] = {}

    def _wrap(self, metric: str, fn):
        stats = self.stats.setdefault(metric, [0.0, 0.0, 0.0])
        local = self._local
        lock = self._lock
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = local.__dict__.setdefault("active", set())
            if metric in active:
                return fn(*args, **kwargs)
            active.add(metric)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                active.discard(metric)
            items = _items(metric, args, result)
            with lock:
                stats[0] += 1
                stats[1] += dt
                stats[2] += items
            return result

        return wrapper

    def install(self) -> None:
        """Patch every entry point; the modules must already be imported."""
        import importlib

        for metric, module_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[name]
                self._patch(owner, name, original, self._wrap(metric, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(metric, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                    getattr(mod, attr, None) is original
                ):
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def snapshot(self) -> dict[str, list[float]]:
        with self._lock:
            return {k: list(v) for k, v in self.stats.items()}


def merge(*snapshots: dict[str, list[float]]) -> dict[str, list[float]]:
    """Sum several snapshots (client process + server process)."""
    out: dict[str, list[float]] = {}
    for snap in snapshots:
        for metric, values in snap.items():
            acc = out.setdefault(metric, [0.0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
    return out


def layer_metrics(stats: dict[str, list[float]], ops: int) -> dict[str, float]:
    """Per-operation layer metrics from accumulated tracer stats."""

    def calls(m: str) -> float:
        return stats.get(m, [0.0, 0.0, 0.0])[0]

    def ms(m: str) -> float:
        return 1000.0 * stats.get(m, [0.0, 0.0, 0.0])[1] / ops

    def items(m: str) -> float:
        return stats.get(m, [0.0, 0.0, 0.0])[2]

    gets = calls("cache.get")
    return {
        "numasim.run_ms": ms("numasim.run"),
        "numasim.runs": calls("numasim.run") / ops,
        "osl.lookup_ms": ms("osl.lookup"),
        "osl.lookups": calls("osl.lookup") / ops,
        "pmu.sample_ms": ms("pmu.sample"),
        "pmu.samples": items("pmu.sample") / ops,
        "pmu.interval_ms": ms("pmu.interval"),
        "features.extract_ms": ms("features.extract"),
        "training.models": calls("training.models") / ops,
        "training.collect_ms": ms("training.collect"),
        "training.fit_ms": ms("training.fit"),
        "campaign.shards": items("campaign.run") / ops,
        "campaign.run_ms": ms("campaign.run"),
        "cache.get_ms": ms("cache.get"),
        "cache.put_ms": ms("cache.put"),
        "cache.hit_ratio": items("cache.get") / gets if gets else 0.0,
        "classifier.classify_ms": ms("classifier.classify"),
        "diagnoser.diagnose_ms": ms("diagnoser.diagnose"),
        "codec.encode_ms": ms("codec.encode"),
        "http.submit_ms": ms("http.submit"),
        "http.poll_ms": ms("http.poll"),
        "http.fetch_ms": ms("http.fetch"),
        "http.polls": calls("http.poll") / ops,
        "monitor.observe_ms": ms("monitor.observe"),
        "monitor.windows": calls("monitor.observe") / ops,
        "fleet.ingest_ms": (
            1000.0 * stats["fleet.ingest"][1] / calls("fleet.ingest")
            if calls("fleet.ingest") else 0.0
        ),
        "fleet.records": calls("fleet.ingest") / ops,
        "fleet.rollup_ms": ms("fleet.rollup"),
    }
