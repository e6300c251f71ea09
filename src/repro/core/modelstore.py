"""One model store: the default DR-BW classifier, trained once per key.

The paper trains its decision tree once, offline, on the sumv / dotv /
countv / bandit mini-programs and from then on only classifies.  Every
caller that needs "the default classifier at this training seed" asks
this store rather than training itself: ``detect`` / ``diagnose`` jobs
that name no model (the service and ``drbw detect|diagnose --json``),
plain ``drbw detect``, and the eval experiments (:func:`shared_classifier
<repro.eval.experiments.shared_classifier>`).

**Key.**  ``(topology hash, training seed, Table-I feature names,
training-spec hash, package version)``.  The training-spec hash covers
the 192 labeled training runs, the profiler settings and the machine
spec the training shards run on, so any change that could change the
tree is a new key and no entry ever needs invalidation.

**Memory tier.**  A bounded LRU of :data:`MEMORY_ENTRIES` keys.  An
entry holds the classifier (~1.4 kB of tree as JSON) and, only when the
caller asked for them (:meth:`ModelStore.trained`, the eval experiments),
the 192 Table II training instances (~0.3 MB as Python objects); a
detect job never reads the instances, so its entries drop them.  A
per-key lock makes concurrent misses (the service's worker threads)
train once.

**Disk tier.**  Used only when the caller passes a
:class:`~repro.parallel.cache.ResultCache`; the service passes its
``--cache-dir`` cache.  An entry holds ``clf.to_dict()`` and is read
back through :meth:`DrBwClassifier.from_dict` validation, so a corrupt
entry is a miss.  :meth:`ResultCache.single_flight` makes
``drbw serve --workers N`` train once fleet-wide.  There is no default
on-disk location: without a cache nothing warm outlives the process
(``drbw train --model`` pins one model across processes).

:func:`~repro.core.training.train_default_classifier` itself stays
un-memoized: ``drbw train`` and byte checks against a freshly trained
model need a truly fresh training.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import repro
from repro.core.classifier import DrBwClassifier
from repro.core.features import TABLE1_FEATURE_NAMES
from repro.errors import ModelError
from repro.parallel.seeding import config_hash
from repro.telemetry import get_telemetry
from repro.telemetry.artifact import topology_hash

__all__ = ["MEMORY_ENTRIES", "ModelStore", "default_store", "model_key"]

logger = logging.getLogger(__name__)

#: Keys the in-process tier holds before evicting the least recently used.
MEMORY_ENTRIES = 8

#: Mixed into disk keys, so a model entry can never share a key with the
#: job results or shard payloads stored in the same cache directory.
_DISK_NAMESPACE = "drbw-model"


@dataclass(frozen=True)
class _Entry:
    clf: DrBwClassifier
    #: ``None`` unless the caller asked for them (the disk tier stores
    #: the tree only).
    instances: tuple | None
    digest: str


@lru_cache(maxsize=1)
def _default_training_hash() -> str:
    """Hash of the labeled training runs and the default profiler settings."""
    from repro.core.profiler import ProfilerConfig
    from repro.core.training import all_training_configs
    from repro.parallel.shards import profiler_spec, training_workload_spec

    return config_hash({
        "configs": [training_workload_spec(c) for c in all_training_configs()],
        "profiler": profiler_spec(ProfilerConfig()),
    })


def model_key(machine, seed: int) -> tuple:
    """The store key of the default classifier trained on ``machine`` at ``seed``."""
    from repro.parallel.shards import machine_spec

    spec_hash = config_hash({
        "training": _default_training_hash(),
        "machine": machine_spec(machine),
    })
    return (
        topology_hash(machine.topology),
        seed,
        TABLE1_FEATURE_NAMES,
        spec_hash,
        repro.__version__,
    )


def _train(machine, seed: int, keep_instances: bool = False) -> _Entry:
    # Looked up on the module at call time, so wrappers installed on
    # ``repro.core.training`` (tests, tracers) see every training.
    from repro.core import training

    clf, instances = training.train_default_classifier(machine, seed=seed)
    return _Entry(clf, tuple(instances) if keep_instances else None, clf.digest())


class ModelStore:
    """Memory LRU plus optional disk tier answering one question: the
    default classifier for ``(machine, seed)``."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._locks: dict[tuple, threading.Lock] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def classifier(self, machine, seed: int, cache=None) -> DrBwClassifier:
        """The default classifier; ``cache`` (a ``ResultCache``) enables the
        disk tier shared with other processes."""
        return self._get(machine, seed, cache, need_instances=False).clf

    def trained(self, machine, seed: int) -> tuple[DrBwClassifier, tuple]:
        """The default classifier and its Table II training instances."""
        entry = self._get(machine, seed, None, need_instances=True)
        return entry.clf, entry.instances

    def _get(self, machine, seed: int, cache, need_instances: bool) -> _Entry:
        key = model_key(machine, seed)
        with get_telemetry().span("model.store") as span:
            hit = "memory"
            entry = self._lookup(key, need_instances)
            if entry is None:
                with self._key_lock(key):
                    entry = self._lookup(key, need_instances)
                    if entry is None:
                        if cache is None or need_instances:
                            entry = _train(machine, seed, need_instances)
                            hit = "miss"
                        else:
                            entry, hit = self._through_disk(key, machine, seed, cache)
                        self._insert(key, entry)
            span.set(hit=hit, model_digest=entry.digest)
        return entry

    def _lookup(self, key: tuple, need_instances: bool) -> _Entry | None:
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None or (need_instances and entry.instances is None):
                return None
            self._entries.move_to_end(key)
            return entry

    def _key_lock(self, key: tuple) -> threading.Lock:
        with self._mutex:
            return self._locks.setdefault(key, threading.Lock())

    def _insert(self, key: tuple, entry: _Entry) -> None:
        with self._mutex:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > MEMORY_ENTRIES:
                old, _ = self._entries.popitem(last=False)
                self._locks.pop(old, None)

    @staticmethod
    def _through_disk(key: tuple, machine, seed: int, cache) -> tuple[_Entry, str]:
        disk_key = config_hash({"namespace": _DISK_NAMESPACE, "key": list(key)})
        trained: list[_Entry] = []

        def compute() -> dict:
            trained.append(_train(machine, seed))
            return trained[0].clf.to_dict()

        payload, _ = cache.single_flight(disk_key, compute)
        if trained:
            return trained[0], "miss"
        try:
            clf = DrBwClassifier.from_dict(payload)
            if clf.feature_names != TABLE1_FEATURE_NAMES:
                raise ModelError("feature names differ from Table I")
        except ModelError as exc:
            logger.warning("retraining over corrupt model-store entry %s: %s",
                           disk_key, exc)
            entry = _train(machine, seed)
            cache.put(disk_key, entry.clf.to_dict())
            return entry, "miss"
        return _Entry(clf, None, clf.digest()), "disk"


_DEFAULT = ModelStore()


def default_store() -> ModelStore:
    """The process-wide store every caller shares."""
    return _DEFAULT
