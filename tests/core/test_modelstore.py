"""The model store: one training per key, bounded memory, a shared disk tier.

Training is faked with the shared seed-0 classifier fixture wherever the test
is about *how often* the store trains, so these tests cost milliseconds;
the byte-level equivalence of a stored model with a freshly trained one
is pinned in ``tests/service/test_jobspec.py`` against the tree golden.
"""

from __future__ import annotations

import copy
import json
import sys
import threading
import time
import tracemalloc

import pytest

from repro import telemetry
from repro.core import modelstore, training
from repro.core.classifier import DrBwClassifier
from repro.core.modelstore import MEMORY_ENTRIES, ModelStore, model_key
from repro.numasim.machine import Machine
from repro.parallel.cache import ResultCache
from repro.parallel.seeding import canonical_json
from repro.service.jobspec import execute_job


class _CountingTraining:
    """Stands in for ``train_default_classifier``: records each seed and
    returns the shared seed-0 classifier after ``delay_s``."""

    def __init__(self, clf, instances) -> None:
        self.clf, self.instances = clf, list(instances)
        self.calls: list[int] = []
        self.delay_s = 0.0

    def __call__(self, machine, seed=0, **_kw):
        self.calls.append(seed)
        time.sleep(self.delay_s)
        return self.clf, self.instances


@pytest.fixture
def fake_training(monkeypatch, trained):
    """Counted fake training behind a fresh default store."""
    fake = _CountingTraining(*trained)
    monkeypatch.setattr(training, "train_default_classifier", fake)
    monkeypatch.setattr(modelstore, "_DEFAULT", ModelStore())
    return fake


def _job(kind: str, seed: int) -> dict:
    return {"kind": kind, "benchmark": "NW", "config": "T16-N2", "seed": seed}


class TestTrainOncePerKey:
    def test_two_jobs_one_seed_train_once_two_seeds_twice(self, fake_training):
        execute_job(_job("detect", 5))
        execute_job(_job("diagnose", 5))
        assert fake_training.calls == [5]
        execute_job(_job("detect", 6))
        assert fake_training.calls == [5, 6]

    def test_concurrent_misses_train_once_per_key(self, fake_training):
        # More threads than cores, a short switch interval, and a miss held
        # open: a lost check-then-train race would train a seed twice.
        fake_training.delay_s = 0.05
        store = modelstore.default_store()
        seeds = [3, 4, 5] * 4
        barrier = threading.Barrier(len(seeds))
        got: dict[int, set[int]] = {seed: set() for seed in seeds}

        def worker(seed: int) -> None:
            barrier.wait(timeout=10)
            got[seed].add(id(store.classifier(Machine(), seed)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(fake_training.calls) == [3, 4, 5]
        assert all(len(ids) == 1 for ids in got.values())

    def test_lru_bound_evicts_the_oldest_entry(self, fake_training):
        store = modelstore.default_store()
        machine = Machine()
        for seed in range(MEMORY_ENTRIES):
            store.classifier(machine, seed)
        store.classifier(machine, 0)  # touch: seed 1 is now the oldest
        store.classifier(machine, MEMORY_ENTRIES)
        assert len(store) == MEMORY_ENTRIES
        assert model_key(machine, 1) not in store
        assert model_key(machine, 0) in store
        assert model_key(machine, MEMORY_ENTRIES) in store
        store.classifier(machine, 1)  # evicted, so it trains again
        assert fake_training.calls.count(1) == 2

    def test_key_names_topology_seed_schema_spec_and_version(self):
        import repro
        from repro.core.features import TABLE1_FEATURE_NAMES
        from repro.telemetry.artifact import topology_hash

        machine = Machine()
        key = model_key(machine, 4)
        assert key[0] == topology_hash(machine.topology)
        assert key[1] == 4
        assert key[2] == TABLE1_FEATURE_NAMES
        assert key[4] == repro.__version__
        assert model_key(machine, 4) == key
        assert model_key(machine, 5) != key


class TestDiskTier:
    def test_fresh_store_reads_the_entry_with_the_same_bytes(
        self, fake_training, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        machine = Machine()
        first = ModelStore().classifier(machine, 0, cache=cache)
        second = ModelStore().classifier(machine, 0, cache=cache)
        assert fake_training.calls == [0]
        assert second is not first
        assert canonical_json(second.to_dict()) == canonical_json(first.to_dict())
        # And a job served from the disk entry is byte-identical to one
        # served by the model that was trained.
        served = execute_job(_job("diagnose", 0), model_cache=cache)
        assert fake_training.calls == [0]
        monkeypatch.setattr(modelstore, "_DEFAULT", ModelStore())
        (tmp_path / "m.json").write_text(json.dumps(first.to_dict()))
        with_file = execute_job(dict(_job("diagnose", 0), model=str(tmp_path / "m.json")))
        assert canonical_json(served) == canonical_json(with_file)

    @pytest.mark.parametrize("corruption", ["not json at all", "valid-envelope"])
    def test_corrupt_entry_counts_as_a_miss(self, fake_training, tmp_path, corruption):
        cache = ResultCache(tmp_path / "cache")
        machine = Machine()
        ModelStore().classifier(machine, 0, cache=cache)
        [entry] = (tmp_path / "cache").glob("*/*.json")
        if corruption == "valid-envelope":
            envelope = json.loads(entry.read_text())
            envelope["payload"] = {"feature_names": ["x"], "root": {}}
            entry.write_text(json.dumps(envelope))
        else:
            entry.write_text(corruption)
        ModelStore().classifier(machine, 0, cache=cache)
        assert fake_training.calls == [0, 0]
        # The retraining repaired the entry: the next fresh store reads it.
        ModelStore().classifier(machine, 0, cache=cache)
        assert fake_training.calls == [0, 0]


class TestLineage:
    def test_digest_is_short_stable_and_content_addressed(self, trained):
        clf, instances = trained
        digest = clf.digest()
        assert len(digest) == 16 and int(digest, 16) >= 0
        assert DrBwClassifier.from_dict(clf.to_dict()).digest() == digest
        X, y = training.training_matrix(list(instances)[::2])
        other = DrBwClassifier(feature_names=clf.feature_names).fit(X, y)
        assert other.digest() != digest

    def test_store_span_sits_under_the_job_span(
        self, fake_training, tmp_path, trained, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        hits = []
        for store in (ModelStore(), None, ModelStore()):
            if store is not None:
                monkeypatch.setattr(modelstore, "_DEFAULT", store)
            tel = telemetry.Telemetry()
            with telemetry.session(tel):
                execute_job(_job("detect", 0), model_cache=cache)
            spans = {s["name"]: s for s in tel.tracer.to_dicts()}
            span = spans["model.store"]
            assert span["parent_id"] == spans["service.execute.detect"]["span_id"]
            assert span["attrs"]["model_digest"] == trained[0].digest()
            hits.append(span["attrs"]["hit"])
        assert hits == ["miss", "memory", "disk"]

    def test_a_detect_entry_stays_under_a_tenth_of_a_megabyte(self, fake_training):
        store = modelstore.default_store()
        store.classifier(Machine(), 0)
        [entry] = store._entries.values()
        assert entry.instances is None  # detect never reads them
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            copied = copy.deepcopy(entry)
            footprint = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert copied.digest == entry.digest
        assert footprint < 100_000, f"entry footprint {footprint} B"
