"""Job specs: validation, canonical identity, and CLI byte-identity."""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from repro.cli import main as cli_main
from repro.errors import ServiceError
from repro.parallel.seeding import canonical_json
from repro.parallel.shards import profile_shard, run_profile_shard
from repro.service.jobspec import execute_job, job_key, normalize_job


class TestNormalize:
    def test_defaults_filled(self):
        spec = normalize_job({"kind": "detect", "benchmark": "NW"})
        assert spec["input"] == "large"  # the benchmark's largest
        assert spec["config"] == "T32-N4"
        assert spec["seed"] == 0
        assert spec["faults"] is None
        assert spec["model"] is None

    def test_idempotent(self):
        spec = normalize_job({"kind": "diagnose", "benchmark": "NW", "seed": 3})
        assert normalize_job(spec) == spec

    @pytest.mark.parametrize("bad", [
        "not a dict",
        {"kind": "frobnicate"},
        {"kind": "detect"},                                   # no benchmark
        {"kind": "detect", "benchmark": "NoSuchBench"},
        {"kind": "detect", "benchmark": "NW", "input": "bogus"},
        {"kind": "detect", "benchmark": "NW", "config": "T7-N9"},
        {"kind": "detect", "benchmark": "NW", "seed": -1},
        {"kind": "detect", "benchmark": "NW", "seed": True},
        {"kind": "detect", "benchmark": "NW", "seeed": 1},    # the typo case
        {"kind": "detect", "benchmark": "NW", "faults": "nonsense=x"},
        {"kind": "profile"},                                  # no shard spec
        {"kind": "profile", "spec": "not a dict"},
        {"kind": "profile", "spec": {}, "extra": 1},
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ServiceError):
            normalize_job(bad)


class TestJobKey:
    def test_spelled_defaults_and_omitted_defaults_share_a_key(self):
        implicit = job_key({"kind": "detect", "benchmark": "NW"})
        explicit = job_key({
            "kind": "detect", "benchmark": "NW", "input": "large",
            "config": "T32-N4", "seed": 0, "faults": None, "model": None,
        })
        assert implicit == explicit

    def test_different_seed_different_key(self):
        a = job_key({"kind": "detect", "benchmark": "NW", "seed": 0})
        b = job_key({"kind": "detect", "benchmark": "NW", "seed": 1})
        assert a != b

    def test_key_is_cache_compatible(self):
        key = job_key({"kind": "detect", "benchmark": "NW"})
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)


class TestExecute:
    def test_detect_result_shape(self, model_path):
        result = execute_job({
            "kind": "detect", "benchmark": "NW", "config": "T16-N2",
            "model": model_path,
        })
        assert result["kind"] == "detect"
        assert result["case_verdict"] in ("good", "rmc")
        assert result["channel_verdicts"]
        assert "diagnosis" not in result
        canonical_json(result)  # must be canonically serializable

    def test_diagnose_includes_diagnosis(self, model_path):
        result = execute_job({
            "kind": "diagnose", "benchmark": "NW", "config": "T32-N4",
            "model": model_path,
        })
        assert result["kind"] == "diagnose"
        assert "diagnosis" in result
        if result["case_verdict"] == "rmc":
            assert result["diagnosis"]["top"]

    def test_profile_job_matches_shard_runner(self):
        shard = profile_shard(
            workload={"kind": "benchmark", "name": "NW", "input": "small"},
            n_threads=8, n_nodes=2,
        )
        via_service = execute_job({"kind": "profile", "spec": shard, "seed": 7})
        direct = run_profile_shard(shard, 7)
        assert canonical_json(via_service) == canonical_json(direct)


class TestNoModelJobs:
    """Jobs that name no model take the model store's default classifier."""

    GOLDEN_TREE = pathlib.Path(__file__).parents[1] / "golden" / "classifier_tree.json"

    @pytest.mark.parametrize("kind", ["detect", "diagnose"])
    def test_same_bytes_as_a_model_file_trained_at_that_seed(
        self, kind, trained, tmp_path
    ):
        # The tree golden is the seed-0 model of a fresh training, written
        # independently of the store; ``trained`` only keeps the store warm.
        model = tmp_path / "seed0.json"
        model.write_text(json.dumps(json.loads(self.GOLDEN_TREE.read_text())["model"]))
        spec = {"kind": kind, "benchmark": "AMG2006", "config": "T32-N4", "seed": 0}
        no_model = canonical_json(execute_job(spec))
        with_file = canonical_json(execute_job(dict(spec, model=str(model))))
        assert no_model == with_file

    def test_a_job_with_a_model_never_consults_the_store_or_cache(
        self, model_path, monkeypatch
    ):
        from repro.core.modelstore import ModelStore

        def refuse(*_a, **_kw):
            raise AssertionError("a job that names a model consulted the store")

        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"model cache touched: {name}")

        monkeypatch.setattr(ModelStore, "classifier", refuse)
        result = execute_job(
            {"kind": "diagnose", "benchmark": "NW", "config": "T16-N2",
             "model": model_path},
            model_cache=Untouchable(),
        )
        assert result["kind"] == "diagnose"


class TestCliByteIdentity:
    """The tentpole invariant: service result bytes == CLI --json stdout."""

    def _cli_stdout(self, argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli_main(argv)
        return out.getvalue()

    @pytest.mark.parametrize("kind", ["detect", "diagnose"])
    def test_cli_json_equals_executor_bytes(self, kind, model_path):
        stdout = self._cli_stdout([
            kind, "NW", "--config", "T16-N2", "--model", model_path, "--json",
        ])
        result = execute_job({
            "kind": kind, "benchmark": "NW", "config": "T16-N2",
            "seed": 0, "model": model_path,
        })
        assert stdout == canonical_json(result) + "\n"

    def test_json_exit_code_matches_plain(self, model_path):
        argv = ["detect", "NW", "--config", "T16-N2", "--model", model_path]
        plain = cli_main(argv)
        with contextlib.redirect_stdout(io.StringIO()):
            as_json = cli_main(argv + ["--json"])
        assert as_json == plain
