"""Each correctness check accepts real outputs and rejects corrupted ones."""

import json
import random

import pytest

from repro.core.training import train_default_classifier
from repro.fleet.aggregator import FleetAggregator
from repro.fleet.sim import FleetSpec, machine_specs, run_fleet
from repro.numasim.machine import Machine
from repro.parallel.seeding import canonical_json
from repro.service.jobspec import execute_job

from perfbench import checks
from perfbench.workload import _oracle_mode, _write_model


@pytest.fixture(scope="module")
def classifier():
    clf, _ = train_default_classifier(Machine(), seed=0)
    return clf


@pytest.fixture(scope="module")
def diagnosis_text(classifier, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("model") / "model.json")
    _write_model(classifier, path)
    text = canonical_json(execute_job(
        {"kind": "diagnose", "benchmark": "Streamcluster", "config": "T32-N4",
         "seed": 3, "model": path}
    ))
    assert json.loads(text)["case_verdict"] == "rmc"
    return text


def _edit(text, fn):
    result = json.loads(text)
    fn(result)
    return canonical_json(result)


def test_case_rule_rejects_flipped_verdict(diagnosis_text):
    assert checks.check_detect_result(diagnosis_text) == []
    flipped = _edit(diagnosis_text, lambda r: r.update(case_verdict="good"))
    assert checks.check_detect_result(flipped)


def test_case_rule_rejects_rmc_without_rmc_channel(diagnosis_text):
    def clear(r):
        for cv in r["channel_verdicts"]:
            cv["mode"] = "good"
    assert checks.check_detect_result(_edit(diagnosis_text, clear))


def test_cf_bounds(diagnosis_text):
    def too_big(r):
        r["diagnosis"]["top"][0]["cf"] = 1.5
    assert checks.check_detect_result(_edit(diagnosis_text, too_big))

    def overfull(r):
        for row in r["diagnosis"]["top"]:
            row["cf"] = 0.9
    assert len(json.loads(diagnosis_text)["diagnosis"]["top"]) > 1
    assert checks.check_detect_result(_edit(diagnosis_text, overfull))


def test_oracle_rejects_flipped_verdicts(diagnosis_text):
    mode = _oracle_mode(diagnosis_text)
    assert mode == "rmc"
    texts = [diagnosis_text] * 20
    assert checks.check_oracle(texts, [mode] * 20) == []
    flipped = _edit(diagnosis_text, lambda r: r.update(case_verdict="good"))
    assert checks.check_oracle([flipped] * 20, [mode] * 20)


def test_oracle_floor_follows_paper_error_rate():
    # 96.3% correct: one miss in a handful of jobs is expected, many are not.
    assert checks.oracle_max_disagreements(1) == 1
    assert 1 <= checks.oracle_max_disagreements(40) <= 8
    allowed = [checks.oracle_max_disagreements(n) for n in range(1, 200)]
    assert allowed == sorted(allowed)


def test_byte_equality_rejects_changed_byte(diagnosis_text):
    assert checks.check_equal("job", diagnosis_text, diagnosis_text) == []
    changed = diagnosis_text[:-2] + ("0" if diagnosis_text[-2] != "0" else "1") + "}"
    assert checks.check_equal("job", changed, diagnosis_text)
    assert checks.check_equal("job", diagnosis_text + "\n", diagnosis_text)


def test_repeat_must_hit_cache():
    assert checks.check_repeat_hit("r", {"state": "done", "cache_hit": True}) == []
    assert checks.check_repeat_hit("r", {"state": "done", "cache_hit": False})
    assert checks.check_repeat_hit("r", {"state": "done"})


@pytest.fixture(scope="module")
def fleet_run(classifier):
    seed = next(
        s for s in range(100)
        if {m.workload for m in machine_specs(FleetSpec(machines=4, seed=s))}
        == {"contend", "quiet"}
    )
    agg = FleetAggregator()
    records = []
    run_fleet(FleetSpec(machines=4, seed=seed), classifier, agg,
              wire_sink=records.append, jobs=2)
    return records, canonical_json(agg.rollup())


def test_fleet_roles_reject_rmc_on_quiet_machine(fleet_run):
    _, text = fleet_run
    assert checks.check_fleet_roles(text) == []

    def quiet_rmc(r):
        quiet = next(m for m in r["machines"].values()
                     if m["identity"]["workload"] == "quiet")
        quiet["ever_rmc"] = True
    assert checks.check_fleet_roles(_edit(text, quiet_rmc))

    def contend_calm(r):
        contend = next(m for m in r["machines"].values()
                       if m["identity"]["workload"] == "contend")
        contend["ever_rmc"] = False
    assert checks.check_fleet_roles(_edit(text, contend_calm))


def test_shuffled_reingest_matches_rollup(fleet_run):
    records, text = fleet_run
    rng = random.Random(7)
    shuffled = checks.interleave_by_machine(records, rng)
    assert shuffled != records and sorted(map(canonical_json, shuffled)) == sorted(
        map(canonical_json, records))
    agg = FleetAggregator(expected_machines=4)
    agg.ingest_many(shuffled)
    assert checks.check_equal("rollup", canonical_json(agg.rollup()), text) == []
    partial = FleetAggregator(expected_machines=4)
    partial.ingest_many(shuffled[:-1])
    assert checks.check_equal("rollup", canonical_json(partial.rollup()), text)
