"""The workload inputs are pure functions of the seed, with the stated mix."""

import itertools
from collections import Counter

from repro.eval.configs import EVAL_CONFIGS
from repro.fleet.sim import machine_specs
from repro.parallel.seeding import canonical_json

from perfbench import specs


def test_eight_rounds_cover_the_case_space_once():
    import random

    cases = list(itertools.islice(specs.case_schedule(random.Random(5)), 552))
    pairs = specs.case_pairs()
    assert len(pairs) == 69
    assert len(set(cases)) == 552
    assert {(b, i) for b, i, _ in cases} == set(pairs)
    assert {c for _, _, c in cases} == {c.name for c in EVAL_CONFIGS}
    for r in range(8):
        assert len({(b, i) for b, i, _ in cases[69 * r:69 * (r + 1)]}) == 69


def test_detect_model_jobs_are_seeded_and_distinct():
    a = list(itertools.islice(specs.detect_model_jobs(3, "m.json"), 600))
    assert a == list(itertools.islice(specs.detect_model_jobs(3, "m.json"), 600))
    assert a != list(itertools.islice(specs.detect_model_jobs(4, "m.json"), 600))
    assert len({j["seed"] for j in a}) == 600
    assert all(j["model"] == "m.json" for j in a)
    assert Counter(j["kind"] for j in a) == {"detect": 300, "diagnose": 300}


def test_detect_retrain_jobs_repeat_a_small_seed_set():
    jobs = list(itertools.islice(specs.detect_retrain_jobs(3), 20))
    assert all("model" not in j for j in jobs)
    seeds = [j["seed"] for j in jobs]
    assert set(seeds) == set(specs.retrain_seeds(3))
    assert len(set(seeds)) == specs.RETRAIN_SEEDS
    assert seeds[specs.RETRAIN_SEEDS] in seeds[:specs.RETRAIN_SEEDS]


def test_serve_repeats_only_repeat_finished_specs():
    block = len(specs.SERVE_BLOCK)
    items = list(itertools.islice(specs.serve_stream(9, "m.json"), 30 * block))
    assert not any(rep for _, rep in items[:specs.HEAD_FRESH])
    fresh = []
    for spec, rep in items:
        key = canonical_json(spec)
        if rep:
            assert key in fresh
        else:
            assert key not in fresh
            fresh.append(key)
    for i in range(0, len(items), block):
        kinds = Counter("repeat" if rep else s["kind"] for s, rep in items[i:i + block])
        assert kinds == Counter(specs.SERVE_BLOCK)

    heads = fresh[:specs.HEAD_FRESH]
    arrivals = specs.serve_open_arrivals(9, 200, "m.json")
    assert arrivals == specs.serve_open_arrivals(9, 200, "m.json")
    assert sum(rep for _, rep in arrivals) == 200 // block * specs.SERVE_BLOCK.count("repeat")
    for spec, rep in arrivals:
        key = canonical_json(spec)
        assert (key in heads) if rep else (key not in fresh)


def test_fleets_have_a_fixed_contend_count():
    for spec in itertools.islice(specs.fleet_specs(2), 5):
        roles = Counter(m.workload for m in machine_specs(spec))
        assert roles == {"contend": specs.FLEET_CONTEND,
                         "quiet": specs.FLEET_MACHINES - specs.FLEET_CONTEND}
