"""Seeded inputs for the four workloads.

Everything here is a pure function of the workload seed: the program
under test only ever receives the specs these generators yield.  The
generators are unbounded because a run measures for a fixed time, not a
fixed count; a run simply stops drawing when its time is up.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from repro.eval.configs import EVAL_CONFIGS
from repro.fleet.sim import FleetSpec, machine_specs
from repro.parallel.shards import benchmark_workload_spec, profile_shard
from repro.workloads.suites.registry import BENCHMARKS

#: ``detect-retrain`` draws its training seeds from this many values, so
#: from the third job on every job repeats an earlier job's training seed.
RETRAIN_SEEDS = 2

#: ``serve-mix`` request mix, in shuffled blocks: one request for each
#: of the four service paths, so each has an equal share.  ``profile``,
#: ``detect`` and ``diagnose`` execute; ``repeat`` is an exact copy of an
#: earlier request, which the result cache answers.  The repository holds
#: no observed traffic, so the equal shares are a synthetic choice.
SERVE_BLOCK = ("profile", "detect", "diagnose", "repeat")
#: Fresh requests at the head of the closed loop (its first block's); the
#: open-loop phase repeats only these, which the closed loop has always
#: finished.
HEAD_FRESH = len(SERVE_BLOCK) - SERVE_BLOCK.count("repeat")

#: ``fleet-live`` fleet: this many machines, exactly half of them contend.
FLEET_MACHINES = 16
FLEET_CONTEND = 8


def case_pairs() -> list[tuple[str, str]]:
    """Every (benchmark, input) pair of the registry (69 pairs)."""
    return [(name, inp) for name, spec in BENCHMARKS.items() for inp in spec.inputs]


def case_schedule(rng: random.Random) -> Iterator[tuple[str, str, str]]:
    """(benchmark, input, config) cases in a fixed order of blocks.

    Round ``r`` runs (benchmark, input) pair ``i`` on config
    ``(i + r) mod 8``, so eight rounds cover the 552-case space exactly
    once.  Each round's 69 pairs split into three strided blocks of 23,
    and the seed shuffles the cases within each block.  A run therefore
    executes nearly the same population of cases whatever the seed (it
    differs only in the last, partial block), which keeps throughput and
    median latency comparable across seeds.
    """
    pairs = case_pairs()
    configs = [c.name for c in EVAL_CONFIGS]
    while True:
        for rnd in range(len(configs)):
            for first in range(3):
                block = [
                    (*pairs[i], configs[(i + rnd) % len(configs)])
                    for i in range(first, len(pairs), 3)
                ]
                rng.shuffle(block)
                yield from block


def _detect_spec(kind: str, case: tuple[str, str, str], seed: int, model: str | None) -> dict:
    bench, inp, config = case
    spec = {"kind": kind, "benchmark": bench, "input": inp, "config": config, "seed": seed}
    if model is not None:
        spec["model"] = model
    return spec


def detect_model_jobs(seed: int, model: str) -> Iterator[dict]:
    """``detect``/``diagnose`` jobs naming ``model``, with distinct
    profiling seeds, alternating kinds, over the stratified case space."""
    rng = random.Random(f"detect-model:{seed}")
    base = rng.randrange(1 << 30)
    flip = rng.randrange(2)
    for i, case in enumerate(case_schedule(rng)):
        kind = "diagnose" if (i + flip) % 2 else "detect"
        yield _detect_spec(kind, case, base + i, model)


def model_seed(seed: int) -> int:
    """Training seed of the model file that set-up trains."""
    return random.Random(f"model:{seed}").randrange(1 << 16)


def retrain_seeds(seed: int) -> list[int]:
    rng = random.Random(f"detect-retrain-seeds:{seed}")
    return rng.sample(range(1 << 16), RETRAIN_SEEDS)


def detect_retrain_jobs(seed: int) -> Iterator[dict]:
    """``detect``/``diagnose`` jobs with no model: every job trains its
    classifier at its own seed, drawn in turn from :func:`retrain_seeds`."""
    rng = random.Random(f"detect-retrain:{seed}")
    seeds = retrain_seeds(seed)
    flip = rng.randrange(2)
    for i, case in enumerate(case_schedule(rng)):
        kind = "diagnose" if (i + flip) % 2 else "detect"
        yield _detect_spec(kind, case, seeds[i % len(seeds)], None)


def serve_cases() -> list[tuple[str, str, str]]:
    """What ``drbw detect NAME`` runs for each of the 23 benchmarks: its
    default (largest) input on the default T32-N4 config."""
    return [(name, spec.inputs[-1], "T32-N4") for name, spec in BENCHMARKS.items()]


def _rounds(rng: random.Random, population: list) -> Iterator:
    while True:
        order = list(population)
        rng.shuffle(order)
        yield from order


def _serve_spec(kind: str, case: tuple[str, str, str], seed: int, model: str) -> dict:
    if kind != "profile":
        return _detect_spec(kind, case, seed, model)
    bench, inp, config = case
    cfg = next(c for c in EVAL_CONFIGS if c.name == config)
    shard = profile_shard(benchmark_workload_spec(bench, inp), cfg.n_threads, cfg.n_nodes)
    return {"kind": "profile", "spec": shard, "seed": seed}


def _serve_requests(rng: random.Random, base: int, model: str, repeat_pool: list[dict],
                    grow_pool: bool) -> Iterator[tuple[dict, bool]]:
    """Requests as ``(spec, is_repeat)`` in :data:`SERVE_BLOCK` blocks.

    Fresh specs cycle through :func:`serve_cases` in seeded rounds, with
    seeds ``base, base + 1, ...``.  Repeats copy a spec of
    ``repeat_pool``; with ``grow_pool`` every fresh spec joins the pool,
    and the first block puts its fresh specs ahead of its repeats.
    """
    cases = _rounds(rng, serve_cases())
    n_fresh = 0
    while True:
        block = list(SERVE_BLOCK)
        rng.shuffle(block)
        if grow_pool and n_fresh == 0:
            block.sort(key=lambda kind: kind == "repeat")
        for kind in block:
            if kind == "repeat":
                yield rng.choice(repeat_pool), True
                continue
            spec = _serve_spec(kind, next(cases), base + n_fresh, model)
            n_fresh += 1
            if grow_pool:
                repeat_pool.append(spec)
            yield spec, False


def serve_warmup(model: str) -> list[dict]:
    """Requests set-up sends before timing, one per job kind; their seeds
    lie outside every stream's, so they never make a cache hit later."""
    case = serve_cases()[0]
    return [_serve_spec(kind, case, 1 << 28, model) for kind in ("profile", "diagnose")]


def serve_stream(seed: int, model: str) -> Iterator[tuple[dict, bool]]:
    """The closed loop's requests as ``(spec, is_repeat)``.

    Only the marked repeats — exact copies of the stream's own earlier
    fresh specs, which a closed loop has already finished — can hit the
    result cache.  The first :data:`HEAD_FRESH` requests are fresh.
    """
    rng = random.Random(f"serve-mix:{seed}")
    return _serve_requests(rng, 1 << 24, model, [], grow_pool=True)


def serve_open_arrivals(seed: int, count: int, model: str) -> list[tuple[dict, bool]]:
    """The open-loop phase's ``count`` arrivals as ``(spec, is_repeat)``.

    Fresh specs carry seeds disjoint from the closed loop's.  Repeats
    copy one of the closed loop's :data:`HEAD_FRESH` head specs.
    """
    heads = [spec for spec, _ in itertools.islice(serve_stream(seed, model), HEAD_FRESH)]
    rng = random.Random(f"serve-open:{seed}")
    return list(itertools.islice(
        _serve_requests(rng, 2 << 24, model, heads, grow_pool=False), count))


def fleet_specs(seed: int) -> Iterator[FleetSpec]:
    """Fleet runs of :data:`FLEET_MACHINES` machines with exactly
    :data:`FLEET_CONTEND` contending, each under a fresh fleet seed.

    Machine roles are a hash of (fleet seed, machine id); fleet seeds
    whose draw gives another contend count are skipped, so every fleet
    run does the same amount of work.
    """
    rng = random.Random(f"fleet-live:{seed}")
    while True:
        spec = FleetSpec(machines=FLEET_MACHINES, seed=rng.randrange(1 << 30))
        contend = sum(m.workload == "contend" for m in machine_specs(spec))
        if contend == FLEET_CONTEND:
            yield spec
