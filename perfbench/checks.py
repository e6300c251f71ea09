"""Correctness checks on the outputs a run collected.

Each check returns a list of problems (empty when it passes) so a run
can report every failure, and the tests can feed each check a corrupted
output and see it rejected.  The checks rest on properties the method
must have (the case rule, CF bounds), on a computation made apart from
the code being measured (the interleave oracle, an in-process re-run,
a separately trained model), or on the fleet's determinism contract.
"""

from __future__ import annotations

import json
import math
import random

#: Share of cases the paper's Table VI classifies correctly (96.3%).
PAPER_ACCURACY = 0.963
#: A run fails the oracle check when its disagreements exceed what the
#: paper's error rate would produce with at most this probability.
ORACLE_ALPHA = 1e-4


def oracle_max_disagreements(n: int, accuracy: float = PAPER_ACCURACY,
                             alpha: float = ORACLE_ALPHA) -> int:
    """Most disagreements with the oracle allowed among ``n`` checked jobs.

    The smallest ``d`` with P(Binomial(n, 1 - accuracy) > d) <= alpha.
    """
    p = 1.0 - accuracy
    tail = 1.0
    for d in range(n + 1):
        tail -= math.comb(n, d) * p**d * (1 - p) ** (n - d)
        if tail <= alpha:
            return d
    return n


def check_detect_result(text: str) -> list[str]:
    """Case rule and CF bounds on one ``detect``/``diagnose`` result."""
    problems = []
    result = json.loads(text)
    tag = f"{result['benchmark']}/{result['input']}/{result['config']}"
    any_rmc = any(cv["mode"] == "rmc" for cv in result["channel_verdicts"])
    if (result["case_verdict"] == "rmc") != any_rmc:
        problems.append(
            f"{tag}: case_verdict {result['case_verdict']!r} but "
            f"{'some' if any_rmc else 'no'} channel verdict is rmc"
        )
    diagnosis = result.get("diagnosis")
    if diagnosis:
        cfs = [row["cf"] for row in diagnosis["top"]]
        if any(not 0.0 <= cf <= 1.0 for cf in cfs):
            problems.append(f"{tag}: a diagnosis CF lies outside [0, 1]: {cfs}")
        if sum(cfs) > 1.0 + 1e-9:
            problems.append(f"{tag}: diagnosis CFs sum to {sum(cfs)} > 1")
    return problems


def check_oracle(texts: list[str], oracle_modes: list[str]) -> list[str]:
    """Verdicts against the interleave oracle's, one mode per result."""
    disagree = [
        json.loads(t)["benchmark"]
        for t, mode in zip(texts, oracle_modes)
        if json.loads(t)["case_verdict"] != mode
    ]
    allowed = oracle_max_disagreements(len(texts))
    if len(disagree) > allowed:
        return [
            f"{len(disagree)} of {len(texts)} verdicts disagree with the "
            f"interleave oracle (at most {allowed} allowed): {disagree}"
        ]
    return []


def check_equal(label: str, got: str, expected: str) -> list[str]:
    """Byte equality of an output against an independent computation."""
    if got == expected:
        return []
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
              min(len(got), len(expected)))
    return [f"{label}: bytes differ from the reference at offset {at}"]


def check_repeat_hit(label: str, status: dict) -> list[str]:
    """An exact repeat must be answered by the result cache."""
    if status.get("cache_hit") is True:
        return []
    return [f"{label}: exact repeat did not report cache_hit"]


def check_fleet_roles(rollup_text: str) -> list[str]:
    """Every contend machine ends ``ever_rmc``; no quiet machine does."""
    problems = []
    for mid, m in json.loads(rollup_text)["machines"].items():
        role = m["identity"]["workload"]
        if m["ever_rmc"] != (role == "contend"):
            problems.append(f"{mid}: {role} machine has ever_rmc={m['ever_rmc']}")
    return problems


def interleave_by_machine(records: list[dict], rng: random.Random) -> list[dict]:
    """A random interleaving of the per-machine streams.

    Each machine's records keep their order (the wire protocol requires
    in-order streams); the order across machines is shuffled.
    """
    streams: dict[str, list[dict]] = {}
    for rec in records:
        streams.setdefault(rec["machine_id"], []).append(rec)
    queues = [list(reversed(s)) for _, s in sorted(streams.items())]
    out = []
    while queues:
        q = rng.choice(queues)
        out.append(q.pop())
        if not q:
            queues.remove(q)
    return out
