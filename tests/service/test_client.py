"""Client-side hardening: Retry-After parsing and trace bookkeeping.

The ``parse_retry_after`` cases are the regression suite for the 429
path formerly doing a bare ``float(headers["Retry-After"])`` — an
HTTP-date, an absent header, or a negative value crashed the client (or
parked it on a nonsensical sleep) right when the server was asking it
to back off politely.
"""

from __future__ import annotations

import pytest

from repro.service import ServiceClient
from repro.service.client import (
    _MAX_REMEMBERED_TRACES,
    RETRY_AFTER_CAP_S,
    RETRY_AFTER_FALLBACK_S,
    parse_retry_after,
)
from repro.service.trace import mint_trace


class TestParseRetryAfter:
    @pytest.mark.parametrize("value,expected", [
        ("1.5", 1.5),
        ("0", 0.0),
        (2, 2.0),
        ("59.9", 59.9),
    ])
    def test_sane_values_pass_through(self, value, expected):
        assert parse_retry_after(value) == expected

    @pytest.mark.parametrize("malformed", [
        None,                               # header absent
        "",                                 # header present but empty
        "soon",                             # prose
        "Wed, 21 Oct 2026 07:28:00 GMT",    # the HTTP-date form
        "1.5s",                             # units
        "nan",
        "inf",                              # not a real instruction to wait
        [],
        {},
    ])
    def test_malformed_falls_back(self, malformed):
        assert parse_retry_after(malformed) == RETRY_AFTER_FALLBACK_S

    @pytest.mark.parametrize("negative", ["-1", "-0.001", -5])
    def test_negative_falls_back(self, negative):
        assert parse_retry_after(negative) == RETRY_AFTER_FALLBACK_S

    @pytest.mark.parametrize("huge", ["3600", "1e9", 86400])
    def test_huge_values_capped(self, huge):
        assert parse_retry_after(huge) == RETRY_AFTER_CAP_S

    def test_cap_below_fallback_never_happens(self):
        # The fallback must itself be a value the cap allows.
        assert RETRY_AFTER_FALLBACK_S <= RETRY_AFTER_CAP_S


class TestTraceMemory:
    def test_polls_reuse_submission_trace(self):
        client = ServiceClient("http://127.0.0.1:1")
        trace = mint_trace()
        client._remember_trace("job-1", trace)
        t1 = client.trace_for("job-1")
        t2 = client.trace_for("job-1")
        assert t1.trace_id == t2.trace_id == trace.trace_id
        assert t1.span_id != t2.span_id  # fresh span per request

    def test_unknown_job_gets_fresh_trace(self):
        client = ServiceClient("http://127.0.0.1:1")
        assert client.trace_for("never-seen").trace_id != \
            client.trace_for("never-seen").trace_id

    def test_memory_is_bounded(self):
        client = ServiceClient("http://127.0.0.1:1")
        for i in range(_MAX_REMEMBERED_TRACES + 10):
            client._remember_trace(f"job-{i}", mint_trace())
        assert len(client._traces) <= _MAX_REMEMBERED_TRACES


class _ScriptedClient(ServiceClient):
    """A client whose job stays ``running`` for ``polls`` status calls;
    sleeps are recorded, never slept."""

    def __init__(self, polls: int) -> None:
        self.sleeps: list[float] = []
        super().__init__("http://127.0.0.1:1", sleep=self.sleeps.append)
        self._left = polls

    def submit(self, spec, trace=None):
        return {"id": "job-1"}

    def status(self, job_id):
        self._left -= 1
        return {"state": "running" if self._left >= 0 else "done"}

    def result(self, job_id):
        return {"ok": True}


class TestPollSchedule:
    def test_wait_starts_at_5ms_doubles_and_caps_at_2s(self):
        client = _ScriptedClient(polls=12)
        assert client.wait("job-1") == {"ok": True}
        assert client.sleeps == pytest.approx(
            [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28, 2.0, 2.0, 2.0]
        )

    def test_run_forwards_the_poll_cap(self):
        client = _ScriptedClient(polls=4)
        assert client.run({"kind": "detect"}, poll_s=0.005, poll_max_s=0.005) == {"ok": True}
        assert client.sleeps == pytest.approx([0.005] * 4)

    def test_run_defaults_match_wait(self):
        ran, waited = _ScriptedClient(polls=6), _ScriptedClient(polls=6)
        ran.run({"kind": "detect"})
        waited.wait("job-1")
        assert ran.sleeps == waited.sleeps
