"""A tiny urllib client for the profiling service.

Bundled so scripts, the CI smoke test, and operators poking at a daemon
don't each reinvent submit/poll/fetch against raw HTTP.  Errors come
back as :class:`~repro.errors.ServiceError` (or
:class:`~repro.errors.ServiceSaturatedError` for 429s, carrying the
server's ``Retry-After``), so callers handle the service exactly like
the rest of the library.

Every request carries an ``X-Drbw-Trace`` header: :meth:`ServiceClient.submit`
mints a fresh :class:`~repro.service.trace.TraceContext` per submission
(the server adopts its trace_id as the job's trace identity), and later
status/result polls for that job reuse the same trace with a fresh span
id per request, so the server's access log shows the whole conversation
under one trace.  See ``docs/service.md`` ("Request tracing & SLOs").

Two client-side resilience behaviors (see ``docs/robustness.md``):

* :meth:`ServiceClient.wait` polls with **capped exponential backoff**
  (``poll_s`` doubling up to ``poll_max_s``) instead of a fixed-interval
  busy loop — fast jobs are picked up within milliseconds, long jobs
  cost a few requests per minute instead of hundreds;
* idempotent **GETs are retried exactly once** after a transient
  transport error (``ConnectionResetError`` / ``RemoteDisconnected`` —
  e.g. the server restarted between keep-alive requests).  POSTs are
  never retried: submitting twice would double-submit the job.

Usage::

    client = ServiceClient("http://127.0.0.1:8787")
    status = client.submit({"kind": "detect", "benchmark": "Streamcluster"})
    result = client.wait(status["id"], timeout=600)
"""

from __future__ import annotations

import http.client
import json
import math
import time
import urllib.error
import urllib.request
from typing import Callable

from repro.errors import ServiceError, ServiceSaturatedError
from repro.service.trace import TRACE_HEADER, TraceContext, mint_trace

__all__ = [
    "ServiceClient",
    "parse_retry_after",
    "RETRY_AFTER_FALLBACK_S",
    "RETRY_AFTER_CAP_S",
]

#: Transport errors that justify one retry of an idempotent request.
_TRANSIENT = (ConnectionResetError, http.client.RemoteDisconnected)

#: ``Retry-After`` parsing: fallback when the header is absent, empty,
#: non-numeric, or negative, and a hard cap so a misconfigured (or
#: hostile) server cannot park a client for an hour with one header.
RETRY_AFTER_FALLBACK_S = 1.0
RETRY_AFTER_CAP_S = 60.0

#: Traces remembered for status/result correlation per client instance.
_MAX_REMEMBERED_TRACES = 4096


def parse_retry_after(value: object) -> float:
    """Seconds to wait from a ``Retry-After`` header value, defensively.

    Servers (and the proxies between) emit all sorts here: the HTTP-date
    form, empty strings, negatives, ``inf``.  Anything that is not a
    finite non-negative number falls back to
    :data:`RETRY_AFTER_FALLBACK_S`; everything is capped at
    :data:`RETRY_AFTER_CAP_S` so the backoff a caller sleeps on is always
    sane.
    """
    try:
        seconds = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return RETRY_AFTER_FALLBACK_S
    if not math.isfinite(seconds) or seconds < 0:
        return RETRY_AFTER_FALLBACK_S
    return min(seconds, RETRY_AFTER_CAP_S)


class ServiceClient:
    """HTTP client bound to one service base URL."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._sleep = sleep
        #: job id -> trace id, so polls reuse the submission's trace.
        self._traces: dict[str, str] = {}

    # -- tracing ----------------------------------------------------------------

    def _remember_trace(self, job_id: str, trace: TraceContext) -> None:
        if len(self._traces) >= _MAX_REMEMBERED_TRACES:
            # Clients are short-lived; a simple clear beats an LRU here —
            # the only cost is a fresh trace on polls for very old jobs.
            self._traces.clear()
        self._traces[job_id] = trace.trace_id

    def trace_for(self, job_id: str) -> TraceContext:
        """The trace context polls for ``job_id`` should carry.

        Reuses the submission's trace id with a fresh span id per
        request; jobs this client never submitted get a fresh trace.
        """
        trace_id = self._traces.get(job_id)
        if trace_id is None:
            return mint_trace()
        return TraceContext(trace_id, mint_trace().span_id)

    # -- raw HTTP ---------------------------------------------------------------

    def _request(
        self,
        path: str,
        data: bytes | None = None,
        trace: TraceContext | None = None,
    ) -> tuple[int, dict, bytes]:
        # GETs (data is None) are idempotent and safe to retry once after
        # a transient transport failure; POSTs are not (double submit).
        attempts = 2 if data is None else 1
        for attempt in range(1, attempts + 1):
            try:
                return self._request_once(path, data, trace)
            except _TRANSIENT:
                if attempt >= attempts:
                    raise ServiceError(
                        f"connection to {self.base_url} reset repeatedly"
                    ) from None
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(
        self, path: str, data: bytes | None, trace: TraceContext | None
    ) -> tuple[int, dict, bytes]:
        headers = {TRACE_HEADER: (trace or mint_trace()).header_value()}
        if data:
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            headers=headers,
            method="POST" if data is not None else "GET",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, dict(resp.headers), resp.read()
        except urllib.error.HTTPError as exc:
            body = exc.read()
            message = self._error_message(body, exc)
            if exc.code == 429:
                retry = parse_retry_after(exc.headers.get("Retry-After"))
                raise ServiceSaturatedError(message, retry_after=retry) from None
            raise ServiceError(f"HTTP {exc.code}: {message}") from None
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, _TRANSIENT):
                # Unwrap so the retry loop can classify it.
                raise exc.reason from None
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc.reason}"
            ) from None

    @staticmethod
    def _error_message(body: bytes, exc: urllib.error.HTTPError) -> str:
        try:
            return json.loads(body)["error"]
        except (ValueError, KeyError, TypeError):
            return exc.reason or f"status {exc.code}"

    # -- API --------------------------------------------------------------------

    def submit(self, spec: dict, trace: TraceContext | None = None) -> dict:
        """POST one job spec; returns its status payload.

        Mints a fresh trace context unless the caller passes one; either
        way the trace is remembered so :meth:`status`/:meth:`result`
        polls for the returned job id ride the same trace.
        """
        trace = trace or mint_trace()
        _, _, body = self._request(
            "/v1/jobs", json.dumps(spec).encode("utf-8"), trace=trace
        )
        payload = json.loads(body)
        job_id = payload.get("id")
        if isinstance(job_id, str):
            self._remember_trace(job_id, trace)
        return payload

    def status(self, job_id: str) -> dict:
        _, _, body = self._request(
            f"/v1/jobs/{job_id}", trace=self.trace_for(job_id)
        )
        return json.loads(body)

    def result_text(self, job_id: str) -> str:
        """The finished job's result — the exact ``--json`` CLI bytes."""
        _, _, body = self._request(
            f"/v1/jobs/{job_id}/result", trace=self.trace_for(job_id)
        )
        return body.decode("utf-8")

    def result(self, job_id: str) -> dict:
        return json.loads(self.result_text(job_id))

    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_s: float = 0.005,
        poll_max_s: float = 2.0,
    ) -> dict:
        """Poll until the job reaches a terminal state; returns the result.

        The poll interval starts at ``poll_s`` and doubles up to
        ``poll_max_s`` — capped exponential backoff, so short jobs return
        promptly and long jobs don't hammer the status endpoint.  Raises
        :class:`ServiceError` on job failure or timeout.
        """
        deadline = time.monotonic() + timeout
        delay = max(poll_s, 0.001)
        while True:
            status = self.status(job_id)
            if status["state"] == "done":
                return self.result(job_id)
            if status["state"] == "failed":
                raise ServiceError(
                    f"job {job_id} failed: {status.get('error', 'unknown error')}"
                )
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status['state']} after {timeout}s"
                )
            self._sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(delay * 2.0, poll_max_s)

    def run(
        self,
        spec: dict,
        timeout: float = 600.0,
        poll_s: float = 0.005,
        poll_max_s: float = 2.0,
    ) -> dict:
        """Submit and wait — the one-call path scripts want."""
        return self.wait(
            self.submit(spec)["id"], timeout=timeout,
            poll_s=poll_s, poll_max_s=poll_max_s,
        )

    def metrics(self) -> str:
        _, _, body = self._request("/metrics")
        return body.decode("utf-8")

    def healthy(self) -> bool:
        try:
            status, _, _ = self._request("/healthz")
        except ServiceError:
            return False
        return status == 200

    def ready(self) -> bool:
        try:
            status, _, _ = self._request("/readyz")
        except ServiceError:
            return False
        return status == 200