"""Minimal HTTP/JSON clients for the optimizer server.

Two flavors, both stdlib-only:

* :func:`http_request` / :func:`post_optimize` — blocking, one socket
  per call (``Connection: close``); what synchronous examples and
  tests reach for;
* :class:`AsyncHttpClient` — asyncio streams with keep-alive, used by
  the load benchmark to drive many concurrent open-loop arrivals from
  one process.

Both return the raw response body alongside the parsed envelope so
callers can assert bitwise equality of coalesced responses.

Retries are opt-in: pass ``retry=CLIENT_RETRY_POLICY`` (or any
:class:`~repro.resilience.policy.RetryPolicy`) to :func:`post_optimize`
or :meth:`AsyncHttpClient.optimize` and the client re-sends on
connection resets, timeouts and mid-response drops with jittered
exponential backoff, and honors the server's ``Retry-After`` header on
a 429 shed. ``POST /optimize`` is idempotent (same fingerprint → same
plan, coalesced server-side), which is what makes blind re-send safe.
Once the retry budget is spent (immediately, without a policy), a
transport failure always surfaces as :class:`ProtocolError` chained
from the last underlying error, whichever way the connection died.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from typing import Any

from repro.resilience.policy import CLIENT_RETRY_POLICY, RetryPolicy
from repro.serving.protocol import ProtocolError, ServerResponse

__all__ = [
    "CLIENT_RETRY_POLICY",
    "AsyncHttpClient",
    "get_metrics",
    "get_metrics_text",
    "http_request",
    "post_optimize",
]

#: Failures worth re-sending an idempotent request over: the TCP
#: connection died (reset/refused/broken pipe), the socket timed out,
#: or the server dropped the connection mid-response (which surfaces
#: as :class:`ProtocolError`/``IncompleteReadError`` from the parser).
#: ``socket.timeout`` is an alias of ``TimeoutError`` since 3.10 but is
#: kept for clarity.
_RETRYABLE_EXCEPTIONS = (
    ConnectionError,
    TimeoutError,
    socket.timeout,
    ProtocolError,
    asyncio.IncompleteReadError,
)


def _build_request(
    method: str,
    path: str,
    payload: Any | None,
    *,
    close: bool,
    headers: dict[str, str] | None = None,
) -> bytes:
    body = b""
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: repro\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    head += f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
    return head.encode("latin-1") + body


def _parse_status_line(line: bytes) -> int:
    try:
        _version, status, *_reason = line.decode("latin-1").split(" ", 2)
        return int(status)
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(
            f"malformed HTTP status line {line!r}"
        ) from error


def _parse_header_line(line: bytes, headers: dict[str, str]) -> None:
    name, _, value = line.decode("latin-1").partition(":")
    headers[name.strip().lower()] = value.strip()


def _retry_after_delay(
    headers: dict[str, str], fallback: float
) -> float:
    """Server-requested pause before re-sending a shed request.

    Honors a parseable non-negative ``Retry-After`` (delta-seconds
    form); anything else — absent, HTTP-date form, garbage — falls
    back to the policy's own backoff delay.
    """
    raw = headers.get("retry-after")
    if raw is None:
        return fallback
    try:
        seconds = float(raw)
    except ValueError:
        return fallback
    return seconds if seconds >= 0.0 else fallback


def _retries_spent(failures: int, error: BaseException) -> ProtocolError:
    """The error an optimize call raises once a transport failure is final.

    A reset can surface as ``ConnectionResetError`` (RST during the
    read), an empty status line (EOF) or a timeout depending on timing;
    callers see one exception type either way, with the real cause
    chained as ``__cause__``.
    """
    return ProtocolError(
        f"optimize request failed after {failures} attempt(s): {error!r}"
    )


# ----------------------------------------------------------------------
# Blocking client
# ----------------------------------------------------------------------
def _exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Any | None,
    *,
    timeout: float,
    headers: dict[str, str] | None,
) -> tuple[int, dict[str, str], bytes]:
    """One blocking exchange; returns (status, response headers, body)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            _build_request(method, path, payload, close=True, headers=headers)
        )
        reader = sock.makefile("rb")
        status = _parse_status_line(reader.readline())
        response_headers: dict[str, str] = {}
        while True:
            line = reader.readline()
            if not line:
                raise ProtocolError("connection closed inside headers")
            if line in (b"\r\n", b"\n"):
                break
            _parse_header_line(line, response_headers)
        length = int(response_headers.get("content-length", "0"))
        body = reader.read(length)
        if len(body) < length:
            raise ProtocolError("connection closed inside body")
        return status, response_headers, body


def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Any | None = None,
    *,
    timeout: float = 30.0,
    headers: dict[str, str] | None = None,
) -> tuple[int, bytes]:
    """One blocking HTTP exchange; returns (status, body bytes)."""
    status, _headers, body = _exchange(
        host, port, method, path, payload, timeout=timeout, headers=headers
    )
    return status, body


def post_optimize(
    host: str,
    port: int,
    request_payload: dict[str, Any],
    *,
    timeout: float = 30.0,
    retry: RetryPolicy | None = None,
    rng=None,
) -> tuple[ServerResponse, bytes]:
    """POST one optimize request; returns (envelope, raw body).

    With ``retry`` set, connection failures re-send with jittered
    backoff and a 429 shed waits out the server's ``Retry-After``
    before re-sending. Once attempts (or the policy's patience) run
    out, a shed returns the final 429 envelope, and a connection
    failure (reset, timeout, mid-response drop) raises
    :class:`ProtocolError` chained ``from`` the last transport error.
    Without ``retry`` the first connection failure is final.
    """
    failures = 0
    while True:
        try:
            status, response_headers, body = _exchange(
                host, port, "POST", "/optimize", request_payload,
                timeout=timeout, headers=None,
            )
        except _RETRYABLE_EXCEPTIONS as error:
            failures += 1
            delay = (
                retry.next_delay(failures, rng=rng)
                if retry is not None
                else None
            )
            if delay is None:
                raise _retries_spent(failures, error) from error
            time.sleep(delay)
            continue
        if status == 429 and retry is not None:
            failures += 1
            delay = retry.next_delay(failures, rng=rng)
            if delay is not None:
                time.sleep(_retry_after_delay(response_headers, delay))
                continue
        return ServerResponse.from_json(body), body


def get_metrics(
    host: str, port: int, *, timeout: float = 30.0
) -> dict[str, Any]:
    """Fetch the server's combined metrics snapshot."""
    _status, body = http_request(
        host, port, "GET", "/metrics", timeout=timeout
    )
    envelope = ServerResponse.from_json(body)
    return envelope.result or {}


def get_metrics_text(
    host: str, port: int, *, timeout: float = 30.0
) -> str:
    """Fetch the server's metrics as Prometheus text exposition."""
    _status, body = http_request(
        host, port, "GET", "/metrics", timeout=timeout,
        headers={"Accept": "text/plain"},
    )
    return body.decode("utf-8")


# ----------------------------------------------------------------------
# Async client (keep-alive)
# ----------------------------------------------------------------------
class AsyncHttpClient:
    """One keep-alive connection to the server, asyncio flavored.

    Not safe for concurrent use from multiple tasks — HTTP/1.1 without
    pipelining is one exchange at a time per connection. Spawn one
    client per concurrent in-flight request (they are cheap).
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "AsyncHttpClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "AsyncHttpClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def _exchange(
        self, method: str, path: str, payload: Any | None
    ) -> tuple[int, dict[str, str], bytes]:
        """One exchange; returns (status, response headers, body)."""
        if self._reader is None or self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        self._writer.write(
            _build_request(method, path, payload, close=False)
        )
        await self._writer.drain()
        status = _parse_status_line(await self._reader.readline())
        response_headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if not line:
                raise ProtocolError("connection closed inside headers")
            if line in (b"\r\n", b"\n"):
                break
            _parse_header_line(line, response_headers)
        length = int(response_headers.get("content-length", "0"))
        body = (
            await self._reader.readexactly(length) if length else b""
        )
        return status, response_headers, body

    async def request(
        self, method: str, path: str, payload: Any | None = None
    ) -> tuple[int, bytes]:
        """One HTTP exchange on the keep-alive connection."""
        status, _headers, body = await self._exchange(
            method, path, payload
        )
        return status, body

    async def optimize(
        self,
        request_payload: dict[str, Any],
        *,
        retry: RetryPolicy | None = None,
        rng=None,
    ) -> tuple[ServerResponse, bytes]:
        """POST one optimize request; returns (envelope, raw body).

        Same retry semantics as :func:`post_optimize`: once the budget
        is spent, a connection failure raises :class:`ProtocolError`
        chained ``from`` the last transport error. A connection failure
        additionally tears the keep-alive connection down so the next
        attempt (or call) reconnects fresh.
        """
        failures = 0
        while True:
            try:
                status, response_headers, body = await self._exchange(
                    "POST", "/optimize", request_payload
                )
            except _RETRYABLE_EXCEPTIONS as error:
                await self.close()
                failures += 1
                delay = (
                    retry.next_delay(failures, rng=rng)
                    if retry is not None
                    else None
                )
                if delay is None:
                    raise _retries_spent(failures, error) from error
                await asyncio.sleep(delay)
                continue
            if status == 429 and retry is not None:
                failures += 1
                delay = retry.next_delay(failures, rng=rng)
                if delay is not None:
                    await asyncio.sleep(
                        _retry_after_delay(response_headers, delay)
                    )
                    continue
            return ServerResponse.from_json(body), body

    async def metrics(self) -> dict[str, Any]:
        _status, body = await self.request("GET", "/metrics")
        envelope = ServerResponse.from_json(body)
        return envelope.result or {}
