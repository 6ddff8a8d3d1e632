"""Serving-layer resilience: client retries, drain, leader safety net.

Client retry behavior is tested against a scripted in-process TCP
server (exact control over resets, 429s and ``Retry-After`` headers);
drain and chaos-drop behavior run against the real
:class:`AsyncOptimizerServer` driven with ``asyncio.run`` (pytest-
asyncio is not installed, same idiom as ``test_serving_server.py``).
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time

import pytest

from repro import (
    Objective,
    OptimizationRequest,
    OptimizerService,
    Preferences,
)
from repro.plans.serialize import request_to_dict
from repro.resilience import ChaosConfig, ChaosInjector, RetryPolicy
from repro.serving import (
    AsyncHttpClient,
    AsyncOptimizerServer,
    ServerThread,
    post_optimize,
)
from repro.serving.protocol import (
    CODE_INTERNAL,
    CODE_OK,
    CODE_SHED,
    CODE_UNAVAILABLE,
    ProtocolError,
    shed_response,
)
from tests.conftest import TINY_CONFIG, make_chain_query, make_small_schema

PREFS = Preferences.from_maps(
    (Objective.TOTAL_TIME, Objective.TUPLE_LOSS),
    weights={Objective.TOTAL_TIME: 1.0, Objective.TUPLE_LOSS: 1.0},
)

#: Backoff so small that any observable inter-attempt gap in the
#: Retry-After tests must come from the header, not the policy.
EAGER_RETRY = RetryPolicy(
    max_attempts=4, base_delay_s=0.001, max_delay_s=0.002
)


def make_payload(alpha: float = 1.5) -> dict:
    return request_to_dict(
        OptimizationRequest(
            query=make_chain_query(3),
            preferences=PREFS,
            algorithm="rta",
            alpha=alpha,
        )
    )


def make_service(**kwargs) -> OptimizerService:
    kwargs.setdefault("config", TINY_CONFIG)
    return OptimizerService(make_small_schema(), **kwargs)


# ----------------------------------------------------------------------
# Scripted TCP server: one scripted behavior per accepted connection
# ----------------------------------------------------------------------
def raw_response(
    status: int,
    reason: str,
    body: bytes,
    extra_headers: tuple = (),
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    for name, value in extra_headers:
        head += f"{name}: {value}\r\n"
    head += "Connection: close\r\n\r\n"
    return head.encode("latin-1") + body


OK_BODY = b'{"status": "ok", "code": "ok"}'
SHED_BODY = shed_response().to_json().encode("utf-8")


def reset_script(conn: socket.socket) -> None:
    """Close the connection before sending anything (reset mid-exchange)."""
    conn.close()


def rst_script(conn: socket.socket) -> None:
    """Abort the connection with a TCP RST instead of an orderly FIN.

    ``SO_LINGER`` with a zero timeout makes ``close`` discard the socket
    and send RST, so the client's read fails with ``ConnectionResetError``
    rather than seeing EOF — the timing-independent form of the reset
    that :func:`reset_script` only sometimes produces.
    """
    conn.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    conn.close()


def respond_script(payload: bytes):
    def script(conn: socket.socket) -> None:
        conn.settimeout(5.0)
        reader = conn.makefile("rb")
        length = 0
        while True:  # drain the request so the client never blocks
            line = reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length:
            reader.read(length)
        conn.sendall(payload)
        conn.close()

    return script


class ScriptedServer:
    """Runs one script per accepted connection, recording accept times."""

    def __init__(self, scripts) -> None:
        self.scripts = list(scripts)
        self.accept_times: list[float] = []
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    def _serve(self) -> None:
        for script in self.scripts:
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                return
            self.accept_times.append(time.monotonic())
            try:
                script(conn)
            except OSError:
                pass
        self._sock.close()

    def __enter__(self) -> "ScriptedServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so unused scripts cost no join wait.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5)


# ----------------------------------------------------------------------
# Blocking-client retries
# ----------------------------------------------------------------------
class TestClientRetries:
    def test_no_retry_by_default_on_connection_reset(self):
        with ScriptedServer([reset_script]) as server:
            host, port = server.address
            # Depending on timing the reset surfaces as a protocol
            # error (empty status line) or an OS-level reset; without
            # a retry policy, either must reach the caller.
            with pytest.raises((ProtocolError, ConnectionError)):
                post_optimize(host, port, {"x": 1}, timeout=5.0)

    def test_retries_connection_reset_with_policy(self):
        scripts = [reset_script, reset_script, respond_script(
            raw_response(200, "OK", OK_BODY)
        )]
        with ScriptedServer(scripts) as server:
            host, port = server.address
            envelope, _body = post_optimize(
                host, port, {"x": 1}, timeout=5.0, retry=EAGER_RETRY
            )
        assert envelope.code == CODE_OK

    def test_retry_budget_exhaustion_reraises(self):
        scripts = [reset_script] * 4
        with ScriptedServer(scripts) as server:
            host, port = server.address
            with pytest.raises(ProtocolError):
                post_optimize(
                    host, port, {"x": 1}, timeout=5.0,
                    retry=RetryPolicy(
                        max_attempts=2, base_delay_s=0.001,
                        max_delay_s=0.002,
                    ),
                )

    def test_rst_after_retries_raises_protocol_error(self):
        """A hard reset on every attempt still surfaces as ProtocolError,
        with the transport error chained as its cause."""
        with ScriptedServer([rst_script] * 2) as server:
            host, port = server.address
            with pytest.raises(ProtocolError) as caught:
                post_optimize(
                    host, port, {"x": 1}, timeout=5.0,
                    retry=RetryPolicy(
                        max_attempts=2, base_delay_s=0.001,
                        max_delay_s=0.002,
                    ),
                )
        assert isinstance(caught.value.__cause__, ConnectionError)

    def test_async_rst_after_retries_raises_protocol_error(self):
        async def scenario():
            with ScriptedServer([rst_script] * 2) as server:
                # No eager connect: a reset can land during the connect
                # itself, and only optimize() counts it as an attempt.
                client = AsyncHttpClient(*server.address)
                try:
                    await client.optimize(
                        {"x": 1},
                        retry=RetryPolicy(
                            max_attempts=2, base_delay_s=0.001,
                            max_delay_s=0.002,
                        ),
                    )
                finally:
                    await client.close()

        with pytest.raises(ProtocolError) as caught:
            asyncio.run(scenario())
        assert isinstance(caught.value.__cause__, ConnectionError)

    def test_429_honors_retry_after_header(self):
        scripts = [
            respond_script(raw_response(
                429, "Too Many Requests", SHED_BODY,
                (("Retry-After", "0.25"),),
            )),
            respond_script(raw_response(200, "OK", OK_BODY)),
        ]
        with ScriptedServer(scripts) as server:
            host, port = server.address
            envelope, _body = post_optimize(
                host, port, {"x": 1}, timeout=5.0, retry=EAGER_RETRY
            )
            gap = server.accept_times[1] - server.accept_times[0]
        assert envelope.code == CODE_OK
        # The policy's own backoff is ~1ms; a quarter-second gap can
        # only come from honoring the header.
        assert gap >= 0.2

    def test_429_returns_final_envelope_when_retries_run_out(self):
        response = raw_response(
            429, "Too Many Requests", SHED_BODY, (("Retry-After", "0"),)
        )
        with ScriptedServer([respond_script(response)] * 3) as server:
            host, port = server.address
            envelope, _body = post_optimize(
                host, port, {"x": 1}, timeout=5.0,
                retry=RetryPolicy(
                    max_attempts=3, base_delay_s=0.001, max_delay_s=0.002
                ),
            )
            attempts = len(server.accept_times)
        assert envelope.code == CODE_SHED
        assert attempts == 3

    def test_429_without_retry_policy_is_returned_verbatim(self):
        response = raw_response(429, "Too Many Requests", SHED_BODY)
        with ScriptedServer([respond_script(response)]) as server:
            host, port = server.address
            envelope, _body = post_optimize(
                host, port, {"x": 1}, timeout=5.0
            )
        assert envelope.code == CODE_SHED


# ----------------------------------------------------------------------
# Async client against the real server: chaos response drops
# ----------------------------------------------------------------------
class TestChaosDrops:
    def test_async_client_retries_through_dropped_response(self):
        """A chaos 'drop' aborts the socket after the optimization ran;
        the retrying client reconnects and gets the (cached) result."""
        chaos = ChaosInjector(
            ChaosConfig(seed=1, drop_prob=1.0, max_faults=1)
        )
        service = make_service(chaos=chaos)
        server = AsyncOptimizerServer(service, owns_service=True)

        async def scenario():
            async with server:
                host, port = server.address
                async with AsyncHttpClient(host, port) as client:
                    envelope, _body = await client.optimize(
                        make_payload(), retry=EAGER_RETRY
                    )
                return envelope, server.metrics.snapshot()

        envelope, serving = asyncio.run(scenario())
        assert envelope.code == CODE_OK
        assert serving["drops"] == 1
        assert chaos.snapshot()["by_kind"] == {"drop": 1}

    def test_drop_without_retry_surfaces_to_the_caller(self):
        chaos = ChaosInjector(
            ChaosConfig(seed=1, drop_prob=1.0, max_faults=1)
        )
        service = make_service(chaos=chaos)
        server = AsyncOptimizerServer(service, owns_service=True)

        async def scenario():
            async with server:
                host, port = server.address
                async with AsyncHttpClient(host, port) as client:
                    with pytest.raises(
                        (ProtocolError, ConnectionError,
                         asyncio.IncompleteReadError)
                    ):
                        await client.optimize(make_payload())

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_draining_server_refuses_new_work_but_stays_observable(self):
        service = make_service()
        server = AsyncOptimizerServer(service, owns_service=True)

        async def scenario():
            async with server:
                host, port = server.address
                async with AsyncHttpClient(host, port) as client:
                    before, _ = await client.optimize(make_payload())
                    server._stopping = True  # enter the drain window
                    during, _ = await client.optimize(make_payload(1.7))
                    _status, health_body = await client.request(
                        "GET", "/healthz"
                    )
                    snapshot = server.metrics_snapshot()
            return before, during, health_body, snapshot

        before, during, health_body, snapshot = asyncio.run(scenario())
        assert before.code == CODE_OK
        assert during.code == CODE_UNAVAILABLE
        assert b'"draining"' in health_body
        assert snapshot["serving"]["drain_rejects"] == 1

    def test_clean_drain_returns_true(self):
        service = make_service()
        server = AsyncOptimizerServer(service, owns_service=True)

        async def scenario():
            await server.start()
            host, port = server.address
            async with AsyncHttpClient(host, port) as client:
                envelope, _ = await client.optimize(make_payload())
            assert envelope.code == CODE_OK
            return await server.stop(drain_timeout=5.0)

        assert asyncio.run(scenario()) is True

    def test_forced_drain_cancels_stragglers_and_returns_false(
        self, monkeypatch
    ):
        service = make_service()
        server = AsyncOptimizerServer(service, owns_service=True)
        release = threading.Event()

        def stuck_submit(request, **kwargs):
            release.wait(timeout=30.0)
            raise RuntimeError("stuck optimization released")

        monkeypatch.setattr(service, "submit", stuck_submit)

        async def scenario():
            await server.start()
            host, port = server.address
            async with AsyncHttpClient(host, port) as client:
                waiter = asyncio.ensure_future(
                    client.optimize(make_payload())
                )
                while not server._leader_tasks:  # leader is in flight
                    await asyncio.sleep(0.01)
                # Release the stuck executor thread shortly after the
                # drain deadline passes: stop() shuts the executor down
                # with wait=True (blocking the loop thread), so the
                # release must come from a plain timer thread.
                threading.Timer(0.5, release.set).start()
                clean = await server.stop(drain_timeout=0.1)
                waiter.cancel()
                try:
                    await waiter
                except (asyncio.CancelledError, Exception):
                    pass
            return clean

        assert asyncio.run(scenario()) is False


# ----------------------------------------------------------------------
# `repro serve` drain flags and signal handling
# ----------------------------------------------------------------------
class TestServeCli:
    def test_serve_parser_accepts_resilience_flags(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(
            ["--drain-timeout", "2.5", "--chaos", "kill=0.1,seed=3"]
        )
        assert args.drain_timeout == 2.5
        assert args.chaos == "kill=0.1,seed=3"

    def test_sigterm_drains_and_exits_zero(self):
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_dir = Path(repro.__file__).resolve().parent.parent
        process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--port", "0", "--fast", "--drain-timeout", "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src_dir)},
        )
        try:
            banner = process.stdout.readline()
            assert "serving on http://" in banner, banner
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)
        assert process.returncode == 0, output
        assert "draining" in output


# ----------------------------------------------------------------------
# Coalescer leader-death safety net
# ----------------------------------------------------------------------
class TestLeaderSafetyNet:
    def test_dead_leader_fails_waiters_promptly(self, monkeypatch):
        """Regression: a leader task that dies without touching the
        coalescer must not strand its own connection (or followers) on
        a future nobody owns."""

        async def doomed_leader(self, request, fingerprint, arrival):
            raise RuntimeError("leader died before publishing")

        monkeypatch.setattr(
            AsyncOptimizerServer, "_run_leader", doomed_leader
        )
        service = make_service()
        server = AsyncOptimizerServer(service, owns_service=True)

        async def scenario():
            async with server:
                host, port = server.address
                async with AsyncHttpClient(host, port) as client:
                    return await asyncio.wait_for(
                        client.optimize(make_payload()), timeout=5.0
                    )

        envelope, _body = asyncio.run(scenario())
        assert envelope.code == CODE_INTERNAL
        assert "leader died" in envelope.error

    def test_leader_exception_is_not_left_unretrieved(self, monkeypatch):
        """The done-callback retrieves the task exception, so asyncio
        never logs 'exception was never retrieved' for leader crashes."""

        async def doomed_leader(self, request, fingerprint, arrival):
            raise RuntimeError("boom")

        monkeypatch.setattr(
            AsyncOptimizerServer, "_run_leader", doomed_leader
        )
        service = make_service()
        server = AsyncOptimizerServer(service, owns_service=True)
        seen: list = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, ctx: seen.append(ctx)
            )
            async with server:
                host, port = server.address
                async with AsyncHttpClient(host, port) as client:
                    await client.optimize(make_payload())
            # Give the loop a beat to report unretrieved exceptions.
            await asyncio.sleep(0)

        asyncio.run(scenario())
        assert seen == []
