"""HTTP side of ``http-zipf``: the server child process and the load.

The server is the public ``repro serve`` entry point, started as a
child process in its own process group; ``serve_traced.py`` stands in
for it in traced runs. The load is an asyncio open loop in this one
process: requests are due at a fixed rate and each is timed from when
it was due, over at most ``nproc`` keep-alive connections. A host-speed
sample precedes every send.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

SERVE_ARGS = (
    "--port", "0", "--fast", "--backend", "processes", "--workers", "1",
)
#: Seconds a server gets to print its banner, and to drain on SIGTERM.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: A host-speed sample starts this long (s) before the send it precedes.
SAMPLE_LEAD_S = 0.01


def _children(pid: int) -> list[int]:
    """Live descendants of ``pid`` (scans /proc)."""
    parents: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        parents[int(entry.name)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        for child, ppid in parents.items():
            if ppid == parent:
                found.append(child)
                frontier.append(child)
    return found


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _peak_rss_kb(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class ServerProcess:
    """One ``repro serve`` child; always stop() it (also on failure)."""

    def __init__(self, root: Path, stats_path: Path | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        if stats_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *SERVE_ARGS]
        else:
            command = [
                sys.executable, str(root / "perfbench" / "serve_traced.py"),
                str(stats_path), *SERVE_ARGS,
            ]
        # Unbuffered, so select() sees every line the server prints.
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, bufsize=0,
            start_new_session=True,
        )
        self._seen: set[int] = set()
        try:
            self.port = self._await_banner()
        except BaseException:
            self.stop()
            raise

    def _await_line(self, marker: str) -> str:
        """Read the server's stdout up to a line containing ``marker``."""
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(deadline - time.monotonic()):
                    break
                line = self.process.stdout.readline().decode()
                if not line:
                    break
                if marker in line:
                    return line
        raise RuntimeError(f"server printed no {marker!r}")

    def _await_banner(self) -> int:
        line = self._await_line("serving on http://")
        return int(line.rsplit(":", 1)[1].split()[0])

    def reset_layers(self) -> None:
        """Zero a traced server's layer totals (see serve_traced.py)."""
        from layers import RESET_LINE

        self.process.send_signal(signal.SIGUSR1)
        self._await_line(RESET_LINE)

    def workers(self) -> list[int]:
        """Pool worker pids (children, minus multiprocessing's tracker)."""
        pids = []
        for pid in _children(self.process.pid):
            self._seen.add(pid)
            try:
                cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
            except OSError:
                continue
            if b"resource_tracker" not in cmdline:
                pids.append(pid)
        return pids

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its pool worker(s)."""
        pids = [self.process.pid, *self.workers()]
        return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL the group; reap all."""
        process = self.process
        if process.poll() is None:
            self._seen.update(_children(process.pid))
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        process.stdout.close()
        for pid in self._seen:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while any(_alive(pid) for pid in self._seen):
            if time.monotonic() > deadline:
                raise RuntimeError(f"server children {self._seen} survived")
            time.sleep(0.05)


# ----------------------------------------------------------------------
class Connection:
    """Minimal HTTP/1.1 keep-alive client for ``POST /optimize``.

    The benchmark's own, rather than ``repro.serving.client``, so that a
    change to the program's client cannot move the load generator.
    """

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def exchange(self, request: bytes) -> tuple[int, bytes]:
        self.writer.write(request)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def encode(method: str, path: str, payload: dict | None = None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


async def sequential(port: int, requests: list[bytes]) -> list[tuple[int, bytes]]:
    """Send ``requests`` one after another on one connection."""
    connection = await Connection.open(port)
    try:
        return [await connection.exchange(request) for request in requests]
    finally:
        await connection.close()


@dataclass
class LoadResult:
    """Per-request outcomes of one open-loop run, in send order."""

    latency_s: list[float] = field(default_factory=list)
    moment_s: list[float] = field(default_factory=list)
    lag_s: list[float] = field(default_factory=list)
    status: list[int] = field(default_factory=list)
    body: list[bytes] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Filled in by the caller: latencies at reference host speed and
    #: the median reference-kernel time (see hostspeed.py).
    scaled_s: list[float] = field(default_factory=list)
    kernel_ms: float = 0.0

    def after(self, count: int, rate: float) -> "LoadResult":
        """The run without its first ``count`` requests (the lead-in)."""
        return LoadResult(
            self.latency_s[count:], self.moment_s[count:], self.lag_s[count:],
            self.status[count:], self.body[count:], self.elapsed_s - count / rate,
        )


async def open_loop(
    port: int, requests: list[bytes], rate: float, connections: int, clock
) -> LoadResult:
    """Send ``requests[i]`` when due at ``i / rate`` s; time from due.

    A request waits for a free connection when all are busy; that wait
    counts in its latency. ``lag_s`` is the generator's own lateness:
    how long after ``max(due, previous send)`` it got round to sending.
    ``clock`` (a hostspeed.HostClock) takes one reference-kernel sample
    ``SAMPLE_LEAD_S`` before every send: in the idle gap when the server
    keeps up, alongside the requests in flight when the host stalls, so
    the samples track the host through its stalls.
    """
    loop = asyncio.get_running_loop()
    free: asyncio.Queue[Connection] = asyncio.Queue()
    opened = [await Connection.open(port) for _ in range(connections)]
    for connection in opened:
        free.put_nowait(connection)
    count = len(requests)
    out = LoadResult(
        latency_s=[0.0] * count, moment_s=[0.0] * count, lag_s=[0.0] * count,
        status=[0] * count, body=[b""] * count,
    )

    async def send(index: int, connection: Connection, due: float) -> None:
        try:
            status, body = await connection.exchange(requests[index])
        except (OSError, asyncio.IncompleteReadError, ValueError, IndexError):
            # Status 0 marks the request failed; carry on on a new connection.
            await connection.close()
            connection = await Connection.open(port)
            opened.append(connection)
        else:
            out.status[index] = status
            out.body[index] = body
        out.latency_s[index] = loop.time() - due
        out.moment_s[index] = (due + loop.time()) / 2
        free.put_nowait(connection)

    tasks = []
    start = loop.time() + 0.05
    previous_send = start
    try:
        for index in range(count):
            due = start + index / rate
            delay = due - SAMPLE_LEAD_S - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            clock.sample()
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            out.lag_s[index] = loop.time() - max(due, previous_send)
            connection = await free.get()
            previous_send = loop.time()
            tasks.append(loop.create_task(send(index, connection, due)))
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for connection in opened:
            await connection.close()
    out.elapsed_s = loop.time() - start
    return out


async def get_metrics(port: int) -> dict:
    """The server's ``GET /metrics`` JSON snapshot."""
    (status, body), = await sequential(port, [encode("GET", "/metrics")])
    return json.loads(body)["result"]
