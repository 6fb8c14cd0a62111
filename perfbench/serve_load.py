"""Open-loop client of ``repro serve`` (standard library only).

Requests are due at fixed intervals of ``1 / rate``; each is sent when
due, whether or not earlier ones were answered, over at most two
connections.  A request's latency runs from its due time to the arrival
of its response, so a stall in the server is charged to every request
that waited behind it; how late the generator itself sent is recorded
separately.  The sender is a thread sleeping with ``time.sleep`` (sub-
millisecond wake-ups) and each connection has a reader thread.
"""

from __future__ import annotations

import json
import socket
import threading
import time


class Client:
    """``n`` newline-JSON connections with a shared response table."""

    def __init__(self, host: str, port: int, n: int = 2) -> None:
        self.socks = []
        self.received: dict[int, tuple[float, dict, int]] = {}
        self._cond = threading.Condition()
        self._readers = []
        for _ in range(n):
            sock = socket.create_connection((host, port), timeout=30)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
            reader = threading.Thread(target=self._read, args=(sock,), daemon=True)
            reader.start()
            self._readers.append(reader)

    def _read(self, sock: socket.socket) -> None:
        with sock.makefile("rb") as stream:
            for line in stream:
                t = time.perf_counter()
                doc = json.loads(line)
                with self._cond:
                    self.received[int(doc["id"])] = (t, doc, len(line))
                    self._cond.notify_all()

    def send(self, line: bytes, conn: int = 0) -> None:
        self.socks[conn % len(self.socks)].sendall(line)

    def wait(self, ids, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        with self._cond:
            for rid in ids:
                while rid not in self.received:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise TimeoutError(f"no response to request {rid}")
                    self._cond.wait(left)

    def close(self) -> None:
        for sock in self.socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for reader in self._readers:
            reader.join(timeout=10)


def _line(doc: dict, rid: int) -> bytes:
    return (json.dumps(dict(doc, id=rid)) + "\n").encode()


def pipelined(client: Client, docs: list[dict], first_id: int) -> list[dict]:
    """Send every document at once on the first connection; await all."""
    ids = range(first_id, first_id + len(docs))
    client.send(b"".join(_line(doc, rid) for doc, rid in zip(docs, ids)))
    client.wait(ids)
    return [client.received[rid][1] for rid in ids]


def open_loop(client: Client, docs: list[dict], rate: float, first_id: int) -> dict:
    """Offer ``docs`` at ``rate`` per second; per-request timings.

    Returns, in request order: due times (``time.perf_counter`` clock),
    latency from the due time, how late each request was sent, the
    response documents and their sizes in bytes, and ``span_s`` from the
    first due time to the last response.
    """
    ids = range(first_id, first_id + len(docs))
    lines = [_line(doc, rid) for doc, rid in zip(docs, ids)]
    interval = 1.0 / rate
    start = time.perf_counter() + 0.02
    lag = []
    for i, line in enumerate(lines):
        due = start + i * interval
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lag.append(max(0.0, time.perf_counter() - due))
        client.send(line, i)
    client.wait(ids)
    got = [client.received[rid] for rid in ids]
    due = [start + i * interval for i in range(len(lines))]
    return {
        "due_s": due,
        "latencies_s": [t - d for d, (t, _, _) in zip(due, got)],
        "lag_s": lag,
        "responses": [doc for _, doc, _ in got],
        "sizes": [size for _, _, size in got],
        "span_s": max(t for t, _, _ in got) - start,
    }
