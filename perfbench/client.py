"""Single-threaded loopback client for the stream server.

It runs in a process of its own, as a front end would, so that it does
not compete with the server's threads for one interpreter lock:

    python3 perfbench/client.py --port P --frames F.npz --out R.npz \
        --connections 2 --window 16 --seconds 20

``F.npz`` holds the int16 frames and the labels their replies must carry;
``R.npz`` receives the counts and the per-reply send times and latencies.

One thread drives every connection through a selector. Each frame sent
is remembered per connection in send order; the server answers frames in
order, so each 2-byte reply is matched to the oldest frame in flight on
its connection and checked against the label the benchmark computed
before the clock started. A wrong reply, a reply nobody asked for, and a
frame still unanswered when the drain times out each count as failed.

The load is a closed loop: each connection keeps ``window`` frames in
flight and sends the next frame as each reply arrives. Latency runs from
the send. The frames sent in the measured time are the measured ones; the
load stays on until the last of them is answered, so none waits in a
queue that is draining. ``close`` drains every reply in flight before
closing a socket.
"""

from __future__ import annotations

import argparse
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

PATH_QUANTIZED = 1
DRAIN_TIMEOUT_S = 10.0


@dataclass
class Frames:
    """Encoded frames plus the reply label each must get."""

    payloads: list[bytes]
    expected: np.ndarray  # reference label per frame
    truth: np.ndarray     # class the frame was synthesized as

    def save(self, path) -> None:
        frames_q = np.stack([np.frombuffer(p, "<i2") for p in self.payloads])
        np.savez(path, frames_q=frames_q, expected=self.expected, truth=self.truth)

    @classmethod
    def load(cls, path) -> "Frames":
        with np.load(path) as f:
            return cls([row.astype("<i2").tobytes() for row in f["frames_q"]],
                       f["expected"], f["truth"])


@dataclass
class Window:
    """What one measured stretch saw."""

    seconds: float = 0.0  # from the window's start to its last reply
    replies: int = 0
    true_labels: int = 0
    sent_s: list[float] = field(default_factory=list)  # send time from the window's start
    latency_s: list[float] = field(default_factory=list)


class _Conn:
    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.out = bytearray()
        self.inflight: deque = deque()  # (frame index, send time)
        self.rbuf = bytearray()
        self.open = True


class Client:
    def __init__(self, address, n_conns: int, frames: Frames):
        self.frames = frames
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # replies whose label differs from the expected one
        self._next = 0
        self._sel = selectors.DefaultSelector()
        self._conns = []
        for _ in range(n_conns):
            sock = socket.create_connection(address)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(sock)
            self._conns.append(conn)
            self._sel.register(sock, selectors.EVENT_READ, conn)
        self._window: Window | None = None
        self._window_span = (0.0, 0.0)
        self._refilling = False

    # -- sending and receiving -------------------------------------------

    def _send(self, conn: _Conn) -> None:
        k = self._next % len(self.frames.payloads)
        self._next += 1
        conn.out += self.frames.payloads[k]
        conn.inflight.append((k, time.perf_counter()))
        self.attempted += 1
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        if conn.out:
            try:
                sent = conn.sock.send(conn.out)
                del conn.out[:sent]
            except BlockingIOError:
                pass
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
        self._sel.modify(conn.sock, events, conn)

    def _receive(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        now = time.perf_counter()
        if not data:
            self._lose(conn)
            return
        conn.rbuf += data
        n = len(conn.rbuf) // 2
        for j in range(n):
            label, path = conn.rbuf[2 * j], conn.rbuf[2 * j + 1]
            if not conn.inflight:
                self.failed += 1  # a reply to no frame
                continue
            k, sent = conn.inflight.popleft()
            if label != self.frames.expected[k] or path != PATH_QUANTIZED:
                self.failed += 1
                self.wrong += int(label != self.frames.expected[k])
            self._record(k, label, sent, now)
            if self._refilling and conn.open:
                self._send(conn)
        del conn.rbuf[: 2 * n]

    def _record(self, k, label, sent, now) -> None:
        window = self._window
        start, end = self._window_span
        if window is None or not start <= sent < end:
            return
        window.replies += 1
        window.seconds = now - start
        window.true_labels += int(label == self.frames.truth[k])
        window.sent_s.append(sent - start)
        window.latency_s.append(now - sent)

    def _lose(self, conn: _Conn) -> None:
        """The server closed: every frame in flight there is missing."""
        self.failed += len(conn.inflight)
        conn.inflight.clear()
        conn.open = False
        self._sel.unregister(conn.sock)
        conn.sock.close()

    def _poll(self, timeout: float) -> None:
        for key, events in self._sel.select(timeout):
            conn = key.data
            if events & selectors.EVENT_READ:
                self._receive(conn)
            if conn.open and events & selectors.EVENT_WRITE:
                self._flush(conn)

    def _live(self) -> list[_Conn]:
        return [c for c in self._conns if c.open]

    # -- load --------------------------------------------------------------

    def burst(self, window: int, seconds: float) -> Window:
        """Closed loop: ``window`` frames in flight on every connection."""
        result = Window()
        start = time.perf_counter()
        end = start + seconds
        self._window = result
        self._window_span = (start, end)
        self._refilling = True
        for conn in self._live():
            for _ in range(window):
                self._send(conn)
        while time.perf_counter() < end and self._live():
            self._poll(0.05)
        # Replies arrive in send order, so a connection is done with the
        # measured frames once its oldest frame in flight was sent after them.
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while time.perf_counter() < deadline and any(
                c.inflight and c.inflight[0][1] < end for c in self._live()):
            self._poll(0.05)
        self._refilling = False
        self.drain()
        self._window = None
        return result

    def drain(self) -> None:
        """Wait for every reply in flight; what never comes is failed."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while any(c.inflight for c in self._live()):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            self._poll(min(remaining, 0.05))
        for conn in self._live():
            self.failed += len(conn.inflight)
            conn.inflight.clear()

    def close(self) -> None:
        self.drain()
        for conn in self._live():
            self._sel.unregister(conn.sock)
            conn.sock.close()
            conn.open = False
        self._sel.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop client for rfmc's stream server.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--frames", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--connections", type=int, required=True)
    parser.add_argument("--window", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    client = Client((args.host, args.port), args.connections, Frames.load(args.frames))
    window = client.burst(args.window, args.seconds)
    client.close()
    np.savez(
        args.out,
        attempted=client.attempted, failed=client.failed, wrong=client.wrong,
        seconds=window.seconds, replies=window.replies, true_labels=window.true_labels,
        sent_s=np.asarray(window.sent_s), latency_s=np.asarray(window.latency_s),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
