"""TCP stream classifier: raw int16 I/Q frames in, 2-byte verdicts out.

Wire format: raw frames as ``rfmc.model`` defines them (3600 bytes of
little-endian int16 in Q2.13 each, whichever model the server runs), cut
into frames by one ``model.FrameReader`` per connection. Each complete
frame is answered with two bytes: label id, then path id (0=float,
1=quantized), in the order the frames arrived on that connection. A
partial frame waits in its reader until complete; a connection that
closes mid-frame is logged and dropped without disturbing other
connections.

One thread runs one ``selectors`` loop over the listener and every
connection, one batch per select round: the loop does one ``recv`` on
each connection the round finds readable, classifies the complete frames
of all of them in one batched call, and queues each connection's replies,
in its frames' arrival order, as one write. Only then does it send and
update the selector for each connection. Sockets are non-blocking with
``TCP_NODELAY`` set, so a reply leaves as soon as it is written. Replies
a client has not read wait in a per-connection buffer; once that holds
``MAX_PENDING_REPLY_BYTES`` the connection is not read until it drains,
so a client that never reads cannot stall the loop or grow the buffer.
``rfmc.model`` runs a round's batch in slices of ``model.LOGITS_SLICE``
frames, so its working memory stays bounded however many connections
are ready.

The loop holds numpy's BLAS at one thread (``blas.one_thread``) for its
whole life, whichever model it runs, so every classification runs on the
loop thread and no OpenBLAS worker spins beside it, taking the CPU that a
client or front end on the same host needs. A round's batch is small (16
to 32 frames under ``serve_burst``'s load), and a second BLAS thread made
its layer-0 product only about 12% faster. Over 20 alternating 45-s
``serve_burst`` pairs on a 2-CPU host (``BENCH_27.json``), one thread
lowered ``p99_ms`` in every pair, median 1.35 to 1.17 ms; ``p50_ms`` rose
8% (0.54 to 0.58 ms) and ``frames_per_s`` moved -1%. The integer engine
is exact at any thread count, so quantized replies do not depend on it.
Float replies are argmaxes of float64 logits rounded at one thread; they
equal the labels ``rfmc classify --raw`` prints at the library's thread
count, and only an exact float tie (two logits equal to within float64
rounding) can tell the two apart.

A loop that fails (``MemoryError`` in a batch, say) closes the listener
and every connection, restores the BLAS thread count and ends. Its
exception is not lost in the loop thread: ``stop`` raises it, and so does
``serve_forever``, which waits no longer than the loop runs.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading

import numpy as np

from . import blas, model

logger = logging.getLogger(__name__)

PATH_FLOAT = 0
PATH_QUANTIZED = 1

RECV_BYTES = 65536
# Unsent replies past which a connection is no longer read.
MAX_PENDING_REPLY_BYTES = 65536
# How often the loop checks for stop() while idle.
POLL_S = 0.05


def make_raw_classifier(net) -> tuple:
    """(int16 frames (n, 1800) -> labels (n,)) callable plus the reply path
    byte. The callable, the argmax of ``model.raw_logits``, is also how
    ``rfmc eval`` and ``train`` label a dataset's frames."""

    def classify_raw(frames_q: np.ndarray) -> np.ndarray:
        return np.argmax(model.raw_logits(net, frames_q), axis=1)

    return classify_raw, {"float": PATH_FLOAT, "quantized": PATH_QUANTIZED}[model.path(net)]


class _Connection:
    """Per-connection state."""

    __slots__ = ("addr", "reader", "outbox", "eof")

    def __init__(self, addr) -> None:
        self.addr = addr
        self.reader = model.FrameReader()  # holds the frame not yet complete
        self.outbox = bytearray()          # replies the socket has not taken yet
        self.eof = False                   # the client finished sending


class StreamServer:
    """Single-threaded TCP server: one selector loop, one batch per select round.

    A network that does not map 1800 inputs to 7 classes raises
    ``ValueError`` (``model.check_shape``) here, before anything binds.
    """

    def __init__(self, net, host: str = "127.0.0.1", port: int = 0):
        model.check_shape(net)
        self._classify, self.path_byte = make_raw_classifier(net)
        self._host = host
        self._port = port
        self._listener: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._failure: Exception | None = None  # what ended the loop without stop()

    @property
    def address(self) -> tuple[str, int]:
        """Where ``start`` bound the listener; still known once the loop has
        closed it."""
        assert self._address is not None, "server not started"
        return self._address

    def start(self) -> None:
        self._listener = socket.create_server((self._host, self._port))
        self._listener.setblocking(False)
        self._address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        logger.info("listening on %s:%d", *self.address)

    def _loop(self) -> None:
        """Owns the listener and every connection, at one BLAS thread; closes
        them all on exit and keeps a failure for ``stop`` to raise."""
        try:
            with blas.one_thread(), selectors.DefaultSelector() as sel:
                sel.register(self._listener, selectors.EVENT_READ)
                try:
                    while not self._stopping.is_set():
                        self._round(sel, sel.select(POLL_S))
                finally:
                    for key in list(sel.get_map().values()):
                        key.fileobj.close()
        except Exception as exc:
            self._failure = exc

    def _round(self, sel: selectors.BaseSelector, ready) -> None:
        """Read every ready connection, classify all their frames in one batch, then write."""
        live, batch = [], []
        for key, events in ready:
            if key.data is None:
                self._accept(sel)
                continue
            conn, state = key.fileobj, key.data
            if events & selectors.EVENT_READ:
                try:
                    frames = self._receive(conn, state)
                except BlockingIOError:
                    frames = None
                except OSError as exc:
                    self._drop(sel, conn, state, exc)
                    continue
                if frames is not None:
                    batch.append((state, frames))
            live.append((conn, state))
        if batch:
            self._reply(batch)
        for conn, state in live:
            self._send(sel, conn, state)

    def _reply(self, batch: list[tuple[_Connection, np.ndarray]]) -> None:
        """Classify every connection's frames together; queue each its own replies."""
        frames = np.concatenate([frames for _, frames in batch])
        replies = np.empty((len(frames), 2), np.uint8)
        replies[:, 0] = self._classify(frames)
        replies[:, 1] = self.path_byte
        blob = replies.tobytes()
        start = 0
        for state, frames in batch:
            end = start + 2 * len(frames)
            state.outbox += blob[start:end]
            start = end

    def _accept(self, sel: selectors.BaseSelector) -> None:
        try:
            conn, addr = self._listener.accept()
        except BlockingIOError:
            return
        except OSError as exc:
            logger.warning("accept failed: %s", exc)
            return
        conn.setblocking(False)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sel.register(conn, selectors.EVENT_READ, _Connection(addr))

    def _send(self, sel, conn: socket.socket, state: _Connection) -> None:
        """Send what the socket takes, then close or re-register the connection."""
        try:
            if state.outbox:
                del state.outbox[: conn.send(state.outbox)]
        except BlockingIOError:
            pass
        except OSError as exc:
            self._drop(sel, conn, state, exc)
            return
        if state.eof and not state.outbox:
            self._close(sel, conn)
            return
        wanted = (
            selectors.EVENT_READ
            if not state.eof and len(state.outbox) < MAX_PENDING_REPLY_BYTES
            else 0
        ) | (selectors.EVENT_WRITE if state.outbox else 0)
        if wanted != sel.get_key(conn).events:
            sel.modify(conn, wanted, state)

    def _receive(self, conn: socket.socket, state: _Connection) -> np.ndarray | None:
        """One recv; the complete frames it completes as (n, 1800) int16, or None."""
        data = conn.recv(RECV_BYTES)
        if not data:
            state.eof = True
            if state.reader.held:
                logger.warning(
                    "%s closed mid-frame: %d residual bytes dropped",
                    state.addr, len(state.reader.held),
                )
            return None
        frames_q = state.reader.feed(data)
        return frames_q if len(frames_q) else None

    def _drop(self, sel, conn: socket.socket, state: _Connection, exc: OSError) -> None:
        """Log why a connection failed and close it."""
        logger.warning("%s dropped: %s", state.addr, exc)
        self._close(sel, conn)

    @staticmethod
    def _close(sel: selectors.BaseSelector, conn: socket.socket) -> None:
        sel.unregister(conn)
        conn.close()

    def stop(self) -> None:
        """Close the listener and every connection, and join the loop thread.
        If the loop had failed, raise its exception (once)."""
        self._stopping.set()
        if self._thread is not None:
            self._thread.join()
        failure, self._failure = self._failure, None
        if failure is not None:
            raise failure

    def serve_forever(self) -> None:
        """Block until interrupted, stopped or the loop fails, then stop; call
        after ``start``. A failed loop's exception is raised here."""
        try:
            while self._thread.is_alive():
                self._thread.join(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()
