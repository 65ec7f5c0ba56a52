"""Pluggable message transports for the sweep service.

A **transport** turns an address into a coordinator-side
:class:`Listener` and worker/client-side :class:`Channel` objects. The
contract is deliberately tiny — line-delimited JSON messages over a
reliable, ordered byte stream — so a transport for another fabric
(TCP across nodes today via ``host:port`` addresses; anything
stream-shaped tomorrow) only has to implement four methods:

* ``Channel.send(message)`` — enqueue one JSON-serializable dict,
  atomically with respect to other senders on the same channel.
* ``Channel.recv(timeout)`` — the next message, ``None`` on timeout,
  :class:`ChannelClosed` once the peer is gone (after any buffered
  messages have been drained), :class:`MalformedFrame` for a line that
  is not one JSON object (the channel itself stays usable).
* ``Listener.accept(timeout)`` — the next inbound :class:`Channel`, or
  ``None``.
* ``Transport.connect(address)`` — dial a listener.

Two implementations ship in-tree:

:class:`InProcTransport`
    Queue-backed channels inside one process. Used by the test suite
    and by embedded coordinators; messages still round-trip through
    JSON so anything that works in-process works over a socket.

:class:`SocketTransport`
    ``AF_UNIX`` (addresses containing a path separator) or TCP
    (``host:port`` addresses) sockets carrying newline-delimited JSON.
    This is what ``repro serve`` / ``repro worker`` use; a TCP address
    already crosses machines, which is the door left open for
    multi-node sweeps.

Like the sweep journal, a byte stream torn mid-line by a crash is
tolerated: a partial trailing line at EOF is discarded, never parsed.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import threading
import time
from collections import deque
from typing import Dict, Optional

__all__ = ["ChannelClosed", "MalformedFrame", "Channel", "Listener",
           "Transport", "InProcTransport", "SocketTransport",
           "is_path_address"]


class ChannelClosed(ConnectionError):
    """The peer is gone: EOF on the stream or the channel was closed."""


class MalformedFrame(ValueError):
    """A received line is not one well-formed JSON object.

    The stream framing itself (newline-delimited) is intact, so only
    this frame's payload is garbage and the channel stays usable — the
    *policy* for a malformed frame (drop it, count it, quarantine the
    channel) is the receiver's call, which is why this is an exception
    out of :meth:`Channel.recv` rather than a silent skip.
    """

    def __init__(self, peer: str, text: str):
        preview = text if len(text) <= 80 else text[:77] + "..."
        super().__init__(f"{peer}: malformed frame {preview!r}")
        self.peer = peer
        self.text = text


class Channel:
    """One bidirectional, ordered JSON-message stream."""

    peer = "?"

    def send(self, message: Dict) -> None:
        raise NotImplementedError

    def send_text(self, text: str) -> None:
        """Send one raw line verbatim, bypassing JSON encoding.

        Exists so a chaos wrapper can put corrupted bytes on the wire;
        production senders always use :meth:`send`. ``text`` must not
        contain a newline (it would silently become two frames).
        """
        raise NotImplementedError

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict]:
        """Next message; ``None`` on timeout (``0`` polls without blocking).

        Raises :class:`ChannelClosed` once the peer is gone and every
        buffered message has been drained, and :class:`MalformedFrame`
        for a line that does not parse as one JSON object (the channel
        stays usable; only that frame is consumed).
        """
        raise NotImplementedError

    def poll(self) -> bool:
        """True if :meth:`recv` would return a message without blocking."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class Listener:
    """Coordinator side of a transport: accepts inbound channels."""

    address = "?"

    def accept(self, timeout: Optional[float] = None) -> Optional[Channel]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class Transport:
    """Factory for listeners and outbound channels."""

    scheme = "?"

    def listen(self, address: str) -> Listener:
        raise NotImplementedError

    def connect(self, address: str,
                timeout: Optional[float] = None) -> Channel:
        raise NotImplementedError


# ---------------------------------------------------------------- inproc
_EOF = object()


class _RawLine:
    """A verbatim line in an in-process inbox (see ``send_text``)."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _decode_line(peer: str, text: str) -> Dict:
    """Parse one frame; anything but a JSON object is malformed."""
    try:
        message = json.loads(text)
    except json.JSONDecodeError:
        raise MalformedFrame(peer, text) from None
    if not isinstance(message, dict):
        raise MalformedFrame(peer, text)
    return message


class _InProcChannel(Channel):
    def __init__(self, peer: str):
        self.peer = peer
        self._inbox: "queue.Queue" = queue.Queue()
        self._partner: Optional["_InProcChannel"] = None
        self._closed = False

    def send(self, message: Dict) -> None:
        if self._closed:
            raise ChannelClosed(f"{self.peer}: channel closed")
        partner = self._partner
        if partner is None or partner._closed:
            raise ChannelClosed(f"{self.peer}: peer closed")
        # Round-trip through JSON so in-process behaviour matches the
        # socket transport exactly (no shared mutable state, and a
        # non-serializable message fails here, not in production).
        partner._inbox.put(json.loads(json.dumps(message)))

    def send_text(self, text: str) -> None:
        if self._closed:
            raise ChannelClosed(f"{self.peer}: channel closed")
        partner = self._partner
        if partner is None or partner._closed:
            raise ChannelClosed(f"{self.peer}: peer closed")
        partner._inbox.put(_RawLine(text))

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict]:
        try:
            if timeout == 0:
                item = self._inbox.get_nowait()
            else:
                item = self._inbox.get(timeout=timeout)
        except queue.Empty:
            if self._closed:
                raise ChannelClosed(f"{self.peer}: channel closed") from None
            return None
        if item is _EOF:
            self._inbox.put(_EOF)   # keep raising for later callers
            raise ChannelClosed(f"{self.peer}: peer closed")
        if isinstance(item, _RawLine):
            return _decode_line(self.peer, item.text)
        return item

    def poll(self) -> bool:
        return not self._inbox.empty()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        partner = self._partner
        if partner is not None and not partner._closed:
            partner._inbox.put(_EOF)
        self._inbox.put(_EOF)


class _InProcListener(Listener):
    def __init__(self, address: str):
        self.address = address
        self._backlog: "queue.Queue" = queue.Queue()
        self.closed = False

    def accept(self, timeout: Optional[float] = None) -> Optional[Channel]:
        try:
            if timeout == 0:
                return self._backlog.get_nowait()
            return self._backlog.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        self.closed = True


class InProcTransport(Transport):
    """Queue-backed channels within one process (tests, embedding)."""

    scheme = "inproc"

    def __init__(self):
        self._listeners: Dict[str, _InProcListener] = {}
        self._lock = threading.Lock()

    def listen(self, address: str) -> Listener:
        with self._lock:
            existing = self._listeners.get(address)
            if existing is not None and not existing.closed:
                raise OSError(f"inproc address {address!r} already bound")
            listener = _InProcListener(address)
            self._listeners[address] = listener
        return listener

    def connect(self, address: str,
                timeout: Optional[float] = None) -> Channel:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                listener = self._listeners.get(address)
            if listener is not None and not listener.closed:
                break
            if deadline is None or time.monotonic() >= deadline:
                raise ConnectionRefusedError(
                    f"no inproc listener at {address!r}")
            time.sleep(0.01)
        near = _InProcChannel(f"inproc:{address}")
        far = _InProcChannel(f"inproc:{address}#accepted")
        near._partner, far._partner = far, near
        listener._backlog.put(far)
        return near


# ---------------------------------------------------------------- socket
def is_path_address(address: str) -> bool:
    """Path-looking addresses select ``AF_UNIX``; ``host:port`` TCP."""
    if os.sep in address or address.startswith("."):
        return True
    host, sep, port = address.rpartition(":")
    return not (sep and host and port.isdigit())


def _parse_tcp(address: str):
    host, _, port = address.rpartition(":")
    return host, int(port)


class _SocketChannel(Channel):
    def __init__(self, sock: socket.socket, peer: str):
        self._sock = sock
        self.peer = peer
        self._buffer = b""
        self._lines: deque = deque()
        self._send_lock = threading.Lock()
        self._eof = False

    def send(self, message: Dict) -> None:
        self._send_bytes(
            (json.dumps(message) + "\n").encode("utf-8"))

    def send_text(self, text: str) -> None:
        self._send_bytes((text + "\n").encode("utf-8", "replace"))

    def _send_bytes(self, data: bytes) -> None:
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as exc:
            raise ChannelClosed(f"{self.peer}: {exc}") from exc

    def _fill(self, timeout: Optional[float]) -> None:
        """Pull available bytes into the line buffer (one recv call)."""
        if self._eof:
            raise ChannelClosed(f"{self.peer}: connection closed")
        try:
            self._sock.settimeout(timeout)
            chunk = self._sock.recv(65536)
        except (socket.timeout, BlockingIOError):
            return
        except OSError as exc:
            self._eof = True
            raise ChannelClosed(f"{self.peer}: {exc}") from exc
        if not chunk:
            # A partial trailing line at EOF is a write torn by the
            # peer's death — discarded, exactly like a torn journal tail.
            self._eof = True
            raise ChannelClosed(f"{self.peer}: connection closed")
        self._buffer += chunk
        if b"\n" in self._buffer:
            *complete, self._buffer = self._buffer.split(b"\n")
            self._lines.extend(complete)

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict]:
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            if self._lines:
                return _decode_line(
                    self.peer,
                    self._lines.popleft().decode("utf-8", "replace"))
            if deadline is None:
                self._fill(None)
                continue
            remaining = deadline - time.monotonic()
            self._fill(max(0.0, remaining))
            if not self._lines and time.monotonic() >= deadline:
                return None

    def poll(self) -> bool:
        if self._lines:
            return True
        try:
            self._fill(0.0)
        except ChannelClosed:
            return True    # recv() will raise promptly
        return bool(self._lines)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass


class _SocketListener(Listener):
    def __init__(self, sock: socket.socket, address: str,
                 unlink: Optional[str] = None):
        self._sock = sock
        self.address = address
        self._unlink = unlink

    def accept(self, timeout: Optional[float] = None) -> Optional[Channel]:
        try:
            self._sock.settimeout(timeout)
            conn, _ = self._sock.accept()
        except (socket.timeout, BlockingIOError):
            return None
        except OSError as exc:
            raise ChannelClosed(f"{self.address}: {exc}") from exc
        conn.setblocking(True)
        return _SocketChannel(conn, f"{self.address}#accepted")

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass
        if self._unlink:
            try:
                os.unlink(self._unlink)
            except OSError:
                pass


class SocketTransport(Transport):
    """JSON lines over ``AF_UNIX`` or TCP sockets (``repro serve``)."""

    scheme = "socket"

    def listen(self, address: str) -> Listener:
        if is_path_address(address):
            directory = os.path.dirname(address)
            if directory:
                os.makedirs(directory, exist_ok=True)
            try:
                os.unlink(address)    # a stale socket from a dead server
            except OSError:
                pass
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(address)
            sock.listen(64)
            return _SocketListener(sock, address, unlink=address)
        host, port = _parse_tcp(address)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(64)
        bound = sock.getsockname()
        return _SocketListener(sock, f"{bound[0]}:{bound[1]}")

    def connect(self, address: str,
                timeout: Optional[float] = None) -> Channel:
        """Dial; retries until ``timeout`` while the listener comes up."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if is_path_address(address):
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.connect(address)
                else:
                    sock = socket.create_connection(_parse_tcp(address),
                                                    timeout=5.0)
                    sock.settimeout(None)
                return _SocketChannel(sock, address)
            except (ConnectionRefusedError, FileNotFoundError, OSError):
                if deadline is None or time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
