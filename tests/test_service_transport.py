"""Transport contract tests: in-process and socket channels.

Both transports must behave identically at the message level — the
suite runs the shared contract against each, then covers the quirks a
byte stream adds (framing, torn tails, address parsing).
"""

import json
import socket
import threading
import time

import pytest

from repro.service.transport import (
    ChannelClosed,
    InProcTransport,
    SocketTransport,
    is_path_address,
    wait_readable,
)


def _inproc_pair():
    transport = InProcTransport()
    listener = transport.listen("addr")
    near = transport.connect("addr")
    far = listener.accept(1.0)
    return near, far, listener


def _socket_pair(tmp_path):
    transport = SocketTransport()
    listener = transport.listen(str(tmp_path / "s.sock"))
    near = transport.connect(listener.address, timeout=5.0)
    far = listener.accept(5.0)
    return near, far, listener


@pytest.fixture(params=["inproc", "socket"])
def pair(request, tmp_path):
    if request.param == "inproc":
        near, far, listener = _inproc_pair()
    else:
        near, far, listener = _socket_pair(tmp_path)
    yield near, far
    near.close()
    far.close()
    listener.close()


# ----------------------------------------------------------- shared contract
class TestChannelContract:
    def test_round_trip_both_directions(self, pair):
        near, far = pair
        near.send({"kind": "hello", "n": 1})
        assert far.recv(1.0) == {"kind": "hello", "n": 1}
        far.send({"kind": "reply", "ok": True})
        assert near.recv(1.0) == {"kind": "reply", "ok": True}

    def test_messages_stay_ordered(self, pair):
        near, far = pair
        for n in range(50):
            near.send({"n": n})
        assert [far.recv(1.0)["n"] for _ in range(50)] == list(range(50))

    def test_recv_timeout_returns_none(self, pair):
        near, _ = pair
        assert near.recv(0.05) is None

    def test_poll(self, pair):
        import time
        near, far = pair
        assert far.poll() is False
        near.send({"x": 1})
        deadline = time.monotonic() + 2.0
        while not far.poll() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert far.poll() is True
        assert far.recv(1.0) == {"x": 1}

    def test_json_normalization(self, pair):
        # Tuples and int keys must not survive transit: whatever works
        # in-process must work over a byte stream.
        near, far = pair
        near.send({"sizes": (16, 32)})
        assert far.recv(1.0) == {"sizes": [16, 32]}

    def test_key_order_survives_transit(self, pair):
        # A result's busy buckets arrive in the order they were
        # recorded: Figure 3's CSV rows follow it.
        near, far = pair
        near.send({"busy": {"sort": 1.0, "append": 2.0}})
        assert list(far.recv(1.0)["busy"]) == ["sort", "append"]

    def test_close_raises_channel_closed_on_peer(self, pair):
        near, far = pair
        near.send({"last": True})
        near.close()
        # Buffered messages drain first; then the EOF surfaces.
        assert far.recv(1.0) == {"last": True}
        with pytest.raises(ChannelClosed):
            while True:
                if far.recv(1.0) is None:
                    break

    def test_send_after_peer_close_raises(self, pair):
        near, far = pair
        far.close()
        with pytest.raises(ChannelClosed):
            for _ in range(100):   # a socket needs a round trip to notice
                near.send({"x": 1})


# ---------------------------------------------------------------- readiness
class TestWaitReadable:
    @pytest.mark.parametrize("kind", ["inproc", "socket"])
    def test_wakes_on_a_frame_and_on_a_dial(self, kind, tmp_path):
        if kind == "inproc":
            transport, address = InProcTransport(), "addr"
        else:
            transport, address = SocketTransport(), str(tmp_path / "s.sock")
        listener = transport.listen(address)
        near = transport.connect(listener.address, timeout=5.0)
        far = listener.accept(5.0)
        dialer = None
        try:
            began = time.monotonic()
            wait_readable(listener, [far], 0.2)
            assert time.monotonic() - began >= 0.15     # nothing came
            near.send({"x": 1})
            began = time.monotonic()
            wait_readable(listener, [far], 10.0)
            assert time.monotonic() - began < 5.0
            assert far.recv(0) == {"x": 1}
            began = time.monotonic()
            wait_readable(listener, [far], 0.2)
            assert time.monotonic() - began >= 0.15     # frame taken
            dialer = transport.connect(listener.address, timeout=5.0)
            began = time.monotonic()
            wait_readable(listener, [far], 10.0)
            assert time.monotonic() - began < 5.0
            accepted = listener.accept(0)
            assert accepted is not None
            accepted.close()
        finally:
            for channel in (near, far, dialer):
                if channel is not None:
                    channel.close()
            listener.close()

    def test_closed_endpoint_sleeps_instead_of_spinning(self, tmp_path):
        listener = SocketTransport().listen(str(tmp_path / "s.sock"))
        listener.close()
        began = time.monotonic()
        wait_readable(listener, [], 0.1)
        assert time.monotonic() - began >= 0.08


# ------------------------------------------------------------------- inproc
class TestInProc:
    def test_double_bind_rejected(self):
        transport = InProcTransport()
        transport.listen("addr")
        with pytest.raises(OSError, match="already bound"):
            transport.listen("addr")

    def test_connect_without_listener_refused(self):
        transport = InProcTransport()
        with pytest.raises(ConnectionRefusedError):
            transport.connect("nowhere", timeout=0)

    def test_accept_timeout_returns_none(self):
        transport = InProcTransport()
        listener = transport.listen("addr")
        assert listener.accept(0.05) is None


# ------------------------------------------------------------------- socket
class TestSocketTransport:
    def test_address_classification(self):
        assert is_path_address("/tmp/x.sock")
        assert is_path_address("./x.sock")
        assert is_path_address("state/coordinator.sock")
        assert not is_path_address("127.0.0.1:8000")
        assert not is_path_address("localhost:9999")
        assert is_path_address("just-a-name")      # no port -> unix path

    def test_tcp_listen_resolves_port_zero(self):
        transport = SocketTransport()
        listener = transport.listen("127.0.0.1:0")
        try:
            host, _, port = listener.address.rpartition(":")
            assert host == "127.0.0.1" and int(port) > 0
            near = transport.connect(listener.address, timeout=5.0)
            far = listener.accept(5.0)
            near.send({"over": "tcp"})
            assert far.recv(1.0) == {"over": "tcp"}
            near.close()
            far.close()
        finally:
            listener.close()

    def test_stale_unix_socket_is_replaced(self, tmp_path):
        path = str(tmp_path / "s.sock")
        SocketTransport().listen(path).close()
        # A dead server leaves no file (close unlinks); simulate a crash
        # that didn't clean up, then rebind.
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(path)
        sock.close()
        listener = SocketTransport().listen(path)
        listener.close()

    def test_listener_close_unlinks_socket(self, tmp_path):
        path = tmp_path / "s.sock"
        listener = SocketTransport().listen(str(path))
        assert path.exists()
        listener.close()
        assert not path.exists()

    def test_torn_trailing_line_discarded(self, tmp_path):
        """A peer killed mid-write must not poison the stream."""
        transport = SocketTransport()
        listener = transport.listen(str(tmp_path / "s.sock"))
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(str(tmp_path / "s.sock"))
        far = listener.accept(5.0)
        whole = json.dumps({"kind": "result", "n": 1}) + "\n"
        raw.sendall(whole.encode() + b'{"kind": "result", "n": 2, "tr')
        raw.close()   # SIGKILL mid-write: torn final line, then EOF
        assert far.recv(1.0) == {"kind": "result", "n": 1}
        with pytest.raises(ChannelClosed):
            while far.recv(1.0) is not None:
                pass
        far.close()
        listener.close()

    def test_concurrent_senders_do_not_interleave(self, tmp_path):
        near, far, listener = _socket_pair(tmp_path)
        try:
            def blast(tag):
                for n in range(100):
                    near.send({"tag": tag, "n": n, "pad": "x" * 512})
            threads = [threading.Thread(target=blast, args=(t,))
                       for t in range(4)]
            for thread in threads:
                thread.start()
            # Drain while the senders run: the socket buffer is smaller
            # than the 400 messages, so joining first would deadlock.
            seen = [far.recv(5.0) for _ in range(400)]
            for thread in threads:
                thread.join(5.0)
            assert all(message is not None for message in seen)
            per_tag = {}
            for message in seen:
                per_tag.setdefault(message["tag"], []).append(message["n"])
            assert all(sorted(ns) == list(range(100))
                       for ns in per_tag.values())
        finally:
            near.close()
            far.close()
            listener.close()
