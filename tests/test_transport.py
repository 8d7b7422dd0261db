"""The default HTTP transport against a loopback HTTP/1.1 server that counts
the connections it accepts: reuse, reconnects, resets and timeouts."""

import http.server
import json
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest

from omnieval.backends import GenerationOptions, HttpBackend
from omnieval.backends.http import _keepalive_transport, _thread_connections
from omnieval.errors import RateLimited, TransportError
from omnieval.prompts import PromptBundle, Turn

PING = PromptBundle(system_text=None, turns=(Turn("user", "ping"),))
SRC = Path(__file__).resolve().parent.parent / "src"


class _CountingHandler(http.server.BaseHTTPRequestHandler):
    """Replies "pong" over HTTP/1.1 keep-alive unless the server's ``mode``
    says otherwise:

    - ``drop``: reply, then close the connection without announcing it;
    - ``reset``: read the request and reset the connection without a reply;
    - ``close``: reply with ``Connection: close`` and close;
    - ``slow``: wait a second before replying;
    - ``chunked``: frame the body in two chunks;
    - ``eof``: send no Content-Length and close after the body;
    - ``http10``: reply as HTTP/1.0 without keep-alive, and close;
    - ``interim``: send ``100 Continue`` before the reply;
    - ``429``: reply 429 with ``Retry-After: 3``;
    - ``reset_after_status``: send the status line, then reset the connection;
    - ``204``: reply 204 with no body, and keep the connection;
    - each other key of ``_RAW_REPLIES``: send that malformed reply, and close.
    """

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.accepted += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.closed += 1

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.handled += 1
        mode = self.server.mode
        if mode == "reset_after_status":
            self.wfile.write(b"HTTP/1.1 200 OK\r\n")
            time.sleep(0.2)  # the client has read the status line
        if mode in ("reset", "reset_after_status"):
            self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            self.close_connection = True
            return
        if mode == "slow":
            time.sleep(1.0)
        if mode in _RAW_REPLIES:
            self.close_connection = mode != "204"
            try:
                self.wfile.write(_RAW_REPLIES[mode][0])
            except (BrokenPipeError, ConnectionResetError):  # a client that stopped reading
                pass
            return
        body = json.dumps({
            "choices": [{"message": {"content": "pong"}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 1, "completion_tokens": 1},
        }).encode()
        if mode in ("chunked", "eof", "http10"):
            self.close_connection = mode != "chunked"
            self.wfile.write(_framed(mode, body))
            return
        if mode == "interim":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        if mode == "429":
            self.send_response(429)
            self.send_header("Retry-After", "3")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if mode == "close":
            self.send_header("Connection", "close")
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # a client that timed out
            self.close_connection = True
        if mode == "drop":
            self.close_connection = True

    def log_message(self, *args):
        pass


def _framed(mode, body):
    if mode == "chunked":
        half = len(body) // 2
        chunks = b"".join(b"%x\r\n%s\r\n" % (len(c), c) for c in (body[:half], body[half:]))
        return b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunks + b"0\r\n\r\n"
    if mode == "eof":
        return b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + body
    return b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


# mode -> (the reply, the client's complaint about it, or None for a good reply)
_RAW_REPLIES = {
    "204": (b"HTTP/1.1 204 No Content\r\n\r\n", None),
    "long_line": (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70000 + b"\r\nContent-Length: 0\r\n\r\n",
                  "reply line too long"),
    "bad_status": (b"HTTP/1.1 2OO OK\r\nContent-Length: 0\r\n\r\n", "malformed status line"),
    "many_headers": (b"HTTP/1.1 200 OK\r\n" + b"X-Header: v\r\n" * 101 + b"\r\n",
                     "reply has more than 100 header lines"),
    "short_body": (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}", "reply body ended after 2 of 100 bytes"),
    "negative_length": (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "negative Content-Length"),
    "negative_chunk": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\n", "negative chunk size"),
    "chunk_without_crlf": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}XY0\r\n\r\n",
                           "chunk not followed by CRLF"),
}


@pytest.fixture
def server():
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
    srv.lock = threading.Lock()
    srv.accepted = srv.closed = srv.handled = 0
    srv.mode = "ok"
    srv.url = f"http://127.0.0.1:{srv.server_address[1]}"
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


def _in_thread(fn):
    """Run ``fn`` in a thread of its own, so the connections it opens are
    closed when it ends; re-raise what it raised."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - handed back to the caller
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _ping(url, timeout_s=5.0):
    return HttpBackend(url, "m", timeout_s=timeout_s).generate(PING, GenerationOptions()).text


class TestKeepAliveTransport:
    def test_sequential_requests_share_one_connection(self, server):
        texts = _in_thread(lambda: [_ping(server.url) for _ in range(20)])
        assert texts == ["pong"] * 20
        assert server.handled == 20
        assert server.accepted == 1

    def test_connection_closes_when_thread_ends(self, server):
        _in_thread(lambda: _ping(server.url))
        _wait_for(lambda: server.closed == 1)

    def test_threads_do_not_share_connections(self, server):
        _in_thread(lambda: _ping(server.url))
        _in_thread(lambda: _ping(server.url))
        assert server.accepted == 2

    @pytest.mark.parametrize("mode, kept", [
        ("ok", 1), ("close", 0), ("chunked", 1), ("eof", 0), ("http10", 0), ("interim", 1),
    ])
    def test_connection_is_kept_unless_reply_says_close(self, server, mode, kept):
        server.mode = mode
        assert _in_thread(lambda: (_ping(server.url), len(_thread_connections()))) == ("pong", kept)

    def test_rate_limit_reply_carries_retry_after(self, server):
        def run():
            server.mode = "429"
            with pytest.raises(RateLimited) as err:
                _ping(server.url)
            server.mode = "ok"
            return err.value.retry_after_s, _ping(server.url)

        assert _in_thread(run) == (3.0, "pong")
        assert server.accepted == 1  # the 429 reply left the connection usable

    def test_reconnects_once_after_server_closed_idle_connection(self, server):
        def run():
            server.mode = "drop"
            first = _ping(server.url)
            _wait_for(lambda: server.closed == 1)  # the idle connection is gone
            server.mode = "ok"
            return first, _ping(server.url)

        assert _in_thread(run) == ("pong", "pong")
        assert server.accepted == 2
        assert server.handled == 2

    @pytest.mark.parametrize("error", [ConnectionResetError, BrokenPipeError])
    def test_reused_connection_that_fails_the_send_is_resent_on_a_new_one(self, server, error):
        def run():
            first = _ping(server.url)
            (conn,) = _thread_connections().values()
            conn.sock = mock.Mock(wraps=conn.sock, **{"sendall.side_effect": error("peer gone")})
            return first, _ping(server.url), conn.sock.sendall.call_count

        assert _in_thread(run) == ("pong", "pong", 1)
        assert server.handled == 2  # the failed send reached no server
        assert server.accepted == 2

    def test_reset_on_fresh_connection_is_not_resent(self, server):
        server.mode = "reset"
        with pytest.raises(TransportError):
            _in_thread(lambda: _ping(server.url))
        assert server.handled == 1
        assert server.accepted == 1

    def test_reset_after_reply_started_is_not_resent(self, server):
        def run():
            first = _ping(server.url)
            server.mode = "reset_after_status"
            with pytest.raises(TransportError):
                _ping(server.url)  # on the kept-alive connection
            return first

        assert _in_thread(run) == "pong"
        assert server.handled == 2
        assert server.accepted == 1

    def test_timeout_is_transport_error_and_drops_the_connection(self, server):
        def run():
            server.mode = "slow"
            with pytest.raises(TransportError):
                _ping(server.url, timeout_s=0.3)
            server.mode = "ok"
            return _ping(server.url, timeout_s=0.3)

        # a new connection, so the late reply is never read as this one's
        assert _in_thread(run) == "pong"
        assert server.accepted == 2

    @pytest.mark.parametrize("mode", [mode for mode, (_, problem) in _RAW_REPLIES.items() if problem])
    def test_malformed_reply_is_one_transport_error_and_drops_the_connection(self, server, mode):
        def run():
            first = _ping(server.url)
            server.mode = mode
            with pytest.raises(TransportError, match=f"failed: {_RAW_REPLIES[mode][1]}$"):
                _ping(server.url)  # on the kept-alive connection
            kept = len(_thread_connections())
            server.mode = "ok"
            return first, kept, _ping(server.url)

        assert _in_thread(run) == ("pong", 0, "pong")
        assert server.handled == 3  # the failed request was sent once
        assert server.accepted == 2  # and its connection was not used again

    def test_204_reply_has_no_body_and_keeps_the_connection(self, server):
        def run():
            server.mode = "204"
            status, _, text = _keepalive_transport(server.url, {}, {}, 5.0)
            kept = len(_thread_connections())
            server.mode = "ok"
            return status, text, kept, _ping(server.url)

        assert _in_thread(run) == (204, "", 1, "pong")
        assert server.accepted == 1


def test_cli_import_loads_no_third_party_module():
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import omnieval.cli\n"
        "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(tops - set(sys.stdlib_module_names) - {'omnieval'})))\n"
        "print(json.dumps([m for m in ('requests', 'urllib3', 'certifi') if m in sys.modules]))\n"
    )
    # -S: .pth files of the installed site packages may import modules of
    # their own at start-up, before omnieval is imported
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC)},
    )
    third_party, http_libs = (json.loads(line) for line in proc.stdout.splitlines())
    assert third_party == []
    assert http_libs == []
