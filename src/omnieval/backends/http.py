"""HTTP inference backend speaking the OpenAI-compatible wire protocol:
``POST /v1/chat/completions`` for generation and ``POST /v1/completions``
with echoed logprobs for loglikelihood scoring.

Request construction and reply parsing are pure functions so the wire format
can be pinned by golden tests without a server.
"""

from __future__ import annotations

import base64
import json
import math
import mimetypes
import os
import re
import socket
import threading
import time
from pathlib import Path
from urllib.parse import SplitResult, urlsplit

from ..errors import (
    AttachmentError,
    BackendRefused,
    ConfigError,
    MalformedReply,
    RateLimited,
    TransportError,
)
from ..prompts import PromptBundle
from .base import (
    Backend,
    GenerationOptions,
    LoglikelihoodResult,
    ModelResponse,
)

# A 429's Retry-After hint above this many seconds is treated as no hint.
MAX_RETRY_AFTER_S = 300.0


def encode_image(path: str) -> str:
    """Read an image file into a base64 data URI. Raises AttachmentError so a
    bad path fails that item instead of the whole run."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise AttachmentError(f"cannot read attachment {path!r}: {exc}") from exc
    mime = mimetypes.guess_type(path)[0] or "application/octet-stream"
    return f"data:{mime};base64,{base64.b64encode(data).decode('ascii')}"


def build_chat_request(model: str, bundle: PromptBundle, options: GenerationOptions) -> dict:
    """Chat-completions body for a conversation. Attachments become image_url
    content parts on their turn."""
    messages = []
    if bundle.system_text:
        messages.append({"role": "system", "content": bundle.system_text})
    for turn in bundle.turns:
        if turn.attachments:
            content = [{"type": "text", "text": turn.text}]
            for path in turn.attachments:
                content.append({"type": "image_url", "image_url": {"url": encode_image(path)}})
            messages.append({"role": turn.role, "content": content})
        else:
            messages.append({"role": turn.role, "content": turn.text})
    body = {
        "model": model,
        "messages": messages,
        "temperature": options.temperature or 0.0,
        "max_tokens": options.max_new_tokens,
    }
    if options.stop_sequences:
        body["stop"] = list(options.stop_sequences)
    if options.seed is not None:
        body["seed"] = options.seed
    return body


def build_completions_request(model: str, prompt: str) -> dict:
    """Completions body that echoes the prompt with per-token logprobs and
    generates nothing; the caller sums the continuation span."""
    return {
        "model": model,
        "prompt": prompt,
        "max_tokens": 0,
        "temperature": 0.0,
        "echo": True,
        "logprobs": 0,
    }


def parse_chat_response(payload: dict, latency_ms: int = 0) -> ModelResponse:
    try:
        choice = payload["choices"][0]
        message = choice["message"]
        text = message.get("content")
        reason = choice.get("finish_reason")
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise MalformedReply(f"chat reply missing choices/message: {exc!r}") from exc
    if not isinstance(text, str):
        raise MalformedReply("chat reply has no text content")
    usage = payload.get("usage") or {}
    if not isinstance(usage, dict):
        raise MalformedReply(f"chat reply usage is {usage!r}, not an object")
    return ModelResponse(
        text=text,
        finish_reason=reason if isinstance(reason, str) else None,
        prompt_tokens=_token_count(usage, "prompt_tokens"),
        completion_tokens=_token_count(usage, "completion_tokens"),
        latency_ms=latency_ms,
    )


def _token_count(usage: dict, field: str) -> int:
    value = usage.get(field, 0)
    if type(value) is not int:
        raise MalformedReply(f"chat reply usage.{field} is {value!r}, not an integer")
    return value


def parse_completions_logprobs(payload: dict, context_chars: int, continuation: str) -> LoglikelihoodResult:
    """Sum echoed token logprobs over the continuation span.

    A token belongs to the continuation when its character span ends past the
    context/continuation boundary; tokens straddling the boundary are
    attributed to the continuation. The first echoed token's logprob may be
    null and counts as 0.
    """
    try:
        lp = payload["choices"][0]["logprobs"]
        tokens = lp["tokens"]
        token_logprobs = lp["token_logprobs"]
        offsets = lp["text_offset"]
        same_length = len(tokens) == len(token_logprobs) == len(offsets)
    except (KeyError, IndexError, TypeError) as exc:
        raise MalformedReply(f"completions reply missing echoed logprobs: {exc!r}") from exc
    if not same_length:
        raise MalformedReply("completions reply logprob arrays disagree in length")

    total = 0.0
    count = 0
    try:
        for token, logprob, offset in zip(tokens, token_logprobs, offsets):
            # type(), not isinstance(): a bool is an int, and float() takes it, but true is no number
            if type(offset) is bool:
                raise TypeError("a bool is no number")
            if offset + len(token) <= context_chars:
                continue
            if type(logprob) is bool:
                raise TypeError("a bool is no number")
            total += float(logprob) if logprob is not None else 0.0
            count += 1
    except (TypeError, ValueError) as exc:
        # the loop's names still hold the values that failed
        if not isinstance(token, str):
            field, value = "tokens", token
        elif type(offset) not in (int, float):
            field, value = "text_offset", offset
        else:
            field, value = "token_logprobs", logprob
        raise MalformedReply(f"completions reply logprobs.{field} holds {value!r}: {exc}") from exc
    if count == 0:
        raise MalformedReply("no echoed tokens cover the continuation span")
    if not math.isfinite(total):
        raise MalformedReply(f"echoed logprobs over the continuation sum to {total}")
    return LoglikelihoodResult(total, count, len(continuation))


# Caps on what a reply may send before its body.
_MAX_LINE = 65536
_MAX_HEADERS = 100

# What the request head, sent as Latin-1, cannot carry: in the request line a
# space or control character; in a header value a line break.
_BAD_PATH = re.compile(r"[\x00-\x20\x7f]|[^\x00-\xff]")
_BAD_HEADER_VALUE = re.compile(r"[\r\n]|[^\x00-\xff]")


class _StaleConnection(ConnectionError):
    """A kept-alive connection failed before the first byte of the reply: the
    server had closed it, so the request can be sent again on a new one."""


def _read_line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError("reply line too long")
    return line


def _read_status(reader) -> tuple[bytes, int]:
    version, status, _ = (_read_line(reader).split(None, 2) + [b"", b""])[:3]
    if version not in (b"HTTP/1.1", b"HTTP/1.0") or not (status.isdigit() and len(status) == 3):
        raise ValueError("malformed status line")
    return version, int(status)


def _read_fields(reader) -> dict:
    """Header or trailer lines up to the blank line, names lower-cased."""
    fields = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return fields
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ValueError("malformed header line" if line else "reply ended inside its headers")
        fields[name.strip().lower()] = value.strip()
    raise ValueError(f"reply has more than {_MAX_HEADERS} header lines")


def _read_exact(reader, n: int) -> bytes:
    data = reader.read(n)
    if len(data) < n:
        raise ValueError(f"reply body ended after {len(data)} of {n} bytes")
    return data


def _read_chunked(reader) -> bytes:
    chunks = []
    while True:
        size = int(_read_line(reader).split(b";", 1)[0], 16)
        if size < 0:
            raise ValueError("negative chunk size")
        if size == 0:
            break
        chunk = _read_exact(reader, size + 2)
        if chunk[-2:] != b"\r\n":
            raise ValueError("chunk not followed by CRLF")
        chunks.append(chunk[:-2])
    _read_fields(reader)  # trailers, discarded
    return b"".join(chunks)


class _Connection:
    """One kept-alive HTTP/1.1 connection. Each request is one write; the
    reply is framed by Content-Length, by chunked transfer coding or by the
    connection closing."""

    def __init__(self, parts: SplitResult, timeout_s: float):
        host = parts.hostname
        self.host_header = parts.netloc.rpartition("@")[2]
        port = parts.port or (443 if parts.scheme == "https" else 80)
        sock = socket.create_connection((host, port), timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if parts.scheme == "https":
                import ssl  # only on first use: most runs talk plain HTTP to a local server

                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
            self.reader = sock.makefile("rb")
        except BaseException:
            sock.close()
            raise
        self.sock = sock

    def close(self):
        self.reader.close()
        self.sock.close()

    def request(self, path: str, data: bytes, headers: dict) -> tuple[int, dict, bytes, bool]:
        """POST ``data`` and read the reply: (status, headers, body, keep the
        connection). Raises _StaleConnection when the connection fails before
        the reply starts. ``path`` and ``headers`` are HttpBackend's, checked
        when it was built."""
        lines = [f"POST {path} HTTP/1.1", f"Host: {self.host_header}", "Accept-Encoding: identity",
                 f"Content-Length: {len(data)}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        try:
            self.sock.sendall("\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + data)
            started = self.reader.peek(1)
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise _StaleConnection(str(exc)) from exc
        if not started:
            raise _StaleConnection("connection closed before the reply")
        reader = self.reader
        status = 100
        while status < 200:  # 100 Continue and other interim replies come first
            version, status = _read_status(reader)
            reply_headers = _read_fields(reader)
        tokens = reply_headers.get("connection", "").lower()
        keep = "close" not in tokens if version == b"HTTP/1.1" else "keep-alive" in tokens
        if status in (204, 304):
            body = b""
        elif "chunked" in reply_headers.get("transfer-encoding", "").lower():
            body = _read_chunked(reader)
        elif "content-length" in reply_headers:
            length = int(reply_headers["content-length"])
            if length < 0:
                raise ValueError("negative Content-Length")
            body = _read_exact(reader, length)
        else:
            body, keep = reader.read(), False
        return status, reply_headers, body, keep


class _ThreadConnections(dict):
    """One thread's open connections, keyed by (scheme, host:port, timeout).
    Closed when the thread ends and its local storage is dropped."""

    def __del__(self):
        for conn in self.values():
            conn.close()


_local = threading.local()


def _thread_connections() -> _ThreadConnections:
    conns = getattr(_local, "conns", None)
    if conns is None:
        conns = _local.conns = _ThreadConnections()
    return conns


def _keepalive_transport(url: str, body: dict, headers: dict, timeout_s: float):
    """POST ``body`` as JSON over this thread's kept-alive connection to the
    URL's host, opening one if there is none. Reply header names are
    lower-cased."""
    parts = urlsplit(url)
    path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    data = json.dumps(body).encode("utf-8")
    conns = _thread_connections()
    key = (parts.scheme, parts.netloc, timeout_s)
    conn = conns.pop(key, None)
    try:
        if conn is not None:
            try:
                reply = conn.request(path, data, headers)
            except _StaleConnection:
                conn.close()
                conn = None
        if conn is None:
            conn = _Connection(parts, timeout_s)
            reply = conn.request(path, data, headers)
    except (OSError, ValueError) as exc:
        if conn is not None:
            conn.close()
        raise TransportError(f"request to {url} failed: {exc}") from exc
    status, reply_headers, payload, keep = reply
    if keep:
        conns[key] = conn
    else:
        conn.close()
    return status, reply_headers, payload.decode("utf-8", errors="replace")


class HttpBackend(Backend):
    """OpenAI-compatible HTTP backend.

    ``_transport``, a test seam and no config key, is a callable of
    (url, body, headers, timeout_s) returning (status, headers, text), the
    reply's header names lower-cased. The default keeps one connection per
    worker thread alive.
    """

    def __init__(
        self,
        base_url: str,
        model_name: str,
        *,
        api_key_env: str = "OMNIEVAL_API_KEY",
        supports_generation: bool = True,
        supports_loglikelihood: bool = True,
        supports_images: bool = False,
        timeout_s: float = 120.0,
        _transport=None,
    ):
        if type(timeout_s) not in (int, float) or not 0 < timeout_s < math.inf:
            raise ConfigError(f"timeout_s must be a number > 0, got {timeout_s!r}")
        parts = urlsplit(base_url) if isinstance(base_url, str) else None
        if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigError(f"base_url must be an http:// or https:// URL with a host, got {base_url!r}")
        try:
            parts.port
        except ValueError as exc:  # out of range or not a number
            raise ConfigError(f"base_url has a bad port: {exc}, got {base_url!r}") from None
        if _BAD_PATH.search(parts.path + parts.query):
            raise ConfigError("base_url path and query must hold no space, control character or character "
                              f"outside Latin-1, got {base_url!r}")
        if not isinstance(api_key_env, str):
            raise ConfigError(f"api_key_env must be the name of an environment variable, got {api_key_env!r}")
        self.headers = {"Content-Type": "application/json"}
        key = os.environ.get(api_key_env)
        if key:
            if _BAD_HEADER_VALUE.search(key):  # the message leaves the key out
                raise ConfigError(f"the API key in environment variable {api_key_env} has a line break "
                                  "or a character outside Latin-1")
            self.headers["Authorization"] = f"Bearer {key}"
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self._transport = _transport or _keepalive_transport
        super().__init__(model_name, supports_generation, supports_loglikelihood, supports_images)

    def _post(self, endpoint: str, body: dict) -> dict:
        url = f"{self.base_url}{endpoint}"
        status, headers, text = self._transport(url, body, self.headers, self.timeout_s)
        if status == 429:
            try:
                retry_after_s = float(headers.get("retry-after"))
            except (TypeError, ValueError):
                retry_after_s = math.nan
            # no hint, or one past the bound (nan, inf, a year): back off as usual
            retry_after_s = retry_after_s if retry_after_s <= MAX_RETRY_AFTER_S else None
            raise RateLimited(f"{url}: rate limited (429)", retry_after_s=retry_after_s)
        if 400 <= status < 500:
            raise BackendRefused(f"{url}: backend refused with status {status}: {text[:200]}")
        if status >= 500:
            raise TransportError(f"{url}: server error {status}")
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedReply(f"{url}: reply is not JSON: {exc}") from exc

    def generate(self, bundle: PromptBundle, options: GenerationOptions) -> ModelResponse:
        body = build_chat_request(self.model_name, bundle, options)
        start = time.monotonic()
        payload = self._post("/v1/chat/completions", body)
        latency_ms = int((time.monotonic() - start) * 1000)
        return parse_chat_response(payload, latency_ms)

    def loglikelihood(self, context: str, continuation: str) -> LoglikelihoodResult:
        if not continuation:
            raise ValueError("continuation must be non-empty")
        body = build_completions_request(self.model_name, context + continuation)
        payload = self._post("/v1/completions", body)
        return parse_completions_logprobs(payload, len(context), continuation)
