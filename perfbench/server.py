"""Loopback OpenAI-compatible server for the benchmark.

Runs in its own process, so the CPU the benchmark charges to omnieval is
omnieval's alone. It answers ``POST /v1/chat/completions`` from the reply plan
and ``POST /v1/completions`` with echoed per-token logprobs from the plan's
vocabulary, after a fixed delay. ``GET /stats`` returns its counters.

    python3 perfbench/server.py --plan plan.json --delay-ms 20 --slots 2

It prints ``PORT <n>`` once it listens on 127.0.0.1 and serves until it is
terminated or its standard input closes.

HTTP/1.1 with Nagle's algorithm off: with Nagle on, delayed ACKs pin a
keep-alive client at about 23 requests per second. Every connection gets its
own thread, but at most ``--slots`` requests are handled at once (the delay is
spent outside the slot, as a model server would spend it on the accelerator),
so an idle keep-alive connection never holds a slot.
"""

from __future__ import annotations

import argparse
import http.server
import json
import re
import sys
import threading
import time

TOKEN_RE = re.compile(r"\s*\S+")
ITEM_TAG = re.compile(r"qid(\d{6})")
EXTRACT_TAG = re.compile(r"xid(\d{6})")
ROLES = {"system", "user", "assistant"}


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = {"chat": 0, "completions": 0}
        self.by_model: dict[str, int] = {}
        self.completion_prompts = 0
        self.malformed = 0
        self.unplanned = 0
        self.accepted = 0
        self.open_connections = 0
        self.open_connections_max = 0
        self.in_flight = 0
        self.in_flight_max = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.handle_ms: list[float] = []

    def snapshot(self, samples: bool) -> dict:
        with self.lock:
            out = {k: v for k, v in vars(self).items() if k not in ("lock", "handle_ms")}
            out = json.loads(json.dumps(out))
            out["handled"] = len(self.handle_ms)
            out["cpu_s"] = time.process_time()  # this process's CPU time so far
            if samples:
                out["handle_ms"] = list(self.handle_ms)
        return out


def validate_chat(body) -> str | None:
    """Wire-format check of a chat-completions body; None when valid."""
    if not isinstance(body, dict):
        return "body is not an object"
    if not isinstance(body.get("model"), str) or not body["model"]:
        return "model missing"
    messages = body.get("messages")
    if not isinstance(messages, list) or not messages:
        return "messages missing"
    for m in messages:
        if not isinstance(m, dict) or m.get("role") not in ROLES:
            return "bad message role"
        content = m.get("content")
        if isinstance(content, list):
            if not all(isinstance(p, dict) and p.get("type") in ("text", "image_url") for p in content):
                return "bad content part"
        elif not isinstance(content, str):
            return "bad message content"
    temp = body.get("temperature", 1.0)
    if not isinstance(temp, (int, float)) or isinstance(temp, bool) or temp < 0:
        return "bad temperature"
    tokens = body.get("max_tokens")
    if tokens is not None and (not isinstance(tokens, int) or isinstance(tokens, bool) or tokens < 1):
        return "bad max_tokens"
    if "stop" in body and not (isinstance(body["stop"], list) and all(isinstance(s, str) for s in body["stop"])):
        return "bad stop"
    return None


def validate_completions(body) -> str | None:
    """Wire-format check of an echo-logprobs completions body."""
    if not isinstance(body, dict):
        return "body is not an object"
    if not isinstance(body.get("model"), str) or not body["model"]:
        return "model missing"
    prompt = body.get("prompt")
    prompts = prompt if isinstance(prompt, list) else [prompt]
    if not prompts or not all(isinstance(p, str) and p for p in prompts):
        return "prompt missing"
    if body.get("echo") is not True:
        return "echo must be true"
    if body.get("max_tokens") != 0:
        return "max_tokens must be 0"
    logprobs = body.get("logprobs")
    if not isinstance(logprobs, int) or isinstance(logprobs, bool) or logprobs < 0:
        return "bad logprobs"
    return None


def chat_reply(plan: dict, body: dict) -> str | None:
    last = next(m for m in reversed(body["messages"]) if m["role"] == "user")
    content = last["content"]
    text = content if isinstance(content, str) else " ".join(
        p.get("text", "") for p in content if p.get("type") == "text")
    tag = EXTRACT_TAG.search(text)
    if tag:
        return plan["extract"].get(tag.group(1))
    tag = ITEM_TAG.search(text)
    return plan["chat"].get(tag.group(1)) if tag else None


def echo_logprobs(vocab: dict, default: float, prompt: str) -> dict:
    tokens, logprobs, offsets = [], [], []
    for m in TOKEN_RE.finditer(prompt):
        tok = m.group(0)
        tokens.append(tok)
        offsets.append(m.start())
        logprobs.append(vocab.get(tok.strip(), default))
    logprobs[0] = None  # real servers give no logprob for the first token
    return {"tokens": tokens, "token_logprobs": logprobs, "text_offset": offsets}


class Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.carried_post = False
        st = self.server.stats
        with st.lock:
            st.open_connections += 1
            st.open_connections_max = max(st.open_connections_max, st.open_connections)

    def finish(self):
        try:
            super().finish()
        finally:
            st = self.server.stats
            with st.lock:
                st.open_connections -= 1

    def log_message(self, *args):
        pass

    def _send(self, status: int, payload: dict) -> None:
        self._write(status, json.dumps(payload).encode("utf-8"))

    def _write(self, status: int, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path.startswith("/stats"):
            self._send(200, self.server.stats.snapshot("samples=1" in self.path))
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        st = self.server.stats
        start = time.perf_counter()
        with st.lock:
            if not self.carried_post:  # connections that carry requests, not /stats reads
                self.carried_post = True
                st.accepted += 1
            st.in_flight += 1
            st.in_flight_max = max(st.in_flight_max, st.in_flight)
        answered = False
        try:
            raw = self.rfile.read(int(self.headers.get("Content-Length") or 0))
            if self.server.delay_s:
                time.sleep(self.server.delay_s)
            with self.server.slots:
                status, payload = self._answer(raw)
                data = json.dumps(payload).encode("utf-8")
                # The request leaves the counters before its reply leaves the
                # server: a client that has its reply and sends the next
                # request must never find the old one still in flight.
                with st.lock:
                    st.in_flight -= 1
                    st.bytes_in += len(raw)
                    st.bytes_out += len(data)
                    st.handle_ms.append((time.perf_counter() - start) * 1000.0)
                answered = True
                self._write(status, data)
        finally:
            if not answered:
                with st.lock:
                    st.in_flight -= 1

    def _answer(self, raw: bytes):
        st = self.server.stats
        plan = self.server.plan
        endpoint = {"/v1/chat/completions": "chat", "/v1/completions": "completions"}.get(self.path)
        if endpoint is None:
            return 404, {"error": "not found"}
        try:
            body = json.loads(raw)
        except ValueError:
            body = None
        problem = (validate_chat if endpoint == "chat" else validate_completions)(body)
        with st.lock:
            st.requests[endpoint] += 1
            if problem is None:
                st.by_model[body["model"]] = st.by_model.get(body["model"], 0) + 1
            else:
                st.malformed += 1
        if problem is not None:
            return 400, {"error": {"message": problem, "type": "invalid_request_error"}}
        if endpoint == "chat":
            text = chat_reply(plan, body)
            if text is None:
                with st.lock:
                    st.unplanned += 1
                return 400, {"error": {"message": "no planned reply", "type": "invalid_request_error"}}
            return 200, {
                "id": "chatcmpl-bench", "object": "chat.completion", "model": body["model"],
                "choices": [{"index": 0, "message": {"role": "assistant", "content": text},
                             "finish_reason": "stop"}],
                "usage": {"prompt_tokens": 0, "completion_tokens": len(text.split()),
                          "total_tokens": len(text.split())},
            }
        prompts = body["prompt"] if isinstance(body["prompt"], list) else [body["prompt"]]
        with st.lock:
            st.completion_prompts += len(prompts)
        choices = []
        for i, prompt in enumerate(prompts):
            choices.append({"index": i, "text": prompt, "finish_reason": "length",
                            "logprobs": echo_logprobs(plan["vocab"], plan["default_logprob"], prompt)})
        return 200, {"id": "cmpl-bench", "object": "text_completion", "model": body["model"],
                     "choices": choices, "usage": {"prompt_tokens": 0, "completion_tokens": 0}}


class Server(http.server.ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, plan: dict, delay_ms: float, slots: int):
        super().__init__(("127.0.0.1", 0), Handler)
        self.plan = plan
        self.delay_s = delay_ms / 1000.0
        self.slots = threading.BoundedSemaphore(slots)
        self.stats = Stats()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--delay-ms", type=float, default=0.0)
    parser.add_argument("--slots", type=int, default=2)
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    plan.setdefault("default_logprob", -2.0)
    server = Server(plan, args.delay_ms, args.slots)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # the benchmark closes our stdin to stop us
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
