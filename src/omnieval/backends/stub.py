"""A fully deterministic in-process backend for tests and offline runs.

Generation replies come from a script keyed by the bundle's item id, then a
default reply, then echoing the last user turn. Loglikelihoods come from a
scripted table keyed by (context, continuation) or by continuation alone,
falling back to a per-character linear model (which makes loglikelihood
additive over continuation splits by construction).

The stub also records call counts, an in-flight high-water mark, and can be
scripted to fail, which is what the retry and concurrency tests hook into.
"""

from __future__ import annotations

import threading
import time

from ..errors import UnsupportedCapability
from ..prompts import PromptBundle
from .base import (
    Backend,
    BackendCapabilities,
    FinishReason,
    GenerationOptions,
    LoglikelihoodResult,
    ModelResponse,
)


def _as_ll_result(value, continuation: str) -> LoglikelihoodResult:
    if isinstance(value, LoglikelihoodResult):
        return value
    if isinstance(value, dict):
        return LoglikelihoodResult(
            value["total_logprob"],
            value.get("token_count", max(1, len(continuation.split()))),
            value.get("continuation_chars", len(continuation)),
        )
    total, tokens, *rest = value
    chars = rest[0] if rest else len(continuation)
    return LoglikelihoodResult(total, tokens, chars)


class StubBackend(Backend):
    def __init__(
        self,
        scripted: dict[str, str] | None = None,
        logprob_table: dict | None = None,
        *,
        default_reply: str | None = None,
        char_logprob: float = -0.25,
        model_name: str = "stub",
        supports_generation: bool = True,
        supports_loglikelihood: bool = True,
        supports_images: bool = True,
        failures: list[Exception] | None = None,
        delay_s: float | None = None,
        delay_fn=None,
    ):
        self.scripted = dict(scripted or {})
        self.logprob_table = dict(logprob_table or {})
        self.default_reply = default_reply
        self.char_logprob = char_logprob
        self._caps = BackendCapabilities(
            supports_generation, supports_loglikelihood, supports_images, model_name
        )
        self._failures = list(failures or [])
        self._delay_s = delay_s
        self._delay_fn = delay_fn
        self._lock = threading.Lock()
        self.generate_calls = 0
        self.loglikelihood_calls = 0
        self._inflight = 0
        self.max_inflight = 0

    def capabilities(self) -> BackendCapabilities:
        return self._caps

    def _enter(self, kind: str):
        with self._lock:
            if kind == "generate":
                self.generate_calls += 1
            else:
                self.loglikelihood_calls += 1
            self._inflight += 1
            self.max_inflight = max(self.max_inflight, self._inflight)
            failure = self._failures.pop(0) if self._failures else None
        if failure is not None:
            with self._lock:
                self._inflight -= 1
            raise failure
        delay = self._delay_fn() if self._delay_fn else self._delay_s
        if delay:
            time.sleep(delay)

    def _exit(self):
        with self._lock:
            self._inflight -= 1

    def generate(self, bundle: PromptBundle, options: GenerationOptions) -> ModelResponse:
        if not self._caps.supports_generation:
            raise UnsupportedCapability("stub configured without generation support")
        self._enter("generate")
        try:
            if bundle.item_id is not None and bundle.item_id in self.scripted:
                text = self.scripted[bundle.item_id]
            elif self.default_reply is not None:
                text = self.default_reply
            else:
                text = bundle.final_text  # echo mode
            prompt_tokens = sum(len(turn.text.split()) for turn in bundle.turns)
            return ModelResponse(
                text=text,
                finish_reason=FinishReason.STOP,
                prompt_tokens=prompt_tokens,
                completion_tokens=len(text.split()),
                latency_ms=0,
            )
        finally:
            self._exit()

    def loglikelihood(self, context: str, continuation: str) -> LoglikelihoodResult:
        if not self._caps.supports_loglikelihood:
            raise UnsupportedCapability("stub configured without loglikelihood support")
        if not continuation:
            raise ValueError("continuation must be non-empty")
        self._enter("loglikelihood")
        try:
            entry = self.logprob_table.get((context, continuation))
            if entry is None:
                entry = self.logprob_table.get(continuation)
            if entry is not None:
                return _as_ll_result(entry, continuation)
            return LoglikelihoodResult(
                total_logprob=self.char_logprob * len(continuation),
                token_count=max(1, len(continuation.split())),
                continuation_chars=len(continuation),
            )
        finally:
            self._exit()
