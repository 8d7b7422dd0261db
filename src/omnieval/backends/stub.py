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

import math
import threading
import time

from ..errors import ConfigError
from ..prompts import PromptBundle
from .base import (
    Backend,
    GenerationOptions,
    LoglikelihoodResult,
    ModelResponse,
)


def _as_ll_result(value, continuation: str) -> LoglikelihoodResult:
    """A ``logprob_table`` entry, read as a cached one is: an object, whose token count
    defaults to the continuation's words, or a total, a token count and, optionally, chars."""
    if isinstance(value, dict):
        value = {"token_count": max(1, len(continuation.split())), **value}
    else:
        value = dict(zip(("total_logprob", "token_count", "continuation_chars"), value))
    return LoglikelihoodResult.from_dict({"continuation_chars": len(continuation), **value})


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
        _failures: list[Exception] | None = None,
        _delay_fn=None,
    ):
        for name, table in (("scripted", scripted), ("logprob_table", logprob_table)):
            if not isinstance(table or {}, dict):
                raise ConfigError(f"{name} must be a JSON object, got {table!r}")
        self.scripted = dict(scripted or {})
        for item_id, reply in self.scripted.items():
            if not isinstance(reply, str):
                raise ConfigError(f"scripted[{item_id!r}] must be a string, got {reply!r}")
        self.logprob_table = {}
        for key, entry in (logprob_table or {}).items():
            try:
                self.logprob_table[key] = _as_ll_result(entry, key[1] if isinstance(key, tuple) else key)
            except (KeyError, TypeError, ValueError):
                raise ConfigError(f"logprob_table[{key!r}] is not a loglikelihood entry: {entry!r}") from None
        if default_reply is not None and not isinstance(default_reply, str):
            raise ConfigError(f"default_reply must be a string or null, got {default_reply!r}")
        self.default_reply = default_reply
        # type(), not isinstance(): a bool is an int, but true is no number
        if type(char_logprob) not in (int, float) or not math.isfinite(char_logprob):
            raise ConfigError(f"char_logprob must be a finite number, got {char_logprob!r}")
        self.char_logprob = char_logprob
        super().__init__(model_name, supports_generation, supports_loglikelihood, supports_images)
        self._failures = list(_failures or [])
        self._delay_fn = _delay_fn
        self._lock = threading.Lock()
        self.generate_calls = 0
        self.loglikelihood_calls = 0
        self._inflight = 0
        self.max_inflight = 0

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
        delay = self._delay_fn and self._delay_fn()
        if delay:
            time.sleep(delay)

    def _exit(self):
        with self._lock:
            self._inflight -= 1

    def generate(self, bundle: PromptBundle, options: GenerationOptions) -> ModelResponse:
        self._enter("generate")
        try:
            if bundle.item_id is not None and bundle.item_id in self.scripted:
                text = self.scripted[bundle.item_id]
            elif self.default_reply is not None:
                text = self.default_reply
            else:
                text = bundle.final_text  # echo mode
            prompt_tokens = sum(len(turn.text.split()) for turn in bundle.turns)
            return ModelResponse(text, prompt_tokens=prompt_tokens, completion_tokens=len(text.split()))
        finally:
            self._exit()

    def loglikelihood(self, context: str, continuation: str) -> LoglikelihoodResult:
        if not continuation:
            raise ValueError("continuation must be non-empty")
        self._enter("loglikelihood")
        try:
            entry = self.logprob_table.get((context, continuation)) or self.logprob_table.get(continuation)
            # the linear model counts tokens and characters as a table object without them does
            return entry or _as_ll_result({"total_logprob": self.char_logprob * len(continuation)}, continuation)
        finally:
            self._exit()
