"""Backend contract: a uniform surface for response generation and
loglikelihood scoring, independent of where the model actually runs.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import NamedTuple

from ..errors import INTEGER, NUMBER, REQUIRED, STRING, STRING_OR_NULL, ConfigError, Stored, checked, read_stored
from ..prompts import PromptBundle


@checked
class GenerationOptions(NamedTuple):
    temperature: float = 0.0
    max_new_tokens: int = 512
    stop_sequences: tuple[str, ...] = ()
    seed: int | None = None

    def _check(self):
        # type(), not isinstance(): a bool is an int, but true is no number
        if type(self.temperature) not in (int, float) or not 0 <= self.temperature < math.inf:
            raise ConfigError(f"temperature must be a number >= 0, got {self.temperature!r}")
        if type(self.max_new_tokens) is not int or self.max_new_tokens < 1:
            raise ConfigError(f"max_new_tokens must be an integer >= 1, got {self.max_new_tokens!r}")
        if self.seed is not None and type(self.seed) is not int:
            raise ConfigError(f"seed must be an integer or null, got {self.seed!r}")
        stops = self.stop_sequences
        if not isinstance(stops, (list, tuple)) or not all(isinstance(s, str) for s in stops):
            raise ConfigError(f"stop_sequences must be a list of strings, got {stops!r}")
        return None if type(stops) is tuple else {"stop_sequences": tuple(stops)}

    def to_dict(self) -> dict:
        # "decoding_mode" is no option, but cache keys and run_meta.json written when it was
        # one held it, so a config whose mode agreed with its temperature keeps their bytes
        mode = "sample" if self.temperature else "greedy"
        return {**self._asdict(), "stop_sequences": list(self.stop_sequences), "decoding_mode": mode}


class ModelResponse(NamedTuple):
    text: str
    finish_reason: str | None = "stop"  # as the server sent it, None when it sent none
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_ms: int = 0

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: dict) -> "ModelResponse":
        # entries that earlier versions wrote also hold "token_logprobs": null, which is not read
        return cls(*read_stored(data, _RESPONSE))


# the fields of a cache payload, in its class's order; a refused one is a cache miss
_RESPONSE = Stored((("text", STRING, REQUIRED), ("finish_reason", STRING_OR_NULL, "stop"),
                    ("prompt_tokens", INTEGER, 0), ("completion_tokens", INTEGER, 0), ("latency_ms", INTEGER, 0)))
_LOGLIKELIHOOD = Stored((("total_logprob", NUMBER, REQUIRED), ("token_count", INTEGER, REQUIRED),
                         ("continuation_chars", INTEGER, REQUIRED)))


@checked
class LoglikelihoodResult(NamedTuple):
    total_logprob: float
    token_count: int
    continuation_chars: int

    def _check(self):
        # ValueError, not ConfigError: the values come from a reply or a cache entry, which
        # then fails only its own item, or is a cache miss
        if not math.isfinite(self.total_logprob):
            raise ValueError("total_logprob must be finite")
        if self.token_count < 1:
            raise ValueError("token_count must be >= 1")
        if self.continuation_chars < 1:
            raise ValueError("continuation_chars must be >= 1")

    @property
    def per_char_logprob(self) -> float:
        return self.total_logprob / self.continuation_chars

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: dict) -> "LoglikelihoodResult":
        return cls(*read_stored(data, _LOGLIKELIHOOD))


class Backend(ABC):
    """Inference backend. Implementations must be safe for concurrent calls;
    all per-request state lives in the request. The ``supports_*`` flags
    declare what a run may ask; the runner refuses the rest before any call."""

    def __init__(self, model_name: str, supports_generation: bool, supports_loglikelihood: bool,
                 supports_images: bool):
        if not isinstance(model_name, str):
            raise ConfigError(f"model_name must be a string, got {model_name!r}")
        flags = {"supports_generation": supports_generation, "supports_loglikelihood": supports_loglikelihood,
                 "supports_images": supports_images}
        for name, flag in flags.items():
            if type(flag) is not bool:
                raise ConfigError(f"{name} must be true or false, got {flag!r}")
        if not any(flags.values()):
            raise ConfigError("a backend must support at least one capability")
        self.model_name = model_name
        self.supports_generation = supports_generation
        self.supports_loglikelihood = supports_loglikelihood
        self.supports_images = supports_images

    @abstractmethod
    def generate(self, bundle: PromptBundle, options: GenerationOptions) -> ModelResponse: ...

    @abstractmethod
    def loglikelihood(self, context: str, continuation: str) -> LoglikelihoodResult: ...
