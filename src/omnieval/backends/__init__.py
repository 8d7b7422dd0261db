from .base import (
    Backend,
    GenerationOptions,
    LoglikelihoodResult,
    ModelResponse,
)
from .http import HttpBackend
from .stub import StubBackend

__all__ = [
    "Backend",
    "GenerationOptions",
    "LoglikelihoodResult",
    "ModelResponse",
    "HttpBackend",
    "StubBackend",
]
