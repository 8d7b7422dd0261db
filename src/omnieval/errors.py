"""Exception hierarchy shared across the harness."""


class EvalKitError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EvalKitError):
    """Invalid run configuration, template, or backend descriptor."""


def config_enum(enum_cls, value, name: str):
    """``enum_cls(value)``; any other value is a ConfigError naming the field ``name``."""
    try:
        return enum_cls(value)
    except ValueError:
        raise ConfigError(f"{name} must be one of {', '.join(m.value for m in enum_cls)}, got {value!r}") from None


# --- dataset loading -------------------------------------------------------

class ParseError(EvalKitError):
    """A dataset file, or a stored ``records.jsonl`` or ``run_meta.json``, is
    not well-formed."""


class SchemaError(EvalKitError):
    """A dataset record violates the unified schema; message names the record and field."""


class EmptyDataset(EvalKitError):
    """Dataset file parsed but contains no records."""


# --- prompt rendering ------------------------------------------------------

class EmptyChoices(EvalKitError):
    """A choice block was requested for an empty choice list."""


class ChoiceOverflow(EvalKitError):
    """More than 26 choices; positional letters run out."""


# --- backends --------------------------------------------------------------

class BackendError(EvalKitError):
    """Base class for inference-backend failures."""


class TransportError(BackendError):
    """Connect failure, timeout, or 5xx from the backend. Retryable."""


class RateLimited(BackendError):
    """HTTP 429. Retryable; carries the server's retry-after hint in seconds."""

    def __init__(self, message, retry_after_s=None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class BackendRefused(BackendError):
    """4xx other than 429. Not retried."""


class MalformedReply(BackendError):
    """Backend reply missing required fields or not parseable."""


class AttachmentError(BackendError):
    """An image attachment could not be read. Per-item, not retried."""


# --- metrics and reporting -------------------------------------------------

class EmptyReferences(EvalKitError):
    """BLEU called with no references."""


class EmptyRun(EvalKitError):
    """Aggregation requested over zero records."""
