"""Exception hierarchy shared across the harness, the one reader of stored JSON objects,
and the one way a value type checks what it holds."""

from math import isfinite
from typing import NamedTuple


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


# --- stored files ----------------------------------------------------------

REQUIRED = object()  # the default of a field that a stored object must hold
FINITE = object()  # what a float must further be
_REFUSED = object()
STRING = ({str: None}, "a string")
STRING_OR_NULL = ({str: None, type(None): None}, "a string or null")
INTEGER = ({int: None}, "an integer")  # type(), not isinstance(): true is no number
NUMBER = ({int: None, float: FINITE}, "a finite number")


class Stored(NamedTuple):
    """A stored JSON object: its fields, each ``(name, (types, words), default)``, and
    ``build``, which makes the object of their values in order (None keeps it as read).
    ``types`` maps the Python type of each JSON value a field takes to what that value
    must further be: None, nothing; FINITE, for a float; for a list, the type or Stored
    of its elements; for an object, its Stored; for a string, a dict from each string it
    may be to what that string reads as. ``words`` name the values in a refusal."""

    fields: tuple
    build: object = None


def read_stored(data: dict, stored: Stored) -> list:
    """The value of each field of ``stored`` in the JSON object ``data``, or its default when
    absent; a list is read as a tuple and an object as what its Stored builds. Any other
    value is a ValueError worded ``<field path> must be <words>, got <value>``."""
    values = []
    for name, (types, words), default in stored.fields:
        value = data.get(name, default)
        inner = types.get(type(value), _REFUSED)
        if inner is not None and (inner is not FINITE or not isfinite(value)):  # more than a type test
            if value is REQUIRED:
                raise ValueError(f"{name} is missing")
            if inner is _REFUSED or inner is FINITE:
                raise ValueError(f"{name} must be {words}, got {value!r}")
            if type(value) is dict:
                value = _build(value, inner, name)
            elif type(inner) is Stored:
                value = tuple([_build(element, inner, name, i) for i, element in enumerate(value)])
            elif type(value) is list:
                value = tuple(value) if all(type(element) is inner for element in value) else _REFUSED
            elif type(value) is str:
                value = inner.get(value, _REFUSED)
            if value is _REFUSED:
                raise ValueError(f"{name} must be {words}, got {data[name]!r}")
        values.append(value)
    return values


def _build(data, stored: Stored, name: str, index: int | None = None):
    """What ``stored`` builds of ``data``, the object in the field ``name`` or in its element ``index``."""
    if type(data) is dict:
        try:
            values = read_stored(data, stored)
            return data if stored.build is None else stored.build(*values)
        except ValueError as exc:
            problem = f".{exc}"
    else:
        problem = f" must be an object, got {data!r}"
    raise ValueError(name + ("" if index is None else f"[{index}]") + problem)


def checked(cls):
    """The NamedTuple class ``cls``, made to pass each new value to ``cls._check``, in its
    constructor and so in ``_replace``. ``_check(self)`` raises on a bad field and returns
    None, or a dict of the fields whose values it coerces, each to the value to hold."""
    new = cls.__new__

    def __new__(klass, *args, **kwargs):
        self = new(klass, *args, **kwargs)
        coerced = self._check()
        return self if coerced is None else tuple.__new__(klass, map(coerced.get, klass._fields, self))

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda klass, values: klass(*values))  # what _replace builds its copy with
    return cls


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
