"""Exception types shared across the pipeline.

Four kinds of error, all under ``SlotchainError``: ``FormatError`` (an
input file does not have the expected layout), ``ValidationError`` (a
value breaks a rule of the data model or names something that does not
exist), ``AuthError`` (the API key is missing or rejected) and
``NetworkError`` (a completion request failed). The CLI reports each as
``error: <message>`` with exit code 1, except that ``refine`` reports an
error that left one text unrefined as a warning and exits 3.
"""

from __future__ import annotations


class SlotchainError(Exception):
    """Base class for all pipeline errors."""


class FormatError(SlotchainError):
    """Input file does not match the expected layout.

    Messages include a path to the offending record (file, dialogue,
    turn or line number) whenever one is known.
    """


class ValidationError(SlotchainError):
    """A structural invariant of the data model is violated: an unknown
    dialogue or slot, a turn out of range, a repeated prediction, an
    empty chain, generation or narration, a bad sampling fraction."""


class NetworkError(SlotchainError):
    """A remote completion request failed after all retries, or its
    reply carried no usable text."""


class AuthError(SlotchainError):
    """The API key is missing or was rejected. Never retried."""
