"""Exception types shared across the package.

Every error raised inside the assessment pipeline carries an optional
``stage`` label ("ingest", "preprocess", "extract", ...) so callers can
tell which step failed without parsing messages.
"""

from __future__ import annotations

import copyreg


class AclRiskError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str, stage: str | None = None):
        super().__init__(message)
        self.stage = stage

    @property
    def message(self) -> str:
        """The message without its stage label."""
        return super().__str__()

    def __str__(self) -> str:
        if self.stage:
            return f"[{self.stage}] {self.message}"
        return self.message

    def __reduce__(self):
        # rebuild from the message and attributes: a subclass's __init__ may
        # take other arguments (``failures``, ``violations``) than the message
        return copyreg.__newobj__, (type(self), self.message), self.__dict__


def cut(exc: Exception) -> str:
    """The message of a failed conversion, which quotes the refused value, cut in the middle
    past 160 characters as ``reprlib`` cuts a string. numpy's message for an unevenly nested
    entry is 159 characters at the top level and longer deeper down, so it may be cut."""
    text = str(exc)
    return text if len(text) <= 160 else f"{text[:78]}...{text[-79:]}"


# -- pose ingestion ------------------------------------------------------

class MalformedDocument(AclRiskError):
    """Keypoint document violates the expected schema."""


class AmbiguousPerson(AclRiskError):
    """Strict person policy hit a frame with more than one person."""


class EmptySource(AclRiskError):
    """Series source holds no frames."""


class SeriesParseError(AclRiskError):
    """One or more frame documents failed to parse.

    ``failures`` is a list of (frame identifier, error) pairs so every
    offending frame is reported at once. The message names the first
    ``NAMED`` of them and counts the rest, so its length does not grow
    with the input.
    """

    NAMED = 5

    def __init__(self, failures: list[tuple[str, Exception]], stage: str | None = None):
        self.failures = failures
        detail = "; ".join(f"{fid}: {err}" for fid, err in failures[:self.NAMED])
        if len(failures) > self.NAMED:
            detail += f"; and {len(failures) - self.NAMED} more"
        super().__init__(f"{len(failures)} frame(s) failed to parse: {detail}", stage)


class GapTooLong(AclRiskError):
    """Required keypoint missing for more consecutive interior frames than max_gap."""


class AllFramesInvalid(AclRiskError):
    """No frame survives preprocessing with all required keypoints present."""


# -- kinematics ----------------------------------------------------------

class DegenerateVector(AclRiskError):
    """A joint vector has (near-)zero length, i.e. coincident keypoints."""


class WindowEmpty(AclRiskError):
    """Analysis window selection produced no frames."""


# -- scoring -------------------------------------------------------------

class OutOfRange(AclRiskError):
    """Feature value outside the grader's domain."""


class InvalidGrade(AclRiskError):
    """Grade value is not one of 1, 5, 9."""


# -- AHP -----------------------------------------------------------------

class InvalidMatrix(AclRiskError):
    """Judgment matrix fails structural validation."""

    def __init__(self, violations: list[str], stage: str | None = None):
        self.violations = violations
        super().__init__("; ".join(violations), stage)


class OrderMismatch(AclRiskError):
    """Vector/matrix sizes do not agree."""


class ConsistencyFailure(AclRiskError):
    """Judgment matrix consistency ratio is at or above the 0.1 threshold."""


# -- assessment / synthesis / io ----------------------------------------

class IoFailure(AclRiskError):
    """Emitting outputs failed: a filesystem error, or a report that JSON cannot hold."""


class InvalidScript(AclRiskError):
    """Motion script parameters violate their constraints."""
