"""Exception types shared across the package, and the rules that check a
setting, each naming the setting by its config key or flag."""
import math


class ShapeError(ValueError):
    """A tensor, blob, or sample has dimensions inconsistent with its peer."""


class DataExhaustedError(RuntimeError):
    """A one-shot device stream has fewer unseen samples than requested."""


class DatasetFormatError(ValueError):
    """A dataset file violates the on-disk format; message carries the offset."""


class WireError(ValueError):
    """Base class for model-codec and framing failures."""


class ProtocolError(WireError):
    """Malformed wire data: bad magic, invalid header fields, bad frame."""


class TruncationError(WireError):
    """Wire data is shorter or longer than its header declares."""


class CorruptionError(WireError):
    """Payload bytes fail the CRC32 check."""


class FrameSequenceError(WireError):
    """Frame sequence numbers have a gap, duplicate, or trailing frames."""


class IncompleteStreamError(WireError):
    """A frame stream ended without a last-frame marker."""


def check_at_least(key: str, value, low) -> None:
    """Raise ValueError unless the setting `key` is >= `low` (NaN is not)."""
    if not value >= low:
        raise ValueError(f"{key} must be >= {low}, got {value}")


def check_positive(key: str, value: float) -> None:
    """Raise ValueError unless the setting `key` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{key} must be finite and > 0, got {value}")


def check_seed(key: str, seed: int) -> None:
    """Raise ValueError unless the seed `key` can seed numpy, which needs it >= 0."""
    check_at_least(key, seed, 0)
