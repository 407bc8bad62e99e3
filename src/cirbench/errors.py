"""Exception hierarchy shared across the package."""


class CirbenchError(Exception):
    """Base class for all cirbench errors."""


class ConfigError(CirbenchError, ValueError):
    """Invalid configuration value; the message names the offending field."""


class OutputPathError(ConfigError, OSError):
    """An output path no file can be written to: an existing directory, or a path under a regular file.

    It is an OSError as well, like the failed write it prevents.
    """


class FormatError(CirbenchError, ValueError):
    """A persisted artifact failed to parse."""


class CorpusFormatError(FormatError):
    """Malformed corpus / JSONL file; the message carries a line number."""


class IndexFormatError(FormatError):
    """Malformed binary index file (bad magic, truncation, size mismatch)."""


class IndexValidationError(CirbenchError, ValueError):
    """Index entries violate the index contract (dim, norm, duplicate ids)."""


class EmbeddingError(CirbenchError, ValueError):
    """Invalid embedding input (empty token sequence, zero vector)."""


class DegenerateMixError(EmbeddingError):
    """A vector mix is degenerate: it collapsed to (numerically) zero, or its two ends coincide."""
