"""Artifact I/O: atomic file writes and the one JSON Lines codec.

Every JSONL artifact (corpus, chunks, enriched chunks, sweep report) is
framed here: an optional ``run_config`` record on the first line that
carries the resolved configuration, then one JSON object per line. The
JSON is strict both ways: no writer emits ``NaN``, ``Infinity`` or
``-Infinity``, and every reader refuses them. The modules that own an
artifact supply only the mapping between a record and an object.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, TypeVar

from .errors import CorpusFormatError, OutputPathError

T = TypeVar("T")


def _refuse_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text} is too large for a float")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(key for key in keys if keys.count(key) > 1)!r}")
    return obj


# Python's json reads and writes NaN, Infinity and -Infinity by default, reads
# a number past the float range as infinite, and keeps the last of repeated
# keys; these two refuse all of it, so what one stage writes the next can
# read, and a record's checks see every value it holds.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_float=_finite_float, parse_constant=_refuse_constant)
_ENCODER = json.JSONEncoder(allow_nan=False)


def check_target(path: str | Path) -> Path:
    """*path* as a Path if a file can be written there; else an OutputPathError naming it.

    An existing directory is never replaced, and nothing can be created
    under a regular file, so either target is a bad output value. The
    existing directory or file is left as it is.
    """
    path = Path(path)
    if path.is_dir():
        raise OutputPathError(f"cannot write {path}: it is a directory")
    nearest = next(parent for parent in path.parents if parent.exists())  # '.' or '/' at the latest
    if not nearest.is_dir():
        raise OutputPathError(f"cannot write {path}: {nearest} is not a directory")
    return path


@contextlib.contextmanager
def _atomic_file(path: str | Path) -> Iterator[BinaryIO]:
    """A binary handle whose bytes replace *path* on exit: a crash leaves the old file or the new one.

    A target that ``check_target`` refuses raises OutputPathError before
    anything is written. The target's directory is created if it is
    missing. The bytes go to a new temp file with a random name in that
    directory, are fsynced, then renamed over the target. The temp file is
    created 0666 less the umask, as a plain open() would, and is removed if
    any step fails, the caller's writes included.
    """
    path = check_target(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Replace *path* with *data*: a crash leaves the old file or the new one."""
    with _atomic_file(path) as handle:
        handle.write(data)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_jsonl(path: str | Path, records: Iterable[dict], header: dict | None = None) -> None:
    """Write one JSON object per line, led by a ``run_config`` record when *header* is given.

    Records are encoded and written one at a time, through ``_atomic_file``.
    A float that is not finite raises ValueError, and nothing is written.
    """
    if header is not None:
        records = itertools.chain([{"type": "run_config", **header}], records)
    with _atomic_file(path) as handle:
        separator = b""
        for rec in records:
            handle.write(separator + _ENCODER.encode(rec).encode("utf-8"))
            separator = b"\n"
        handle.write(b"\n")


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) for every non-blank line; a line that is not UTF-8 is a CorpusFormatError."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: not UTF-8 ({exc.reason})") from exc
            if line:
                yield lineno, line


def _decode(path: str | Path, lineno: int, line: str):
    """The JSON value of line *lineno*; bad JSON is a CorpusFormatError naming the path and the line.

    ``NaN`` and ``Infinity`` are bad JSON, and so are a number too large
    for a float, an object that repeats a key, and nesting past the
    interpreter's recursion limit.
    """
    try:
        return _DECODER.decode(line)
    except ValueError as exc:  # a JSONDecodeError, or a value one of _DECODER's hooks refused
        raise CorpusFormatError(f"{path}: line {lineno}: {getattr(exc, 'msg', exc)}") from exc
    except RecursionError as exc:
        raise CorpusFormatError(f"{path}: line {lineno}: JSON nested too deeply to parse") from exc


def read_jsonl(path: str | Path, parse: Callable[[dict], T], unique: str | None = None) -> list[T]:
    """Map every record of a JSONL file through *parse*, in file order.

    Blank lines and a ``run_config`` record on the first non-blank line are
    skipped. Bytes that are not UTF-8, bad JSON (as ``_decode`` reads it),
    a line that is not an object, a ``run_config`` record on a later line, a
    record that *parse* rejects with KeyError, TypeError or ValueError, and
    a record whose *unique* field repeats an earlier record's all raise
    CorpusFormatError naming the path and the line number.
    """
    out: list[T] = []
    first_line: dict = {}
    for position, (lineno, line) in enumerate(_lines(path)):
        rec = _decode(path, lineno, line)
        if not isinstance(rec, dict):
            raise CorpusFormatError(f"{path}: line {lineno}: expected a JSON object")
        if rec.get("type") == "run_config":
            if position:
                raise CorpusFormatError(f"{path}: line {lineno}: a run_config record belongs on the first line")
            continue
        try:
            out.append(parse(rec))
            first = first_line.setdefault(rec[unique], lineno) if unique in rec else lineno
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{path}: line {lineno}: bad record ({type(exc).__name__}: {exc})") from exc
        if first != lineno:
            raise CorpusFormatError(f"{path}: line {lineno}: repeated {unique} {rec[unique]!r} (first on line {first})")
    return out


# The JSON types json_field checks, each named as its error message names it.
_KINDS = {
    str: "string", int: "integer", float: "number", bool: "boolean",
    list[str]: "array of strings", list[dict]: "array of objects",
}


def json_field(rec: dict, key: str, kind, nullable: bool = False):
    """``rec[key]`` if it has the JSON type *kind*, a key of ``_KINDS``; else a ValueError naming *key*.

    Null reads as None only if *nullable*. Types are checked, never
    coerced: a bool is no integer or number, and a string is no array,
    rather than split into its characters. A number (``float``) is an int
    or a float and reads as a float; an int past the float range is a
    ValueError saying it is too large for a float.
    """
    value = rec[key]
    if value is None and nullable:
        return None
    try:
        if type(value) is kind:
            return value
        if kind is float and type(value) is int:
            return float(value)
        if type(value) is list and kind == list[str]:
            "".join(value)  # a TypeError at the first item that is not a string
            return list(value)  # sized to its items: the parsed list keeps its growth slack
        if type(value) is list and kind == list[dict] and all(type(item) is dict for item in value):
            return value
    except OverflowError:
        raise ValueError(f"{key}: number is too large for a float") from None
    except TypeError:
        pass
    raise ValueError(f"{key}: expected a JSON {_KINDS[kind]}{' or null' if nullable else ''}")


def read_run_config(path: str | Path) -> dict:
    """The ``run_config`` record leading a JSONL file, without its type; {} when there is none.

    Bad JSON on the first non-blank line raises the CorpusFormatError that
    ``read_jsonl`` would.
    """
    first = next(_lines(path), None)
    rec = None if first is None else _decode(path, *first)
    if not isinstance(rec, dict) or rec.get("type") != "run_config":
        return {}
    return {key: value for key, value in rec.items() if key != "type"}
