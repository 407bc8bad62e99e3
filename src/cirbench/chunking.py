"""Deterministic tokenizer and fixed-token-window chunker.

Tokens are lowercase alphanumeric runs. Chunks are consecutive,
non-overlapping windows cut from section bodies; a window never crosses
a section boundary, so every chunk has an unambiguous heading path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ._io import json_field, read_jsonl, write_jsonl
from .errors import ConfigError

if TYPE_CHECKING:
    from .corpus import Document

MIN_CHUNK_TARGET = 16

_TOKEN_RE = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase *text* and split it into alphanumeric tokens.

    Whitespace and punctuation act as separators and are dropped. The rule
    is locale independent: equal input gives equal output on any platform.
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Chunk:
    """A contiguous token window cut from one document section."""

    chunk_id: str
    doc_id: str
    section_index: int
    heading_path: list[str]
    tokens: list[str]

    @property
    def length(self) -> int:
        return len(self.tokens)


def make_chunk_id(doc_id: str, section_index: int, offset: int) -> str:
    """Canonical chunk id; sorts lexicographically in document order."""
    return f"{doc_id}:s{section_index:03d}:t{offset:05d}"


def parse_chunk_id(chunk_id: str) -> tuple[str, int, int]:
    """Recover (doc_id, section_index, token offset) from a chunk id; its numbers are ASCII digits."""
    if not isinstance(chunk_id, str):
        raise ValueError(f"chunk id must be a string, got {chunk_id!r}")
    doc_id, sec, off = chunk_id.rsplit(":", 2)
    if not (sec[:1] == "s" and off[:1] == "t" and sec[1:].isdigit() and off[1:].isdigit() and (sec + off).isascii()):
        raise ValueError(f"malformed chunk id: {chunk_id!r}")
    return doc_id, int(sec[1:]), int(off[1:])


def chunk_document(doc: "Document", target: int) -> list[Chunk]:
    """Split every section body into consecutive windows of *target* tokens.

    The final window of a section may be shorter but never empty; order is
    preserved and the concatenation of all chunk token sequences equals the
    concatenation of the section bodies.
    """
    if target < MIN_CHUNK_TARGET:
        raise ConfigError(f"chunk_target: must be >= {MIN_CHUNK_TARGET}, got {target}")
    chunks: list[Chunk] = []
    for section_index, section in enumerate(doc.sections):
        body = section.body
        for offset in range(0, len(body), target):
            chunks.append(
                Chunk(
                    chunk_id=make_chunk_id(doc.doc_id, section_index, offset),
                    doc_id=doc.doc_id,
                    section_index=section_index,
                    heading_path=list(section.heading_path),
                    tokens=list(body[offset : offset + target]),
                )
            )
    return chunks


def write_chunks(chunks: Iterable[Chunk], path: str | Path, header: dict | None = None) -> None:
    """Dump chunks as JSON Lines: chunk_id, doc_id, heading_path, tokens."""
    records = (
        {"chunk_id": c.chunk_id, "doc_id": c.doc_id, "heading_path": c.heading_path, "tokens": c.tokens}
        for c in chunks
    )
    write_jsonl(path, records, header)


def record_tokens(rec: dict) -> list[str]:
    """A chunks or enriched record's ``tokens``: a non-empty JSON array of strings, else ValueError."""
    tokens = json_field(rec, "tokens", list[str])
    if not tokens:
        raise ValueError("tokens: expected a non-empty JSON array of strings")
    return tokens


def _chunk_from_record(rec: dict) -> Chunk:
    doc_id, section_index, _ = parse_chunk_id(rec["chunk_id"])
    if rec["doc_id"] != doc_id:
        raise ValueError(f"doc_id {rec['doc_id']!r} disagrees with chunk id {rec['chunk_id']!r}")
    tokens = record_tokens(rec)
    return Chunk(
        chunk_id=rec["chunk_id"],
        doc_id=doc_id,
        section_index=section_index,
        heading_path=json_field(rec, "heading_path", list[str]),
        tokens=tokens,
    )


def read_chunks(path: str | Path) -> list[Chunk]:
    """Read a chunk dump; section index and offset come from the chunk id, whose document must be ``doc_id``.

    An empty ``tokens`` array is a CorpusFormatError naming the line.
    """
    return read_jsonl(path, _chunk_from_record, unique="chunk_id")
