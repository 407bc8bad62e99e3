"""Exact cosine kNN over unit vectors, with binary persistence.

Search scores every row: the score vector is one float64 matrix-vector
product of the index's vectors (32-bit values, exactly widened) against
the query. Only the rows that can reach the top k are sorted: a partition
finds the k-th score, and the rows scoring at least that much are ordered
by descending score, ties broken by ascending chunk id. The result equals
a sort of every row, so equal index plus equal query always yields the
same ranking.

File format (all integers little-endian): magic ``CIRX``, version u16
(2), dim u32, count u64, the embedder's hash seed u64; per entry a
u16-length-prefixed UTF-8 chunk id, a u16-length-prefixed UTF-8 doc id
and a u32 section index; then the packed float32 vectors in entry order.

``load_index`` walks the id table once, entry by entry. It reads each u16
length from two indexed bytes rather than a slice, and decodes each
distinct doc id once, since a document's chunks share it; a doc id that is
not UTF-8 is never cached, so every entry holding it is checked. Any read
past the end of the file is a truncated id table.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from ._io import atomic_write_bytes
from .errors import IndexFormatError, IndexValidationError

MAGIC = b"CIRX"
VERSION = 2
_HEADER = struct.Struct("<HIQQ")  # version, dim, count, hash_seed
_U32 = struct.Struct("<I")
_UNIT_TOL = 1e-4
# The most values VectorIndex rounds through float32 at once: bounds its staging block to 1 MB.
_WIDEN_VALUES = 1 << 18


class Hit(NamedTuple):
    chunk_id: str
    doc_id: str
    section_index: int
    score: float


@dataclass
class VectorIndex:
    """Unit vectors under unique chunk ids, plus the embedder seed that made them.

    Construction checks the index contract (one doc id, section and
    ``dim``-wide unit-norm row per unique chunk id; a u64 ``hash_seed``), so
    built and loaded indexes pass the same checks. *vectors* may be a
    (count, dim) array or a sequence of rows. They are rounded to the file's
    float32 and held widened to float64, in entry order, in a new array that
    is filled a block of rows at a time, so no full-size float32 copy is made
    and the caller's array is never aliased.
    """

    dim: int
    chunk_ids: list[str]
    doc_ids: list[str]
    section_indexes: list[int]
    vectors: np.ndarray  # (count, dim) float64 holding float32 values, C-order
    hash_seed: int | None = None  # the embedder's; required by save_index
    _id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, rows = len(self.chunk_ids), self.vectors
        if isinstance(rows, np.ndarray):
            shape = rows.shape
        else:
            shape = (len(rows), self.dim)
            for cid, row in zip(self.chunk_ids, rows):
                if np.shape(row) != (self.dim,):
                    raise IndexValidationError(f"dimension mismatch at {cid!r}: {np.shape(row)} != ({self.dim},)")
        if len(self.doc_ids) != n or len(self.section_indexes) != n or shape != (n, self.dim):
            raise IndexValidationError(
                f"shape mismatch: {n} chunk ids, {len(self.doc_ids)} doc ids, {len(self.section_indexes)} sections"
                f" and vectors of shape {shape} for dim {self.dim}"
            )
        self.vectors = np.empty((n, self.dim))
        step = max(1, _WIDEN_VALUES // max(1, self.dim))
        for lo in range(0, n, step):
            self.vectors[lo : lo + step] = np.asarray(rows[lo : lo + step], dtype=np.float32)
        if self.hash_seed is not None and not 0 <= self.hash_seed < 1 << 64:
            raise IndexValidationError(f"hash_seed {self.hash_seed} does not fit in a u64")
        ids = self.chunk_ids
        order = sorted(range(n), key=ids.__getitem__)
        if len(set(ids)) != n:
            dupe = next(ids[a] for a, b in zip(order, order[1:]) if ids[a] == ids[b])
            raise IndexValidationError(f"duplicate chunk_id {dupe!r}")
        norms = np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors))
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_TOL))  # a NaN norm fails too
        if bad.size:
            first = int(bad[0])
            raise IndexValidationError(f"non-unit vector at {ids[first]!r} (norm {norms[first]:.6f})")
        self._id_rank = np.empty(n, dtype=np.int64)
        self._id_rank[order] = np.arange(n)

    @property
    def count(self) -> int:
        return len(self.chunk_ids)


def build_index(
    entries: Iterable[tuple[str, str, int, np.ndarray]], hash_seed: int | None = None
) -> VectorIndex:
    """Index (chunk_id, doc_id, section_index, vector) entries; the index widens their vectors without stacking them."""
    entries = list(entries)
    return VectorIndex(
        dim=len(entries[0][3]) if entries else 0,
        chunk_ids=[e[0] for e in entries],
        doc_ids=[e[1] for e in entries],
        section_indexes=[int(e[2]) for e in entries],
        vectors=[e[3] for e in entries],
        hash_seed=hash_seed,
    )


def search(index: VectorIndex, query: np.ndarray, k: int) -> list[Hit]:
    """Exact top-k by cosine score; ties broken by ascending chunk id.

    A query of the wrong shape, or holding a NaN or infinite value, raises
    IndexValidationError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if index.count == 0:
        return []
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (index.dim,):
        raise IndexValidationError(f"query dimension {q.shape} does not match index ({index.dim},)")
    if not np.isfinite(q).all():
        raise IndexValidationError("query vector holds a NaN or infinite value")
    scores = index.vectors @ q
    n = index.count
    # Every row outside the candidates scores strictly below the k-th score,
    # so sorting the candidates alone gives the full sort's first k rows.
    rows = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k]) if k < n else np.arange(n)
    order = rows[np.lexsort((index._id_rank[rows], -scores[rows]))][:k]
    top = order.tolist()
    fields = (map(column.__getitem__, top) for column in (index.chunk_ids, index.doc_ids, index.section_indexes))
    return list(map(Hit._make, zip(*fields, scores[order].tolist())))


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Write the binary index; the vector payload round-trips bit-exactly.

    An index without a ``hash_seed`` is refused: a reader could not embed
    queries that match its vectors.
    """
    if index.hash_seed is None:
        raise IndexValidationError("cannot save an index without the embedder's hash_seed")
    parts = [MAGIC, _HEADER.pack(VERSION, index.dim, index.count, index.hash_seed)]
    for cid, did, sec in zip(index.chunk_ids, index.doc_ids, index.section_indexes):
        cid_b = cid.encode("utf-8")
        did_b = did.encode("utf-8")
        parts.append(struct.pack("<H", len(cid_b)))
        parts.append(cid_b)
        parts.append(struct.pack("<H", len(did_b)))
        parts.append(did_b)
        parts.append(struct.pack("<I", sec))
    parts.append(np.ascontiguousarray(index.vectors, dtype="<f4").tobytes())
    atomic_write_bytes(path, b"".join(parts))


def load_index(path: str | Path) -> VectorIndex:
    """Read and validate a CIRX v2 file; any defect raises IndexFormatError."""
    data = Path(path).read_bytes()
    if len(data) < 6:
        raise IndexFormatError(f"{path}: truncated header")
    if data[:4] != MAGIC:
        raise IndexFormatError(f"{path}: bad magic {data[:4]!r}")
    (version,) = struct.unpack_from("<H", data, 4)
    if version == 1:
        raise IndexFormatError(f"{path}: CIRX version 1 records no hash seed; re-run `cirbench embed`")
    if version != VERSION:
        raise IndexFormatError(f"{path}: unsupported version {version}")
    if len(data) < 4 + _HEADER.size:
        raise IndexFormatError(f"{path}: truncated header")
    _, dim, count, hash_seed = _HEADER.unpack_from(data, 4)
    offset = 4 + _HEADER.size
    # Each entry takes at least 8 id-table and 4 * dim vector bytes: bound the loop.
    if count * (8 + 4 * dim) > len(data) - offset:
        raise IndexFormatError(f"{path}: truncated id table")
    chunk_ids: list[str] = []
    doc_ids: list[str] = []
    sections: list[int] = []
    decoded: dict[bytes, str] = {}  # doc id bytes -> str; only a decode that succeeded is kept
    try:
        for _ in range(count):
            end = offset + 2 + (data[offset] | data[offset + 1] << 8)
            chunk_ids.append(data[offset + 2 : end].decode("utf-8"))
            offset = end + 2 + (data[end] | data[end + 1] << 8)
            raw = data[end + 2 : offset]
            doc_id = decoded.get(raw)
            if doc_id is None:
                doc_id = decoded[raw] = raw.decode("utf-8")
            doc_ids.append(doc_id)
            sections.append(_U32.unpack_from(data, offset)[0])
            offset += 4
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"{path}: id table entry {len(doc_ids)} is not UTF-8 ({exc.reason})") from exc
    except (IndexError, struct.error) as exc:  # a length or section read past the end of the file
        raise IndexFormatError(f"{path}: truncated id table") from exc
    # A file cut inside the vectors fails this check; one cut inside the id table failed above.
    expected = offset + count * dim * 4
    if len(data) != expected:
        raise IndexFormatError(f"{path}: expected {expected} bytes, found {len(data)}")
    vectors = np.frombuffer(data, dtype="<f4", count=count * dim, offset=offset).reshape(count, dim)
    try:
        return VectorIndex(dim, chunk_ids, doc_ids, sections, vectors, hash_seed)
    except IndexValidationError as exc:
        raise IndexFormatError(f"{path}: {exc}") from exc
