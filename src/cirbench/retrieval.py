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

``load_index`` has two readers of the id table. The column-wise one
finds the entries' offsets one run of equal id lengths at a time, with
numpy checks of the length fields from the run's first entry (``embed``
writes few, long runs), then decodes every id at once; it gives up on a
cut table or an id that holds a NUL or is not UTF-8. The entry-by-entry
walk then reads the table and reports its first defect in file order.
"""

from __future__ import annotations

import codecs
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
_UNIT_TOL = 1e-4
# The most values VectorIndex rounds through float32 at once: bounds its staging block to 1 MB.
_WIDEN_VALUES = 1 << 18
# The most entries load_index's first check of a run compares; each further check compares twice as many.
_RUN_WINDOW = 256


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
        self._id_rank[np.fromiter(order, np.intp, n)] = np.arange(n)

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
    queries that match its vectors. So is one with an entry the format
    cannot hold, before anything is written.
    """
    if index.hash_seed is None:
        raise IndexValidationError("cannot save an index without the embedder's hash_seed")
    parts = [MAGIC, _HEADER.pack(VERSION, index.dim, index.count, index.hash_seed)]
    try:
        for entry, (cid, did, sec) in enumerate(zip(index.chunk_ids, index.doc_ids, index.section_indexes)):
            cid_b, did_b = cid.encode("utf-8"), did.encode("utf-8")
            parts.append(struct.pack("<H", len(cid_b)))
            parts.append(cid_b)
            parts.append(struct.pack("<H", len(did_b)))
            parts.append(did_b)
            parts.append(struct.pack("<I", sec))
    except (UnicodeEncodeError, struct.error) as exc:
        name = cid if len(cid) <= 80 else cid[:77] + "..."
        rule = f"each id must be UTF-8 of at most 65535 bytes and the section a u32, 0 to {(1 << 32) - 1}"
        raise IndexValidationError(f"entry {entry} ({name!r}) does not fit CIRX: {rule}") from exc
    parts.append(np.ascontiguousarray(index.vectors, dtype="<f4").tobytes())
    atomic_write_bytes(path, b"".join(parts))


def _id_runs(data: bytes, offset: int, count: int) -> tuple[list[int], int] | None:
    """The offsets of the id table's runs of entries with equal id lengths, and where the table ends.

    ``_run_length`` measures each run from its first entry. None if the file
    ends inside the table.
    """
    size, run_at, done = len(data), [], 0
    try:
        while done < count:
            c = data[offset] | data[offset + 1] << 8
            d = data[offset + 2 + c] | data[offset + 3 + c] << 8
            run_at.append(offset)
            stride = 8 + c + d
            n = _run_length(data, offset, stride, c, d, min(count - done, (size - offset) // stride))
            offset += n * stride
            done += n
    except IndexError:  # a length read past the end of the file
        return None
    return (run_at, offset) if offset <= size else None


def _run_length(data: bytes, offset: int, stride: int, c: int, d: int, limit: int) -> int:
    """How many of the at most *limit* entries from *offset* on have id lengths *c* and *d*; the first has.

    Each window compares the length fields at the offsets the entries
    would have, which the sequential walk would read, so the run is exact;
    the window doubles while it matches throughout.
    """
    n, window = 1, _RUN_WINDOW
    while n < limit:
        m = min(window, limit - n)
        at = offset + n * stride
        same = np.ndarray(m, "<u2", data, at, (stride,)) == c
        same &= np.ndarray(m, "<u2", data, at + 2 + c, (stride,)) == d
        if not same.all():
            return n + int(same.argmin())
        n += m
        window *= 2
    return n


def _id_columns(data: bytes, offset: int, count: int) -> tuple[list[str], list[str], list[int], int] | None:
    """Chunk ids, doc ids and sections of the *count* entries of the id table at *offset*, and where it ends.

    One decode serves every id. None if the file ends inside the table, or
    an id holds a NUL or bytes that are not UTF-8: ``_walk`` reads those.
    """
    runs = _id_runs(data, offset, count)
    if runs is None:
        return None
    run_at, end = runs
    u16 = np.ndarray(len(data) - 1, "<u2", data, 0, (1,))  # the u16 that starts at each byte
    starts = np.array(run_at, dtype=np.int64)
    clen = u16[starts].astype(np.int64)
    dlen = u16[starts + 2 + clen].astype(np.int64)
    if count > len(starts):  # spread the runs over their entries
        stride = 8 + clen + dlen
        n = np.diff(starts, append=end) // stride
        starts = np.repeat(starts - (np.cumsum(n) - n) * stride, n) + np.arange(count) * np.repeat(stride, n)
        clen, dlen = np.repeat(clen, n), np.repeat(dlen, n)
    doc_at = starts + 2 + clen
    section_at = doc_at + 2 + dlen
    sections = np.ndarray(len(data) - 3, "<u4", data, 0, (1,))[section_at].tolist()
    # Keep each id with the high byte of its length, set to NUL; drop the rest of the framing.
    raw = np.frombuffer(data, np.uint8, end - offset, offset).copy()
    keep = np.ones(end - offset, dtype=bool)
    for length_at in (starts - offset, doc_at - offset):
        keep[length_at] = False
        raw[length_at + 1] = 0
    for k in range(4):
        keep[section_at + (k - offset)] = False
    try:
        pieces = raw[keep].tobytes().decode("utf-8").split("\0")
    except UnicodeDecodeError:
        return None
    if len(pieces) != 2 * count + 1:
        return None
    return pieces[1::2], pieces[2::2], sections, end


def _walk(path: str | Path, data: bytes, offset: int, count: int) -> tuple[list[str], list[str], list[int], int]:
    """The id table at *offset* read entry by entry, as ``_id_columns`` returns it, or its first defect in file order.

    A defect raises IndexFormatError: an id that is not UTF-8 names its
    entry, and a file that ends inside the table, even inside a character
    of an id, is a truncated id table.
    """
    size, ids, sections = len(data), [], []
    for entry in range(count):
        for _ in range(2):  # the chunk id, then the doc id
            if offset + 2 > size:
                raise IndexFormatError(f"{path}: truncated id table")
            end = offset + 2 + (data[offset] | data[offset + 1] << 8)
            try:
                ids.append(codecs.utf_8_decode(data[offset + 2 : end], "strict", end <= size)[0])
            except UnicodeDecodeError as exc:
                raise IndexFormatError(f"{path}: id table entry {entry} is not UTF-8 ({exc.reason})") from exc
            offset = end
        if offset + 4 > size:
            raise IndexFormatError(f"{path}: truncated id table")
        sections.append(int.from_bytes(data[offset : offset + 4], "little"))
        offset += 4
    return ids[::2], ids[1::2], sections, offset


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
    # Each entry takes at least 8 id-table bytes: a larger count is a cut table, and the reads stay within the file.
    if count * 8 > len(data) - offset:
        raise IndexFormatError(f"{path}: truncated id table")
    chunk_ids, doc_ids, sections, offset = _id_columns(data, offset, count) or _walk(path, data, offset, count)
    # The id table is whole: a file cut inside the vectors, or longer than them, fails this check.
    expected = offset + count * dim * 4
    if len(data) != expected:
        raise IndexFormatError(f"{path}: expected {expected} bytes, found {len(data)}")
    vectors = np.frombuffer(data, dtype="<f4", count=count * dim, offset=offset).reshape(count, dim)
    try:
        return VectorIndex(dim, chunk_ids, doc_ids, sections, vectors, hash_seed)
    except IndexValidationError as exc:
        raise IndexFormatError(f"{path}: {exc}") from exc
