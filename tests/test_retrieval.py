from __future__ import annotations

import random
import struct
import tracemalloc

import numpy as np
import pytest

from cirbench import VectorIndex, build_index, load_index, save_index, search
from cirbench.errors import IndexFormatError, IndexValidationError


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _entries(rng: np.random.Generator, n: int, dim: int, n_dupes: int = 0):
    out = []
    for i in range(n):
        out.append((f"doc-{i % 7:04d}:s{i % 5:03d}:t{i:05d}", f"doc-{i % 7:04d}", i % 5, _unit(rng, dim)))
    for j in range(n_dupes):
        # tie case: same vector under a different id
        src = out[j % len(out)]
        out.append((f"tie-{j:04d}:s000:t00000", "tie-doc", 0, src[3].copy()))
    random.Random(4).shuffle(out)
    return out


def _oracle(entries, query: np.ndarray, k: int):
    """Full-scan recomputation: rebuild the score matrix from the raw
    entries (f32-cast, f64 product per the index contract), then argsort
    everything with the (-score, chunk_id) tie-break and slice."""
    q = np.asarray(query, dtype=np.float64)
    matrix = np.array([np.asarray(vec, dtype="<f4") for *_, vec in entries]).astype(np.float64)
    scores = matrix @ q
    rows = [
        (cid, did, sec, float(scores[i])) for i, (cid, did, sec, _) in enumerate(entries)
    ]
    rows.sort(key=lambda r: (-r[3], r[0]))
    return rows[:k]


def test_empty_entry_list_is_valid():
    index = build_index([])
    assert index.count == 0
    assert search(index, np.zeros(0), 5) == []


def test_duplicate_chunk_id_rejected():
    rng = np.random.default_rng(1)
    v = _unit(rng, 8)
    with pytest.raises(IndexValidationError, match="duplicate"):
        build_index([("a", "d", 0, v), ("a", "d", 0, v)])


def test_dim_mismatch_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(IndexValidationError, match="dimension"):
        build_index([("a", "d", 0, _unit(rng, 8)), ("b", "d", 0, _unit(rng, 16))])


def test_non_unit_vector_rejected():
    with pytest.raises(IndexValidationError, match="non-unit"):
        build_index([("a", "d", 0, np.full(8, 0.5))])
    with pytest.raises(IndexValidationError, match="non-unit"):
        build_index([("a", "d", 0, np.full(8, np.nan))])


def test_thousand_entry_index():
    rng = np.random.default_rng(3)
    index = build_index(_entries(rng, 1000, 256))
    assert index.count == 1000
    assert index.dim == 256


def test_self_query_ranks_first():
    rng = np.random.default_rng(5)
    entries = _entries(rng, 40, 32)
    index = build_index(entries)
    target = entries[13]
    hits = search(index, target[3], 1)
    assert hits[0].chunk_id == target[0]
    assert hits[0].score == pytest.approx(1.0, abs=1e-5)


def test_k_larger_than_index():
    rng = np.random.default_rng(6)
    entries = _entries(rng, 9, 16)
    index = build_index(entries)
    assert len(search(index, _unit(rng, 16), 50)) == 9


def test_k_validation():
    rng = np.random.default_rng(7)
    index = build_index(_entries(rng, 4, 8))
    with pytest.raises(ValueError):
        search(index, _unit(rng, 8), 0)
    with pytest.raises(IndexValidationError):
        search(index, _unit(rng, 16), 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_query_rejected(bad):
    rng = np.random.default_rng(19)
    index = build_index(_entries(rng, 6, 8))
    query = _unit(rng, 8)
    query[3] = bad
    with pytest.raises(IndexValidationError, match="NaN or infinite"):
        search(index, query, 5)


def test_tie_group_straddling_the_kth_score_matches_oracle():
    # Ten rows share one vector under ids interleaved with the others', so
    # for some k the cut falls inside the tie group and the chunk id decides.
    rng = np.random.default_rng(20)
    shared = _unit(rng, 16)
    entries = [
        (f"c-{i:03d}", f"d-{i % 3}", i % 2, shared.copy() if i % 4 == 1 else _unit(rng, 16)) for i in range(40)
    ]
    random.Random(5).shuffle(entries)
    index = build_index(entries)
    q = _unit(rng, 16)
    scores = index.vectors @ q
    tied = scores[[i for i, e in enumerate(entries) if int(e[0][2:]) % 4 == 1]]
    assert len(set(tied.tolist())) == 1
    assert (scores > tied[0]).any() and (scores < tied[0]).any()
    for k in range(1, index.count + 2):
        assert [tuple(h) for h in search(index, q, k)] == _oracle(entries, q, k)


def test_search_matches_bruteforce_oracle():
    rng = np.random.default_rng(8)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        dim = int(rng.choice([8, 16, 32]))
        entries = _entries(rng, n, dim, n_dupes=3)
        index = build_index(entries)
        for _ in range(3):
            q = _unit(rng, dim)
            k = int(rng.integers(1, 12))
            hits = [tuple(h) for h in search(index, q, k)]
            assert hits == _oracle(entries, q, k)


def test_deterministic_across_runs():
    rng = np.random.default_rng(9)
    entries = _entries(rng, 50, 16)
    q = _unit(rng, 16)
    a = search(build_index(entries), q, 10)
    b = search(build_index(entries), q, 10)
    assert a == b


def test_insertion_order_irrelevant():
    rng = np.random.default_rng(14)
    entries = _entries(rng, 60, 16)
    q = _unit(rng, 16)
    reordered = list(reversed(entries))
    assert search(build_index(entries), q, 10) == search(build_index(reordered), q, 10)


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    entries = _entries(rng, 1000, 64)
    index = build_index(entries, hash_seed=(1 << 64) - 1)
    path = tmp_path / "vectors.cirx"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.hash_seed == index.hash_seed
    assert loaded.chunk_ids == index.chunk_ids
    assert loaded.doc_ids == index.doc_ids
    assert loaded.section_indexes == index.section_indexes
    assert loaded.vectors.tobytes() == index.vectors.tobytes()
    q = _unit(rng, 64)
    before = search(index, q, 10)
    after = search(loaded, q, 10)
    assert [h.score for h in before] == [h.score for h in after]
    assert before == after


def test_empty_index_round_trip(tmp_path):
    path = tmp_path / "empty.cirx"
    save_index(build_index([], hash_seed=0), path)
    loaded = load_index(path)
    assert loaded.count == 0


def test_corrupted_magic(tmp_path):
    rng = np.random.default_rng(11)
    path = tmp_path / "vectors.cirx"
    save_index(build_index(_entries(rng, 5, 8), hash_seed=1), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    bad = tmp_path / "bad.cirx"
    bad.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError, match="magic"):
        load_index(bad)


def test_truncated_file(tmp_path):
    rng = np.random.default_rng(12)
    path = tmp_path / "vectors.cirx"
    save_index(build_index(_entries(rng, 20, 16), hash_seed=1), path)
    data = path.read_bytes()
    for cut in (3, len(data) // 3, len(data) - 5):
        bad = tmp_path / f"cut{cut}.cirx"
        bad.write_bytes(data[:cut])
        with pytest.raises(IndexFormatError):
            load_index(bad)


def test_count_beyond_file_size_is_truncation(tmp_path):
    rng = np.random.default_rng(17)
    path = tmp_path / "vectors.cirx"
    save_index(build_index(_entries(rng, 5, 8), hash_seed=1), path)
    data = bytearray(path.read_bytes())
    data[10:18] = (1 << 60).to_bytes(8, "little")  # count
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError, match="truncated"):
        load_index(path)


def test_a_file_whose_vectors_are_cut_names_the_vectors_not_the_id_table(tmp_path):
    rng = np.random.default_rng(18)
    path = tmp_path / "vectors.cirx"
    save_index(build_index(_entries(rng, 20, 16), hash_seed=1), path)
    data = path.read_bytes()
    vectors_at = len(data) - 20 * 16 * 4
    for cut in (vectors_at, vectors_at + 100, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(IndexFormatError, match=f"expected {len(data)} bytes, found {cut}$"):
            load_index(path)


def test_a_file_with_a_valid_version_that_ends_inside_the_header_is_a_truncated_header(tmp_path):
    rng = np.random.default_rng(19)
    path = tmp_path / "vectors.cirx"
    save_index(build_index(_entries(rng, 3, 8), hash_seed=1), path)
    data = path.read_bytes()
    for cut in (6, 25):  # after the version, short of the 26-byte header
        path.write_bytes(data[:cut])
        with pytest.raises(IndexFormatError, match="truncated header"):
            load_index(path)


def test_index_holds_float32_values_as_one_float64_matrix():
    rng = np.random.default_rng(18)
    entries = _entries(rng, 50, 16)
    index = build_index(entries)
    assert index.vectors.dtype == np.float64 and index.vectors.flags.c_contiguous
    assert np.array_equal(index.vectors, np.array([e[3] for e in entries], dtype=np.float32))
    floats = [name for name, value in vars(index).items() if isinstance(value, np.ndarray) and value.dtype.kind == "f"]
    assert floats == ["vectors"]
    q = _unit(rng, 16)
    top = search(index, q, 1)[0]
    assert top.score == float((index.vectors @ q)[index.chunk_ids.index(top.chunk_id)])


def test_trailing_garbage(tmp_path):
    rng = np.random.default_rng(13)
    path = tmp_path / "vectors.cirx"
    save_index(build_index(_entries(rng, 5, 8), hash_seed=1), path)
    bad = tmp_path / "long.cirx"
    bad.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(IndexFormatError, match="bytes"):
        load_index(bad)


def test_save_requires_hash_seed(tmp_path):
    rng = np.random.default_rng(15)
    with pytest.raises(IndexValidationError, match="hash_seed"):
        save_index(build_index(_entries(rng, 5, 8)), tmp_path / "vectors.cirx")


def test_version_1_file_rejected(tmp_path):
    rng = np.random.default_rng(16)
    path = tmp_path / "vectors.cirx"
    save_index(build_index(_entries(rng, 5, 8), hash_seed=1), path)
    data = bytearray(path.read_bytes())
    data[4:6] = (1).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError, match="re-run `cirbench embed`"):
        load_index(path)


def test_index_columns_of_unequal_length_rejected():
    vecs = np.eye(3, 4)
    with pytest.raises(IndexValidationError, match="shape mismatch"):
        VectorIndex(4, ["a", "b", "c"], ["d", "d"], [0, 0, 0], vecs)
    with pytest.raises(IndexValidationError, match="shape mismatch"):
        VectorIndex(4, ["a", "b", "c"], ["d", "d", "d"], [0, 0], vecs)
    with pytest.raises(IndexValidationError, match="shape mismatch"):
        VectorIndex(4, ["a", "b"], ["d", "d"], [0, 0], vecs)


def test_index_hash_seed_outside_u64_rejected():
    vecs = np.eye(2, 4)
    with pytest.raises(IndexValidationError, match="u64"):
        VectorIndex(4, ["a", "b"], ["d", "d"], [0, 0], vecs, hash_seed=1 << 64)
    assert VectorIndex(4, ["a", "b"], ["d", "d"], [0, 0], vecs, hash_seed=(1 << 64) - 1).count == 2


def _unit_rows(n: int, dim: int) -> np.ndarray:
    m = np.random.default_rng(23).standard_normal((n, dim))
    return m / np.linalg.norm(m, axis=1)[:, None]


def _columns(n: int) -> tuple[list[str], list[str], list[int]]:
    return [f"c{i:05d}" for i in range(n)], ["d"] * n, [0] * n


def test_index_vectors_do_not_depend_on_the_input_form():
    m = _unit_rows(2500, 256)  # several widening blocks
    expected = np.asarray(m, dtype=np.float32).astype(np.float64).tobytes()
    for vectors in (m, m.astype(np.float32), list(m), list(m.astype(np.float32))):
        assert VectorIndex(256, *_columns(2500), vectors).vectors.tobytes() == expected
    entries = [(cid, "d", 0, row) for cid, row in zip(_columns(2500)[0], m)]
    assert build_index(entries).vectors.tobytes() == expected


def test_index_does_not_alias_the_callers_array():
    for m in (_unit_rows(40, 16), _unit_rows(40, 16).astype(np.float32)):
        index = VectorIndex(16, *_columns(40), m)
        before = index.vectors.copy()
        m[:] = 0.0
        assert np.array_equal(index.vectors, before)


def test_index_rows_of_the_wrong_width_are_refused_not_broadcast():
    with pytest.raises(IndexValidationError, match="shape mismatch"):
        VectorIndex(4, *_columns(3), np.ones((3, 1)))
    with pytest.raises(IndexValidationError, match="dimension mismatch at 'c00001'"):
        VectorIndex(4, *_columns(3), [np.eye(4)[0], np.ones(1), np.eye(4)[2]])


def test_build_index_peak_memory_is_the_float64_matrix_and_a_block():
    m = _unit_rows(4096, 256)
    entries = [(cid, "d", 0, row) for cid, row in zip(_columns(4096)[0], m)]
    tracemalloc.start()
    try:
        index = build_index(entries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A full float32 stack before the float64 copy would put the peak near 1.5 times the matrix.
    assert peak < 1.2 * index.vectors.nbytes


def _load_entry_by_entry(path) -> tuple[list[str], list[str], list[int]]:
    """The id table read entry by entry, as load_index read it before it worked a column at a time."""
    data = path.read_bytes()
    (count,) = struct.unpack_from("<Q", data, 10)
    offset = 26
    chunk_ids: list[str] = []
    doc_ids: list[str] = []
    sections: list[int] = []
    try:
        for _ in range(count):
            end = offset + 2 + (data[offset] | data[offset + 1] << 8)
            chunk_ids.append(data[offset + 2 : end].decode("utf-8"))
            offset = end + 2 + (data[end] | data[end + 1] << 8)
            doc_ids.append(data[end + 2 : offset].decode("utf-8"))
            sections.append(struct.unpack_from("<I", data, offset)[0])
            offset += 4
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"{path}: id table entry {len(doc_ids)} is not UTF-8 ({exc.reason})") from exc
    except (IndexError, struct.error) as exc:
        raise IndexFormatError(f"{path}: truncated id table") from exc
    return chunk_ids, doc_ids, sections


def _saved(tmp_path, ids: list[tuple[str, str]]):
    """A saved dim-2 index holding *ids* as (chunk id, doc id) pairs, with sections that differ per entry."""
    angles = np.linspace(0.0, 3.0, len(ids))
    vectors = np.stack([np.cos(angles), np.sin(angles)], axis=1) if ids else np.zeros((0, 2))
    entries = [(cid, did, (i * 7919) % 70000, vec) for i, ((cid, did), vec) in enumerate(zip(ids, vectors))]
    path = tmp_path / "vectors.cirx"
    save_index(build_index(entries, hash_seed=9), path)
    return path


def _table_end(path) -> int:
    """Where the vectors of a file ``_saved`` wrote start."""
    data = path.read_bytes()
    (count,) = struct.unpack_from("<Q", data, 10)
    return len(data) - count * 2 * 4


def _reference_ids() -> list[tuple[str, str]]:
    # The reference index's two runs: 635 entries of (26, 14) bytes, then 420 of (30, 18).
    return [
        (f"{kind}-{i // 20:04d}:s{i % 20:03d}:t{i % 3 * 250:05d}", f"{kind}-{i // 20:04d}")
        for kind, n in (("normative", 635), ("transactional", 420))
        for i in range(n)
    ]


_ID_TABLES = {
    "reference-shaped": _reference_ids(),
    "lengths change at every entry": [("c" * (1 + i % 2) + f"{i}", "d" * (2 - i % 2)) for i in range(300)],
    "three strides in turn": [("c" * (i % 3) + f"{i:04d}", "d" * (2 - i % 3 % 2)) for i in range(300)],
    "lengths change at the last entry only": [(f"c{i:05d}", "doc") for i in range(1199)] + [("c-last", "doc-last")],
    "runs of two": [("c" * (i // 2 % 2) + f"{i:04d}", "d") for i in range(200)],
    "runs of one to forty entries, then a long one": [
        ("c" * (run % 2) + f"{run:02d}-{i:02d}", "d") for run in [*range(1, 41), 60, 500] for i in range(run)
    ],
    "multi-byte UTF-8": [(f"κεφ-{i:03d}-é", "文書" if i % 3 else "𝔡oc") for i in range(100)],
    "an id holds the separator": [(f"c{i:03d}", "d") for i in range(50)] + [("c\0nul", "d\0"), ("c-after", "d")],
    "an empty doc id": [(f"c{i:03d}", "" if i % 5 == 2 else "d") for i in range(60)],
    "one entry": [("only", "doc")],
    "zero entries": [],
}


@pytest.mark.parametrize("table", list(_ID_TABLES))
def test_column_wise_load_equals_the_entry_by_entry_walk(tmp_path, table):
    path = _saved(tmp_path, _ID_TABLES[table])
    loaded = load_index(path)
    assert (loaded.chunk_ids, loaded.doc_ids, loaded.section_indexes) == _load_entry_by_entry(path)
    assert loaded.chunk_ids == [cid for cid, _ in _ID_TABLES[table]]
    expected = np.frombuffer(path.read_bytes(), dtype="<f4", offset=_table_end(path)).astype(np.float64)
    assert loaded.vectors.tobytes() == expected.tobytes()


def _long_ids(n: int) -> list[tuple[str, str]]:
    # Ids longer than a dim-2 vector, so a file cut inside its id table passes load_index's size bound.
    return [(f"chunk-{i:04d}" + "c" * 30, f"doc-{i // 3:03d}" + "d" * 20) for i in range(n)]


@pytest.mark.parametrize("entry", [0, 5, 9])
@pytest.mark.parametrize("column", ["chunk id", "doc id"])
def test_an_id_that_is_not_utf8_names_its_entry_as_the_walk_did(tmp_path, entry, column):
    ids = _long_ids(10)
    path = _saved(tmp_path, ids)
    target = ids[entry][0 if column == "chunk id" else 1].encode()
    data = path.read_bytes()
    at = data.index(target) if column == "chunk id" else data.index(target, data.index(ids[entry][0].encode()))
    path.write_bytes(data[: at + 3] + b"\xc3\x28" + data[at + 5 :])
    with pytest.raises(IndexFormatError) as walked:
        _load_entry_by_entry(path)
    with pytest.raises(IndexFormatError) as loaded:
        load_index(path)
    assert str(loaded.value) == str(walked.value)
    assert f"entry {entry} is not UTF-8 (invalid continuation byte)" in str(loaded.value)


def test_a_cut_at_every_byte_of_the_last_two_entries_is_truncation(tmp_path):
    path = _saved(tmp_path, _long_ids(12))
    data, end = path.read_bytes(), _table_end(path)
    entry = 2 + len(_long_ids(12)[0][0]) + 2 + len(_long_ids(12)[0][1]) + 4
    for cut in range(end - 2 * entry, end):
        path.write_bytes(data[:cut])
        with pytest.raises(IndexFormatError, match="truncated id table$"):
            load_index(path)
        with pytest.raises(IndexFormatError, match="truncated id table$"):
            _load_entry_by_entry(path)


@pytest.mark.parametrize("bad", [3, 11])
def test_a_bad_id_before_a_cut_is_the_defect_reported(tmp_path, bad):
    ids = _long_ids(12)
    path = _saved(tmp_path, ids)
    data = path.read_bytes()
    cut = data.index(ids[11][1].encode(), data.index(ids[11][0].encode())) + 4  # inside the last doc id
    at = data.index(ids[bad][0].encode())
    data = data[:at] + b"\xff" + data[at + 1 :]
    path.write_bytes(data[:cut])
    with pytest.raises(IndexFormatError, match=f"entry {bad} is not UTF-8 \\(invalid start byte\\)"):
        load_index(path)
    with pytest.raises(IndexFormatError, match=f"entry {bad} is not UTF-8"):
        _load_entry_by_entry(path)


def test_a_cut_inside_a_character_of_an_id_is_truncation(tmp_path):
    ids = [(f"chunk-{i:04d}" + "é" * 20, f"doc-{i:03d}" + "d" * 20) for i in range(12)]
    path = _saved(tmp_path, ids)
    data = path.read_bytes()
    cut = data.index(ids[11][0].encode()) + 13  # between the two bytes of the last chunk id's second 'é'
    path.write_bytes(data[:cut])
    with pytest.raises(IndexFormatError, match="truncated id table$"):
        load_index(path)
    # Read entry by entry, the cut character itself was the defect.
    with pytest.raises(IndexFormatError, match="entry 11 is not UTF-8 \\(unexpected end of data\\)"):
        _load_entry_by_entry(path)


def _fuzz_ids(rng: random.Random) -> list[tuple[str, str]]:
    """Runs of 1 to 40 entries and one long run, with multi-byte, NUL and empty ids; one chunk id may be empty."""
    runs = [rng.randint(1, 40) for _ in range(rng.randint(1, 5))]
    runs.insert(rng.randrange(len(runs) + 1), rng.randint(100, 300))
    ids: list[tuple[str, str]] = []
    for run in runs:
        tail = "".join(rng.choice("aé文𝔡\0") for _ in range(rng.randint(0, 40)))
        doc = "".join(rng.choice("dé\0") for _ in range(rng.randint(0, 6) // 2))
        for _ in range(run):
            ids.append((f"{len(ids):04d}{tail}", doc))
    if rng.random() < 0.3:
        ids.insert(rng.randrange(len(ids) + 1), ("", ""))
    return ids


def _walked(path) -> tuple[list[str], list[str], list[int], bytes] | str:
    """What load_index must give for *path*: the entry-by-entry walk's columns and vector bytes, or the defect's message."""
    data = path.read_bytes()
    dim, count, hash_seed = struct.unpack_from("<IQQ", data, 6)
    if count * 8 > len(data) - 26:  # load_index's bound: too short for even the smallest id table
        return f"{path}: truncated id table"
    try:
        chunk_ids, doc_ids, sections = _load_entry_by_entry(path)
    except IndexFormatError as exc:
        return str(exc)
    end = 26 + sum(8 + len(cid.encode()) + len(did.encode()) for cid, did in zip(chunk_ids, doc_ids))
    if len(data) != end + count * dim * 4:
        return f"{path}: expected {end + count * dim * 4} bytes, found {len(data)}"
    vectors = np.frombuffer(data, dtype="<f4", offset=end).reshape(count, dim)
    try:
        index = VectorIndex(dim, chunk_ids, doc_ids, sections, vectors, hash_seed)
    except IndexValidationError as exc:
        return f"{path}: {exc}"
    return chunk_ids, doc_ids, sections, index.vectors.tobytes()


def _cut_inside(data: bytes, entry: int) -> bool:
    """Whether the end of *data* cuts an id of id table entry *entry*."""
    offset, u16 = 26, lambda at: data[at] | data[at + 1] << 8
    for _ in range(entry):
        offset += 2 + u16(offset)
        offset += 6 + u16(offset)
    doc_at = offset + 2 + u16(offset)
    return doc_at > len(data) or doc_at + 2 + u16(doc_at) > len(data)


def test_load_index_equals_the_walk_on_cut_and_flipped_files(tmp_path):
    rng = random.Random(2020)
    cut_characters = 0
    for trial in range(120):
        dim = (2, 8)[trial % 2]
        ids = _fuzz_ids(rng)
        angles = np.linspace(0.0, 3.0, len(ids))
        vectors = np.zeros((len(ids), dim))
        vectors[:, 0], vectors[:, 1] = np.cos(angles), np.sin(angles)
        entries = [(cid, did, rng.randrange(1 << 32), vec) for (cid, did), vec in zip(ids, vectors)]
        path = tmp_path / "vectors.cirx"
        save_index(build_index(entries, hash_seed=trial), path)
        data = path.read_bytes()
        if trial % 3:  # a cut after the header, inside the id table half of the time
            data = data[: rng.randrange(26, rng.choice([len(data), _table_end(path)]))]
        else:  # one byte of the id table set to a value that breaks a length, a character or an id
            at = rng.randrange(26, _table_end(path))
            data = data[:at] + bytes([rng.choice([0, 1, 0x80, 0xC3, 0xFF, rng.randrange(256)])]) + data[at + 1 :]
        path.write_bytes(data)
        want = _walked(path)
        try:
            loaded = load_index(path)
        except IndexFormatError as exc:
            got = str(exc)
        else:
            got = loaded.chunk_ids, loaded.doc_ids, loaded.section_indexes, loaded.vectors.tobytes()
        if isinstance(want, str) and want.endswith("is not UTF-8 (unexpected end of data)"):
            entry = int(want.split("entry ")[1].split()[0])
            if _cut_inside(data, entry):  # the one documented difference: the cut, not the split character
                cut_characters += 1
                want = f"{path}: truncated id table"
        assert got == want, trial
    assert cut_characters > 0


@pytest.mark.parametrize(
    "chunk_id, doc_id, section",
    [("c" * 65536, "d", 0), ("c", "é" * 32768, 0), ("c", "d", -1), ("c", "d", 1 << 32), ("c\ud800", "d", 0)],
    ids=["long chunk id", "long doc id", "negative section", "section past a u32", "lone surrogate"],
)
def test_an_entry_cirx_cannot_hold_is_refused_before_anything_is_written(tmp_path, chunk_id, doc_id, section):
    entries = [("first", "d", 0, np.array([1.0, 0.0])), (chunk_id, doc_id, section, np.array([0.0, 1.0]))]
    path = tmp_path / "vectors.cirx"
    path.write_bytes(b"kept")
    with pytest.raises(IndexValidationError, match=r"^entry 1 \('c.*'\) does not fit CIRX: each id must be UTF-8"):
        save_index(build_index(entries, hash_seed=3), path)
    assert path.read_bytes() == b"kept"
    assert [p.name for p in tmp_path.iterdir()] == ["vectors.cirx"]
