from __future__ import annotations

import pytest

from cirbench import chunk_document, make_chunk_id, parse_chunk_id, tokenize
from cirbench.chunking import read_chunks, write_chunks
from cirbench.corpus import Document, Section
from cirbench.errors import CorpusFormatError


def _doc(bodies: list[list[str]], doc_id: str = "normative-0000") -> Document:
    sections = [
        Section(heading_path=["alpha beta", f"gamma s{i:02d}"], body=body, facts=[])
        for i, body in enumerate(bodies)
    ]
    return Document(doc_id=doc_id, typology="normative", title=["alpha", "beta"], sections=sections)


def test_tokenize_drops_punctuation_and_lowercases():
    assert tokenize("Returns are not accepted after 24h.") == [
        "returns",
        "are",
        "not",
        "accepted",
        "after",
        "24h",
    ]


def test_tokenize_empty_input():
    assert tokenize("") == []


def test_tokenize_collapses_punctuation_and_whitespace():
    assert tokenize("A—B  c") == ["a", "b", "c"]


def test_tokenize_idempotent_on_its_own_output():
    texts = [
        "Some; text! with 42 numbers?",
        "MiXeD CaSe\ttabs\nand newlines",
        "a—b–c…d",
    ]
    for text in texts:
        toks = tokenize(text)
        assert tokenize(" ".join(toks)) == toks


def test_chunk_exact_division():
    doc = _doc([[f"w{i}" for i in range(500)]])
    assert [c.length for c in chunk_document(doc, 250)] == [250, 250]


def test_chunk_remainder_window():
    # Window arithmetic: 260 tokens at target 250 split as 250 + 10.
    doc = _doc([[f"w{i}" for i in range(260)]])
    assert [c.length for c in chunk_document(doc, 250)] == [250, 10]


def test_chunk_underfull_section():
    doc = _doc([[f"w{i}" for i in range(10)]])
    assert [c.length for c in chunk_document(doc, 250)] == [10]


def test_chunk_target_validation():
    with pytest.raises(ValueError):
        chunk_document(_doc([["a"] * 20]), 15)


def test_chunking_is_lossless_partition(small_corpus):
    docs, _ = small_corpus
    for doc in docs:
        chunks = chunk_document(doc, 250)
        rebuilt: dict[int, list[str]] = {}
        for c in chunks:
            rebuilt.setdefault(c.section_index, []).extend(c.tokens)
        for i, section in enumerate(doc.sections):
            assert rebuilt[i] == section.body
        expected = sum(-(-len(s.body) // 250) for s in doc.sections)
        assert len(chunks) == expected
        assert all(c.length > 0 for c in chunks)


def test_chunk_heading_path_copied(small_corpus):
    docs, _ = small_corpus
    doc = docs[0]
    for c in chunk_document(doc, 250):
        assert c.heading_path == doc.sections[c.section_index].heading_path


def test_chunk_tokens_are_a_list_of_their_own(small_corpus):
    docs, _ = small_corpus
    doc = docs[0]
    bodies = [list(section.body) for section in doc.sections]
    for c in chunk_document(doc, 250):
        c.tokens.append("extra")
    assert [section.body for section in doc.sections] == bodies


def test_chunk_id_round_trip():
    cid = make_chunk_id("technical-0003", 7, 500)
    assert parse_chunk_id(cid) == ("technical-0003", 7, 500)
    with pytest.raises(ValueError):
        parse_chunk_id("nonsense")
    for malformed in ("technical-0003:x007:t00500", "technical-0003:s007:o00500"):
        with pytest.raises(ValueError, match="malformed chunk id"):
            parse_chunk_id(malformed)


def test_chunk_ids_unique(small_corpus):
    docs, _ = small_corpus
    ids = [c.chunk_id for d in docs for c in chunk_document(d, 250)]
    assert len(ids) == len(set(ids))


def test_chunk_dump_round_trip(tmp_path, small_corpus):
    docs, _ = small_corpus
    chunks = [c for d in docs[:2] for c in chunk_document(d, 250)]
    path = tmp_path / "chunks.jsonl"
    write_chunks(chunks, path, header={"seed": 7})
    back = read_chunks(path)
    assert back == chunks


def test_read_chunks_rejects_doc_id_that_disagrees_with_chunk_id(tmp_path, small_corpus):
    docs, _ = small_corpus
    chunks = chunk_document(docs[0], 250) + chunk_document(docs[1], 250)
    chunks[-1].doc_id = docs[0].doc_id
    path = tmp_path / "chunks.jsonl"
    write_chunks(chunks, path)
    with pytest.raises(CorpusFormatError, match=f"line {len(chunks)}: .*disagrees"):
        read_chunks(path)


@pytest.mark.parametrize("number", ["-01", "+1", "1_0", " 1", "1 ", "٣", "１", "²", ""])
@pytest.mark.parametrize("part", ["section", "offset"])
def test_chunk_id_numbers_are_ascii_digits(number, part):
    chunk_id = f"normative-0000:s{number}:t00000" if part == "section" else f"normative-0000:s000:t{number}"
    with pytest.raises(ValueError, match="malformed chunk id"):
        parse_chunk_id(chunk_id)
