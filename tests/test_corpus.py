from __future__ import annotations

import random
import re

import pytest

from cirbench import (
    CorpusConfig,
    chunk_document,
    deserialize_corpus,
    generate_corpus,
    serialize_corpus,
)
from cirbench.chunking import MIN_CHUNK_TARGET
from cirbench.corpus import (
    _CONSONANTS,
    _SECTION_FILLER_SHARE,
    _SECTIONS_PER_DOC,
    _VOCAB_TOPIC_SIZE,
    _VOWELS,
    SPECIFIC,
    THEMATIC,
    THEMES_PER_DOC,
    THEMES_PER_WINDOW,
    TYPOLOGIES,
    _filler,
    _shuffle,
    _word,
    split_doc_count,
)
from cirbench.errors import ConfigError


def test_reference_scale_doc_counts():
    docs, queries = generate_corpus(CorpusConfig(seed=42))
    assert len(docs) == 50
    by_typ = {t: sum(1 for d in docs if d.typology == t) for t in ("normative", "technical", "transactional")}
    assert by_typ == {"normative": 15, "technical": 20, "transactional": 15}
    assert len(queries) == 200


def test_minimal_corpus():
    cfg = CorpusConfig(
        seed=1,
        doc_counts={"normative": 1, "technical": 0, "transactional": 0},
        query_count=4,
    )
    docs, queries = generate_corpus(cfg)
    assert len(docs) == 1
    assert sum(1 for q in queries if q.intent == SPECIFIC) >= 1
    assert sum(1 for q in queries if q.intent == THEMATIC) >= 1


def test_same_seed_byte_identical(tmp_path):
    cfg = CorpusConfig(seed=99, doc_counts={"normative": 2, "technical": 1, "transactional": 1}, query_count=20)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    docs1, queries1 = generate_corpus(cfg)
    docs2, queries2 = generate_corpus(cfg)
    serialize_corpus(docs1, queries1, a)
    serialize_corpus(docs2, queries2, b)
    assert a.read_bytes() == b.read_bytes()
    assert docs1 == docs2 and queries1 == queries2


def test_round_trip_identity(tmp_path, small_corpus):
    docs, queries = small_corpus
    path = tmp_path / "corpus.jsonl"
    serialize_corpus(docs, queries, path)
    back_docs, back_queries = deserialize_corpus(path)
    assert back_docs == docs
    assert back_queries == queries


def test_empty_corpus_round_trip(tmp_path):
    path = tmp_path / "empty.jsonl"
    serialize_corpus([], [], path)
    docs, queries = deserialize_corpus(path)
    assert docs == [] and queries == []


def test_fact_locality(small_config, small_corpus):
    docs, _ = small_corpus
    chunks = [c for d in docs for c in chunk_document(d, small_config.chunk_token_target)]
    hits: dict[str, int] = {}
    for d in docs:
        for s in d.sections:
            for f in s.facts:
                for t in f.key_phrase:
                    hits[t] = 0
    for c in chunks:
        toks = set(c.tokens)
        for t in toks:
            if t in hits:
                hits[t] += 1
    assert all(n == 1 for n in hits.values())


def test_statement_contiguous_in_body(small_corpus):
    docs, _ = small_corpus
    for d in docs:
        for s in d.sections:
            body_str = "\x00".join(s.body)
            for f in s.facts:
                assert "\x00".join(f.statement) in body_str


def test_vocabulary_separation(small_corpus):
    docs, queries = small_corpus
    # Topic markers (title and heading words, ordinals stripped) are disjoint
    # across documents; thematic query vocabularies are likewise disjoint.
    ordinal = re.compile(r"^s\d+b?$")
    markers: dict[str, set[str]] = {}
    for d in docs:
        toks = set(d.title)
        for s in d.sections:
            for heading in s.heading_path:
                toks.update(w for w in heading.split() if not ordinal.match(w))
        markers[d.doc_id] = toks
    ids = list(markers)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            assert not (markers[ids[i]] & markers[ids[j]])
    them_vocab: dict[str, set[str]] = {}
    for q in queries:
        if q.intent == THEMATIC:
            them_vocab.setdefault(q.gold_doc_id, set()).update(q.text)
    ids = list(them_vocab)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            assert not (them_vocab[ids[i]] & them_vocab[ids[j]])


def test_specific_query_keys_in_gold_chunk(small_config, small_corpus):
    docs, queries = small_corpus
    chunk_by_id = {
        c.chunk_id: c for d in docs for c in chunk_document(d, small_config.chunk_token_target)
    }
    fact_keys = {
        f.fact_id: f.key_phrase for d in docs for s in d.sections for f in s.facts
    }
    assert fact_keys
    for q in queries:
        if q.intent != SPECIFIC:
            continue
        assert len(q.gold_chunk_ids) == 1
        gold = chunk_by_id[next(iter(q.gold_chunk_ids))]
        gold_tokens = set(gold.tokens)
        key_tokens = [t for t in q.text if any(t.startswith(p) for p in ("zq", "xj", "vk"))]
        assert key_tokens
        assert all(t in gold_tokens for t in key_tokens)


def test_thematic_query_coverage(small_config, small_corpus):
    docs, queries = small_corpus
    chunks_by_doc: dict[str, list[set[str]]] = {}
    for d in docs:
        chunks_by_doc[d.doc_id] = [
            set(c.tokens) for c in chunk_document(d, small_config.chunk_token_target)
        ]
    for q in queries:
        if q.intent != THEMATIC:
            continue
        doc_chunks = chunks_by_doc[q.gold_doc_id]
        assert q.gold_chunk_ids == {
            c.chunk_id
            for d in docs
            if d.doc_id == q.gold_doc_id
            for c in chunk_document(d, small_config.chunk_token_target)
        }
        for token in q.text:
            share = sum(1 for toks in doc_chunks if token in toks) / len(doc_chunks)
            assert share >= 0.5, (q.query_id, token, share)


def test_config_validation_names_field():
    with pytest.raises(ConfigError, match="doc_counts"):
        CorpusConfig(doc_counts={"castles": 3}).validate()
    with pytest.raises(ConfigError, match="doc_counts"):
        CorpusConfig(doc_counts={"normative": 0, "technical": 0, "transactional": 0}).validate()
    with pytest.raises(ConfigError, match="chunk_token_target"):
        CorpusConfig(chunk_token_target=8).validate()
    with pytest.raises(ConfigError, match="specific_fraction"):
        CorpusConfig(specific_fraction=1.5).validate()
    with pytest.raises(ConfigError, match="doc_counts: counts must be >= 0"):
        CorpusConfig(doc_counts={"normative": 3, "technical": -1, "transactional": 2}).validate()
    with pytest.raises(ConfigError, match="query_count"):
        CorpusConfig(query_count=-1).validate()


def test_the_fixed_shape_gives_every_section_words_and_a_fact():
    # The generator relies on these without a guard: each section's slice of
    # the topic pool holds at least two words, every key statement repeats its
    # phrase at least once, and the first fact of a section fits a full window.
    assert (_VOCAB_TOPIC_SIZE - THEMES_PER_DOC) // _SECTIONS_PER_DOC[1] >= 2
    assert (MIN_CHUNK_TARGET - THEMES_PER_WINDOW - 6) // 4 >= 1
    for seed in range(1, 6):
        docs, queries = generate_corpus(
            CorpusConfig(seed=seed, doc_counts=split_doc_count(6), chunk_token_target=MIN_CHUNK_TARGET, query_count=30)
        )
        assert all(section.facts for doc in docs for section in doc.sections)
        chunk_ids = {c.chunk_id for doc in docs for c in chunk_document(doc, MIN_CHUNK_TARGET)}
        assert all(q.gold_chunk_ids <= chunk_ids for q in queries)


def _filler_by_random(rng, count, typology, section_words, field_words, shared):
    """corpus._filler as written with Random's own methods."""
    out = []
    if typology == "transactional":
        while len(out) < count:
            out.append(rng.choice(field_words))
            out.append(rng.choice(shared) if rng.random() < 0.25 else f"n{rng.randrange(1000):03d}")
        return out[:count]
    for _ in range(count):
        out.append(rng.choice(section_words) if rng.random() < _SECTION_FILLER_SHARE else rng.choice(shared))
    return out


@pytest.mark.parametrize("typology", TYPOLOGIES)
@pytest.mark.parametrize("n_words", [16, 23])  # 16 is a power of two: half its draws are redrawn
def test_inlined_draws_match_random(typology, n_words):
    words = [f"w{i}" for i in range(n_words)]
    shared = [f"s{i}" for i in range(1400)]
    ours, theirs = random.Random(3), random.Random(3)
    for count in (0, 1, 7, 250, 256):
        got = _filler(ours, count, typology, words, words[: n_words // 2], shared)
        assert got == _filler_by_random(theirs, count, typology, words, words[: n_words // 2], shared)
        x, y = list(range(count)), list(range(count))
        _shuffle(ours, x)
        theirs.shuffle(y)
        assert x == y
        assert _word(ours, 4) == "".join(theirs.choice(_CONSONANTS) + theirs.choice(_VOWELS) for _ in range(4))
    assert ours.getstate() == theirs.getstate()
