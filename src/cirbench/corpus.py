"""Seeded generator for a heterogeneous synthetic corpus with ground-truth queries.

Documents come in three structural styles: dense clause text ("normative"),
short spec sheets ("technical"), and linearized key/value tables
("transactional"). Every document owns a disjoint topic vocabulary on top of
one shared background pool, so cross-document overlap is confined to the
background. Atomic facts are planted as contiguous statements carrying
globally unique key tokens, and section bodies are laid out window-by-window
at the configured chunk size so a statement never straddles a chunk boundary.

A small set of per-document "theme" tokens is rotated through the windows
(each window carries a majority subset), which keeps every theme present in
well over half of a document's chunks while leaving individual chunks
dominated by their own local content.

The output is pinned to CPython's ``random`` module: its Mersenne Twister
stream and the way ``Random.choice``, ``randrange``, ``randint``,
``sample`` and ``shuffle`` turn it into draws. The hot loops inline the
last step with the same draws in the same order;
``tests/test_corpus.py::test_inlined_draws_match_random`` checks that they
equal ``Random``'s own methods, so a Python whose ``random`` differs fails
there first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ._hash import fork_seed
from ._io import json_field, read_jsonl, write_jsonl
from .chunking import MIN_CHUNK_TARGET, make_chunk_id
from .errors import ConfigError, CorpusFormatError

TYPOLOGIES = ("normative", "technical", "transactional")

SPECIFIC = "specific"
THEMATIC = "thematic"

# Layout constants shared by the generator, the injection digest and the tests.
THEMES_PER_DOC = 8
THEMES_PER_WINDOW = 5
KEY_REPEATS = 4

# The corpus's fixed shape: sections per document and planted facts per
# section (inclusive ranges), fresh topic words per document, and the
# background pool every document shares.
_SECTIONS_PER_DOC = (5, 9)
_FACTS_PER_SECTION = (1, 3)
_VOCAB_TOPIC_SIZE = 160
_VOCAB_SHARED_SIZE = 1400

# Full windows per section, by typology; mirrors the relative page densities
# of the three document styles (tables linearize to the longest runs).
_WINDOWS_PER_SECTION = {
    "normative": (2, 4),
    "technical": (1, 2),
    "transactional": (3, 4),
}
_SHORT_WINDOW_PROB = 0.45
_SHORT_WINDOW_MIN = 24
_SECTION_FILLER_SHARE = 0.38
_FIELD_WORDS_PER_SECTION = 10

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"


def split_doc_count(total: int) -> dict[str, int]:
    """*total* documents split 30/40/30 across the typologies, the remainder to the last."""
    normative = round(total * 0.3)
    technical = round(total * 0.4)
    return {"normative": normative, "technical": technical, "transactional": total - normative - technical}


@dataclass(frozen=True)
class CorpusConfig:
    """Configuration for the synthetic corpus; a pure function of `seed`."""

    seed: int = 42
    doc_counts: dict[str, int] = field(default_factory=lambda: split_doc_count(50))
    chunk_token_target: int = 250
    query_count: int = 200
    specific_fraction: float = 0.5

    def validate(self) -> None:
        for key in self.doc_counts:
            if key not in TYPOLOGIES:
                raise ConfigError(f"doc_counts: unknown typology {key!r}")
        if any(int(v) < 0 for v in self.doc_counts.values()):
            raise ConfigError("doc_counts: counts must be >= 0")
        if sum(self.doc_counts.values()) < 1:
            raise ConfigError("doc_counts: at least one document is required")
        if self.chunk_token_target < MIN_CHUNK_TARGET:
            raise ConfigError(f"chunk_token_target: must be >= {MIN_CHUNK_TARGET}")
        if self.query_count < 0:
            raise ConfigError("query_count: must be >= 0")
        if not (0.0 <= self.specific_fraction <= 1.0):
            raise ConfigError("specific_fraction: must lie in [0, 1]")


@dataclass
class Fact:
    """An atomic fact whose key tokens exist in exactly one chunk."""

    fact_id: str
    key_phrase: list[str]
    statement: list[str]
    home_section: int


@dataclass
class Section:
    heading_path: list[str]
    body: list[str]
    facts: list[Fact]


@dataclass
class Document:
    doc_id: str
    typology: str
    title: list[str]
    sections: list[Section]


@dataclass
class QuerySpec:
    """A ground-truth query; specific queries have a singleton gold set."""

    query_id: str
    intent: str
    text: list[str]
    gold_chunk_ids: set[str]
    gold_doc_id: str


# The corpus file's fields in file order, each with its JSON kind: a string, an integer, an array of
# strings (list[str]), one written sorted (set), or an array of a dataclass's records. _record and _build use it.
_FIELDS: dict[type, tuple[tuple[str, object], ...]] = {
    Fact: (("fact_id", str), ("key_phrase", list[str]), ("statement", list[str]), ("home_section", int)),
    Section: (("heading_path", list[str]), ("body", list[str]), ("facts", Fact)),
    Document: (("doc_id", str), ("typology", str), ("title", list[str]), ("sections", Section)),
    QuerySpec: (
        ("query_id", str), ("intent", str), ("text", list[str]), ("gold_chunk_ids", set), ("gold_doc_id", str)
    ),
}


# The hot loops below draw as Random.choice(seq), Random.randrange(n) and
# Random.shuffle do, with CPython's _randbelow(n) inlined: getrandbits(k) for
# k = n.bit_length(), redrawn while it is >= n. The draws and their order are
# the same, so the corpus is the same byte for byte.
_N_CONSONANTS, _N_VOWELS = len(_CONSONANTS), len(_VOWELS)
_K_CONSONANTS, _K_VOWELS = _N_CONSONANTS.bit_length(), _N_VOWELS.bit_length()
_NUMBERS = [f"n{i:03d}" for i in range(1000)]


def _word(rng: random.Random, syllables: int) -> str:
    getrandbits = rng.getrandbits
    letters = []
    for _ in range(syllables):
        c = getrandbits(_K_CONSONANTS)
        while c >= _N_CONSONANTS:
            c = getrandbits(_K_CONSONANTS)
        v = getrandbits(_K_VOWELS)
        while v >= _N_VOWELS:
            v = getrandbits(_K_VOWELS)
        letters.append(_CONSONANTS[c] + _VOWELS[v])
    return "".join(letters)


def _fresh_words(rng: random.Random, count: int, used: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        w = _word(rng, rng.randint(3, 5))
        if w not in used:
            used.add(w)
            out.append(w)
    return out


def _key_phrase(rng: random.Random, counter: int) -> list[str]:
    suffix = rng.choice("abcdefghijklmnopqrstuvwxyz") + rng.choice("abcdefghijklmnopqrstuvwxyz")
    return [f"zq{counter:04d}{suffix}", f"xj{counter:04d}{suffix}", f"vk{counter:04d}{suffix}"]


def _make_statement(
    rng: random.Random, key_phrase: list[str], section_words: list[str], shared: list[str], repeats: int
) -> list[str]:
    # Identifier-heavy record: the key phrase recurs the way a part number
    # would in a spec row, which is what keeps the fact findable at scale.
    tokens: list[str] = []
    for r in range(repeats):
        if r % 2 == 0:
            tokens.append(rng.choice(section_words))
        else:
            tokens.append(f"n{rng.randrange(10000):04d}")
        tokens.extend(key_phrase)
    tokens.append(rng.choice(shared))
    return tokens


def _filler(
    rng: random.Random,
    count: int,
    typology: str,
    section_words: list[str],
    field_words: list[str],
    shared: list[str],
) -> list[str]:
    rand, getrandbits = rng.random, rng.getrandbits
    # (words, n, n.bit_length()) for each list a token is drawn from; _NUMBERS stands for randrange(1000).
    section, field, background, numbers = (
        (w, len(w), len(w).bit_length()) for w in (section_words, field_words, shared, _NUMBERS)
    )
    out: list[str] = []
    if typology == "transactional":
        # Linearized table rows: "field value field value ..." runs.
        words, n, k = field
        while len(out) < count:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            out.append(words[r])
            value_words, value_n, value_k = background if rand() < 0.25 else numbers
            r = getrandbits(value_k)
            while r >= value_n:
                r = getrandbits(value_k)
            out.append(value_words[r])
        return out[:count]
    for _ in range(count):
        words, n, k = section if rand() < _SECTION_FILLER_SHARE else background
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(words[r])
    return out


def _shuffle(rng: random.Random, x: list) -> None:
    """Random.shuffle(x): Fisher-Yates from the end, j = _randbelow(i + 1)."""
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _build_document(
    rng: random.Random,
    doc_id: str,
    typology: str,
    topic_words: list[str],
    shared: list[str],
    config: CorpusConfig,
    key_counter: int,
) -> tuple[Document, list[tuple[Fact, str]], list[str], list[str], int]:
    """Build one document; returns (doc, fact records, chunk ids, themes in at least half its windows, counter)."""
    target = config.chunk_token_target
    themes = topic_words[:THEMES_PER_DOC]
    section_pool = topic_words[THEMES_PER_DOC:]
    title = themes[:3]
    title_str = " ".join(title)

    n_sections = rng.randint(*_SECTIONS_PER_DOC)
    slice_size = len(section_pool) // n_sections  # 16-30 words; tests/test_corpus.py pins the shape facts used here

    repeats = min(KEY_REPEATS, (target - THEMES_PER_WINDOW - 6) // 4)

    sections: list[Section] = []
    fact_records: list[tuple[Fact, str]] = []
    chunk_ids: list[str] = []
    theme_hits = {t: 0 for t in themes}
    window_cursor = 0

    for s_idx in range(n_sections):
        section_words = section_pool[s_idx * slice_size : (s_idx + 1) * slice_size]
        field_words = section_words[:_FIELD_WORDS_PER_SECTION]
        heading_theme = themes[s_idx % THEMES_PER_DOC]
        heading = f"{heading_theme} {section_words[0]} s{s_idx:02d}"
        heading_path = [title_str, heading]
        if rng.random() < 0.3:
            heading_path.append(f"{section_words[1]} s{s_idx:02d}b")

        lo, hi = _WINDOWS_PER_SECTION[typology]
        lengths = [target] * rng.randint(lo, hi)
        short_lo = min(_SHORT_WINDOW_MIN, target - 1)
        if rng.random() < _SHORT_WINDOW_PROB:
            lengths.append(rng.randint(short_lo, max(short_lo, target - 50)))

        statements: list[list[list[str]]] = [[] for _ in lengths]
        capacity = [L - THEMES_PER_WINDOW for L in lengths]
        facts: list[Fact] = []
        for _ in range(rng.randint(*_FACTS_PER_SECTION)):
            phrase = _key_phrase(rng, key_counter)
            stmt = _make_statement(rng, phrase, section_words, shared, repeats)
            candidates = [w for w, cap in enumerate(capacity) if cap >= len(stmt) + 2]
            if not candidates:
                # tiny windows already filled; drop the extra fact
                continue
            w = rng.choice(candidates)
            statements[w].append(stmt)
            capacity[w] -= len(stmt)
            fact = Fact(f"{doc_id}:f{key_counter:04d}", phrase, stmt, s_idx)
            facts.append(fact)
            fact_records.append((fact, make_chunk_id(doc_id, s_idx, w * target)))
            key_counter += 1

        body: list[str] = []
        for w, wlen in enumerate(lengths):
            rotation = [themes[(window_cursor + j) % THEMES_PER_DOC] for j in range(THEMES_PER_WINDOW)]
            window_cursor += 1
            for t in rotation:
                theme_hits[t] += 1
            stmt_total = sum(len(s) for s in statements[w])
            fill = _filler(
                rng, wlen - len(rotation) - stmt_total, typology, section_words, field_words, shared
            )
            # Each statement is one item of the shuffle; its tokens then replace it where it landed.
            window: list = rotation + fill + statements[w]
            _shuffle(rng, window)
            for stmt in statements[w]:
                at = window.index(stmt)
                window[at : at + 1] = stmt
            assert len(window) == wlen
            body.extend(window)
            chunk_ids.append(make_chunk_id(doc_id, s_idx, w * target))

        sections.append(Section(heading_path, body, facts))

    eligible = [t for t in themes if 2 * theme_hits[t] >= window_cursor]
    doc = Document(doc_id, typology, title, sections)
    return doc, fact_records, chunk_ids, eligible, key_counter


def generate_corpus(config: CorpusConfig) -> tuple[list[Document], list[QuerySpec]]:
    """Deterministically generate documents plus specific/thematic queries.

    Equal configs give equal output, down to the byte after serialization.
    """
    config.validate()
    vocab_rng = random.Random(fork_seed(config.seed, "vocab"))
    used: set[str] = set()
    shared = _fresh_words(vocab_rng, _VOCAB_SHARED_SIZE, used)

    docs: list[Document] = []
    fact_pool: list[tuple[Fact, Document, str]] = []
    doc_chunk_ids: dict[str, list[str]] = {}
    doc_themes: dict[str, list[str]] = {}
    doc_eligible: dict[str, list[str]] = {}
    key_counter = 0

    for typology in TYPOLOGIES:
        for i in range(int(config.doc_counts.get(typology, 0))):
            topic_words = _fresh_words(vocab_rng, _VOCAB_TOPIC_SIZE, used)
            doc_rng = random.Random(fork_seed(config.seed, f"doc:{typology}:{i}"))
            doc_id = f"{typology}-{i:04d}"
            doc, records, chunk_ids, eligible, key_counter = _build_document(
                doc_rng, doc_id, typology, topic_words, shared, config, key_counter
            )
            docs.append(doc)
            fact_pool.extend((fact, doc, gold) for fact, gold in records)
            doc_chunk_ids[doc_id] = chunk_ids
            doc_themes[doc_id] = topic_words[:THEMES_PER_DOC]
            doc_eligible[doc_id] = eligible

    queries: list[QuerySpec] = []
    q_rng = random.Random(fork_seed(config.seed, "queries"))
    n_specific = round(config.query_count * config.specific_fraction)
    n_thematic = config.query_count - n_specific

    order = list(range(len(fact_pool)))
    q_rng.shuffle(order)
    for j in range(n_specific):
        fact, doc, gold = fact_pool[order[j % len(order)]]
        intents = q_rng.sample(doc_themes[doc.doc_id], q_rng.randint(1, 3))
        queries.append(
            QuerySpec(
                query_id=f"q-spec-{j:04d}",
                intent=SPECIFIC,
                text=list(fact.key_phrase) + intents,
                gold_chunk_ids={gold},
                gold_doc_id=doc.doc_id,
            )
        )

    for j in range(n_thematic):
        doc = docs[q_rng.randrange(len(docs))]
        eligible = doc_eligible[doc.doc_id]
        k = q_rng.randint(min(3, len(eligible)), min(8, len(eligible)))
        queries.append(
            QuerySpec(
                query_id=f"q-them-{j:04d}",
                intent=THEMATIC,
                text=q_rng.sample(eligible, k),
                gold_chunk_ids=set(doc_chunk_ids[doc.doc_id]),
                gold_doc_id=doc.doc_id,
            )
        )

    return docs, queries


def _record(obj: Fact | Section | Document | QuerySpec) -> dict:
    """*obj*'s record: its fields in ``_FIELDS`` order, a set sorted and nested records written in turn."""
    rec = {}
    for name, kind in _FIELDS[type(obj)]:
        value = getattr(obj, name)
        rec[name] = sorted(value) if kind is set else [*map(_record, value)] if kind in _FIELDS else value
    return rec


def corpus_records(documents: Iterable[Document], queries: Iterable[QuerySpec]) -> Iterator[dict]:
    """The corpus file's records, built one at a time: one per document, then the query block."""
    for doc in documents:
        yield {"type": "document", **_record(doc)}
    yield {"type": "queries", "queries": [*map(_record, queries)]}


def serialize_corpus(
    documents: Iterable[Document],
    queries: Iterable[QuerySpec],
    path: str | Path,
    header: dict | None = None,
) -> None:
    """Write JSON Lines: one record per document, then a trailing query block."""
    write_jsonl(path, corpus_records(documents, queries), header)


def _build(cls: type, rec: dict):
    """A *cls* from its record; a field not of its JSON kind in ``_FIELDS`` is a ValueError naming the field."""
    values = []
    for name, kind in _FIELDS[cls]:
        if kind in _FIELDS:
            values.append([_build(kind, item) for item in json_field(rec, name, list[dict])])
        else:
            values.append(set(json_field(rec, name, list[str])) if kind is set else json_field(rec, name, kind))
    return cls(*values)


def _from_record(rec: dict) -> Document | list[QuerySpec]:
    kind = rec.get("type")
    if kind == "document":
        return _build(Document, rec)
    if kind == "queries":
        return [_build(QuerySpec, q) for q in json_field(rec, "queries", list[dict])]
    raise ValueError(f"unknown record type {kind!r}")


def deserialize_corpus(path: str | Path) -> tuple[list[Document], list[QuerySpec]]:
    """Read a corpus file back: documents, then one query block as the last record, else CorpusFormatError."""
    records = read_jsonl(path, _from_record, unique="doc_id")
    blocks = sum(isinstance(r, list) for r in records)
    if not blocks:
        raise CorpusFormatError(f"{path}: missing trailing query block")
    if blocks > 1 or not isinstance(records[-1], list):
        raise CorpusFormatError(f"{path}: expected one query block, as the last record; found {blocks}")
    return records[:-1], records[-1]
