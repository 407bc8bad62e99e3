"""Context blocks: how they are built, summed and measured, under each injection strategy.

A context block is a token list prepended to a chunk before embedding. The
five static strategies target fixed context-injection-ratio bands by sizing
the block from the chunk length; the adaptive strategy ("ddai") instead
caps the block so the ratio never exceeds a threshold, filling hierarchy
first and summary second, with no padding and no metadata.

``context_layout`` is the one place a block is sized: it gives each
piece's length over the section's ``ContextSources``. ``block_pieces`` is
the one definition of the block: an ordered list of pieces, each a source
field, a stop and a number of copies, so that the block is
``sources.<field>[:stop]`` repeated ``copies`` times, piece after piece.
``build_context`` expands the pieces into tokens; ``EnrichedSums`` turns
the same pieces into sums; ``effective_lambda`` measures the context's
mixing weight in an embedding.

``EnrichedSums`` embeds by mixing integer sums, not by embedding enriched
token lists. Each chunk's token vectors are summed once, and each source
list is looked up in the token table once. Under each strategy, a distinct
block's sum is one ``np.bincount`` over its single-copy pieces' rows, plus
``copies`` times the pad pool's sum for its whole pad-pool cycles, which
are never built as tokens. An enriched chunk's vector is
``(chunk_sum + block_sum) / (L_c + L_I)``, normalized. Every component of
these sums is an integer, so the vector equals ``embed`` of the enriched
tokens bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._io import json_field, read_jsonl, write_jsonl
from .chunking import Chunk, parse_chunk_id
from .corpus import Document
from .embedding import Embedder, EmbedderConfig, get_embedder, unit_rows
from .errors import ConfigError, DegenerateMixError

STRATEGY_KINDS = ("baseline", "low", "medium", "high", "overload", "ddai")

# Static strategies aim at these ratio bands; the block is sized as
# round(band / (1 - band) * chunk_len) regardless of chunk length.
_TARGET_CIR = {"low": 0.15, "medium": 0.35, "high": 0.60, "overload": 0.85}

# Cap on extractive-summary tokens inside the block, per strategy.
_SUMMARY_BUDGET = {"baseline": 0, "low": 0, "medium": 50, "high": 150, "overload": 250, "ddai": 250}

DIGEST_TOKENS_PER_SECTION = 40
_PAD_POOL_DIGEST_TOKENS = 40


def compute_cir(context_len: int, chunk_len: int) -> float:
    """Context injection ratio: injected tokens over total enriched tokens."""
    if chunk_len < 1:
        raise ValueError("chunk_len must be >= 1 (a ratio of 1 is excluded)")
    if context_len < 0:
        raise ValueError("context_len must be >= 0")
    return context_len / (context_len + chunk_len)


def ddai_budget(chunk_len: int, t_max: float) -> int:
    """Largest context length whose ratio stays at or below *t_max*.

    floor(chunk_len * t_max / (1 - t_max)), nudged so the bound holds under
    the exact float comparisons of compute_cir (tight up to +1 token).
    """
    if chunk_len < 1:
        raise ValueError("chunk_len must be >= 1")
    if not 0.0 < t_max < 1.0:
        raise ValueError("t_max must lie in (0, 1)")
    budget = int(chunk_len * t_max / (1.0 - t_max))
    while budget > 0 and compute_cir(budget, chunk_len) > t_max:
        budget -= 1
    while compute_cir(budget + 1, chunk_len) <= t_max:
        budget += 1
    return budget


@dataclass(frozen=True)
class InjectionStrategy:
    """One named strategy; its summary budget and target band are presets of ``kind``."""

    kind: str
    t_max: float = 0.35

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"strategy: unknown kind {self.kind!r}")
        if not 0.0 < self.t_max < 1.0:
            raise ConfigError("t_max: must lie in (0, 1)")

    @property
    def summary_budget(self) -> int:
        return _SUMMARY_BUDGET[self.kind]

    @property
    def target_cir(self) -> float | None:
        return _TARGET_CIR.get(self.kind)


strategy = InjectionStrategy  # ``strategy(kind, t_max)`` builds one of the named strategies


def all_strategies(t_max: float = InjectionStrategy.t_max) -> list[InjectionStrategy]:
    """Every named strategy, in ``STRATEGY_KINDS`` order."""
    return [InjectionStrategy(kind, t_max) for kind in STRATEGY_KINDS]


@dataclass
class EnrichedChunk:
    """A chunk with its context block; the enriched tokens and ratio follow from the two."""

    base: Chunk
    context: list[str]

    @property
    def tokens(self) -> list[str]:
        """Context, then chunk."""
        return self.context + self.base.tokens

    @property
    def cir(self) -> float:
        return compute_cir(len(self.context), self.base.length)


def effective_lambda(enriched: EnrichedChunk, config: EmbedderConfig) -> float:
    """Exact mixing weight of the context component inside embed(enriched.tokens).

    Solved by projecting the full-sequence mean onto the line between the
    chunk mean and the context mean; under mean pooling this equals the
    chunk's context injection ratio to within float error. Raises
    DegenerateMixError when the two means coincide: no weight is measured.
    """
    if len(enriched.context) == 0:
        return 0.0
    emb = get_embedder(config)
    a = emb.mean_vector(enriched.context)
    b = emb.mean_vector(enriched.base.tokens)
    v = emb.mean_vector(enriched.tokens)
    d = a - b
    den = float(d @ d)
    if den < 1e-18:
        raise DegenerateMixError("context mean equals chunk mean; the mixing weight is not measurable")
    return float((v - b) @ d / den)


def document_digest(doc: Document) -> list[str]:
    """Deterministic extractive summary: the leading tokens of every section."""
    out: list[str] = []
    for section in doc.sections:
        out.extend(section.body[:DIGEST_TOKENS_PER_SECTION])
    return out


def hierarchy_tokens(chunk: Chunk) -> list[str]:
    """Heading path rendered as a flat token sequence."""
    return " ".join(chunk.heading_path).split()


def metadata_tokens(doc: Document) -> list[str]:
    """Document metadata rendered as tokens: id, typology, section list (each section's last heading)."""
    headings = " ".join([section.heading_path[-1] for section in doc.sections if section.heading_path])
    return [*doc.doc_id.split("-"), doc.typology, *headings.split()]


class ContextSources(NamedTuple):
    """The lists a chunk's context blocks are cut from; equal for every chunk of one section.

    ``context_sources`` gives them as tokens; ``EnrichedSums`` holds the
    same lists as token-table rows.
    """

    hierarchy: Sequence
    digest: Sequence
    metadata: Sequence
    pad_pool: Sequence


def pad_pool(hierarchy: list[str], digest: list[str], title: Sequence[str]) -> list[str]:
    """The tokens padding cycles: the heading path plus the digest's leading tokens.

    When both are empty it is the title, or ``["context"]`` for an untitled document.
    """
    return hierarchy + digest[:_PAD_POOL_DIGEST_TOKENS] or list(title) or ["context"]


def context_sources(doc: Document, chunk: Chunk) -> ContextSources:
    """*chunk*'s heading path, the document's digest and metadata, and the pad pool, as tokens."""
    hierarchy, digest = hierarchy_tokens(chunk), document_digest(doc)
    return ContextSources(hierarchy, digest, metadata_tokens(doc), pad_pool(hierarchy, digest, doc.title))


class ContextLayout(NamedTuple):
    """A context block as the lengths of its pieces, each cut from a ContextSources list."""

    hierarchy: int = 0
    summary: int = 0
    metadata: int = 0
    padding: int = 0

    @property
    def length(self) -> int:
        return self.hierarchy + self.summary + self.metadata + self.padding


def context_layout(sources: ContextSources, chunk_len: int, strat: InjectionStrategy) -> ContextLayout:
    """Size the context block of a *chunk_len*-token chunk under *strat*.

    Static strategies fill hierarchy, then summary (up to the strategy's
    budget), then metadata (overload only), then pad by cycling the pad pool
    until the target band is reached. The adaptive strategy stops at its
    ratio budget with no padding.
    """
    if strat.kind == "baseline":
        return ContextLayout()
    if strat.kind == "ddai":
        total = ddai_budget(chunk_len, strat.t_max)
    else:
        assert strat.target_cir is not None
        total = round(strat.target_cir / (1.0 - strat.target_cir) * chunk_len)
    h = min(len(sources.hierarchy), total)
    s = min(len(sources.digest), strat.summary_budget, total - h)
    if strat.kind == "ddai":
        return ContextLayout(h, s)
    m = min(len(sources.metadata), total - h - s) if strat.kind == "overload" else 0
    return ContextLayout(h, s, m, total - h - s - m)


def block_pieces(sources: ContextSources, chunk_len: int, strat: InjectionStrategy) -> list[tuple[str, int, int]]:
    """The context block of a *chunk_len*-token chunk under *strat*, as its pieces in order.

    A piece ``(field, stop, copies)`` stands for ``copies`` copies of
    ``sources.<field>[:stop]``. The block is ``hierarchy[:hierarchy]``, then
    ``padding`` tokens cycled from the pad pool (whole copies, then its
    first tokens), then ``digest[:summary]``, then ``metadata[:metadata]``,
    with the lengths of ``context_layout``.
    """
    lay = context_layout(sources, chunk_len, strat)
    cycles, rest = divmod(lay.padding, len(sources.pad_pool))
    return [
        ("hierarchy", lay.hierarchy, 1),
        ("pad_pool", len(sources.pad_pool), cycles),
        ("pad_pool", rest, 1),
        ("digest", lay.summary, 1),
        ("metadata", lay.metadata, 1),
    ]


def build_context(doc: Document, chunk: Chunk, strat: InjectionStrategy) -> list[str]:
    """The context block's tokens for *chunk* under *strat*: its pieces, expanded."""
    sources = context_sources(doc, chunk)
    out: list[str] = []
    for source, stop, copies in block_pieces(sources, chunk.length, strat):
        if copies == 1:  # no list product: it would copy the slice once more
            out += getattr(sources, source)[:stop]
        elif copies:
            out += getattr(sources, source)[:stop] * copies
    return out


class EnrichedSums:
    """The sweep's chunk vectors under each strategy, from integer token-vector sums.

    ``__init__`` sums each chunk once, by one ``Embedder.sum_many`` call,
    and holds each section's ``ContextSources`` as token-table rows, looked
    up once: the digest and the metadata per document, the heading path and
    the pad pool per section. ``vectors`` sums each distinct block (one per
    section and chunk length) from its ``block_pieces``: one
    ``Embedder.sum_rows`` call over the rows of its single-copy pieces,
    plus ``copies`` times the pool's sum for a piece of whole pad-pool
    cycles. No block is built as tokens.
    """

    def __init__(self, chunks: Sequence[Chunk], doc_by_id: dict[str, Document], embedder: Embedder):
        self.chunks = chunks
        self._embedder = embedder
        self._chunk_sums = embedder.sum_many([chunk.tokens for chunk in chunks])
        doc_rows: dict[str, tuple[list[str], np.ndarray, np.ndarray]] = {}
        self._sources: dict[tuple[str, int], ContextSources] = {}
        for chunk in chunks:
            section = (chunk.doc_id, chunk.section_index)
            if section in self._sources:
                continue
            doc = doc_by_id[chunk.doc_id]
            if doc.doc_id not in doc_rows:
                digest = document_digest(doc)
                doc_rows[doc.doc_id] = digest, embedder.rows(digest), embedder.rows(metadata_tokens(doc))
            digest, digest_rows, metadata_rows = doc_rows[doc.doc_id]
            hierarchy = hierarchy_tokens(chunk)
            pool = pad_pool(hierarchy, digest, doc.title)
            self._sources[section] = ContextSources(
                embedder.rows(hierarchy), digest_rows, metadata_rows, embedder.rows(pool)
            )

    def vectors(self, strat: InjectionStrategy) -> tuple[np.ndarray, list[float]]:
        """Unit vectors and CIRs of every chunk enriched under *strat*, in chunk order."""
        block_of: dict[tuple[str, int, int], int] = {}
        rows = [block_of.setdefault((c.doc_id, c.section_index, c.length), len(block_of)) for c in self.chunks]
        sums = np.empty((len(block_of), self._embedder.config.dim))
        lengths = np.empty(len(block_of), np.intp)
        for (doc_id, section_index, chunk_len), block in block_of.items():
            sources = self._sources[doc_id, section_index]
            cuts = [
                (getattr(sources, source)[:stop], copies)
                for source, stop, copies in block_pieces(sources, chunk_len, strat)
            ]
            sums[block] = self._embedder.sum_rows(np.concatenate([cut for cut, copies in cuts if copies == 1]))
            for cut, copies in cuts:
                if copies > 1:
                    sums[block] += copies * self._embedder.sum_rows(cut)
            lengths[block] = sum(len(cut) * copies for cut, copies in cuts)
        context_lengths = lengths[rows].tolist()
        out = sums[rows]
        out += self._chunk_sums
        out /= np.add([chunk.length for chunk in self.chunks], context_lengths)[:, None]
        return unit_rows(out), [compute_cir(n, chunk.length) for n, chunk in zip(context_lengths, self.chunks)]


def enrich(chunk: Chunk, context: list[str]) -> EnrichedChunk:
    """Pair *chunk* with its context block."""
    return EnrichedChunk(chunk, context)


def write_enriched(
    enriched: Iterable[EnrichedChunk],
    strategy_kind: str,
    path: str | Path,
    header: dict | None = None,
) -> None:
    """Dump enriched chunks as JSON Lines: chunk_id, strategy, cir, tokens."""
    records = (
        {"chunk_id": e.base.chunk_id, "strategy": strategy_kind, "cir": e.cir, "tokens": e.tokens} for e in enriched
    )
    write_jsonl(path, records, header)


def _enriched_from_record(rec: dict) -> dict:
    doc_id, section_index, _ = parse_chunk_id(rec["chunk_id"])
    if rec["strategy"] not in STRATEGY_KINDS:
        raise ValueError(f"unknown strategy {rec['strategy']!r}")
    return {
        "chunk_id": rec["chunk_id"],
        "doc_id": doc_id,
        "section_index": section_index,
        "strategy": rec["strategy"],
        "cir": json_field(rec, "cir", float),
        "tokens": json_field(rec, "tokens", list[str]),
    }


def read_enriched(path: str | Path) -> list[dict]:
    """Read an enriched dump; returns raw records with parsed chunk ids.

    A strategy that is not one of ``STRATEGY_KINDS``, a cir that is not a
    JSON number, or tokens that are not an array of strings is a
    CorpusFormatError naming the line.
    """
    return read_jsonl(path, _enriched_from_record, unique="chunk_id")
