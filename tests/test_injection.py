from __future__ import annotations

import random
import tracemalloc
from dataclasses import fields
from itertools import cycle, islice

import pytest

from cirbench import (
    CorpusConfig,
    EnrichedChunk,
    InjectionStrategy,
    all_strategies,
    build_context,
    chunk_document,
    compute_cir,
    ddai_budget,
    enrich,
    generate_corpus,
    make_chunk_id,
    strategy,
)
from cirbench.chunking import Chunk
from cirbench.corpus import Document, Section
from cirbench.embedding import Embedder, EmbedderConfig
from cirbench.errors import ConfigError
from cirbench.injection import (
    EnrichedSums,
    block_pieces,
    context_sources,
    document_digest,
    hierarchy_tokens,
    metadata_tokens,
    read_enriched,
    write_enriched,
)


def _piece_lengths(pieces) -> tuple[int, int, int, int]:
    """A block's hierarchy, summary, metadata and padding lengths, read from its ``block_pieces``."""
    (hierarchy, _), (pool, cycles), (rest, _), (summary, _), (metadata, _) = pieces
    return len(hierarchy), len(summary), len(metadata), len(pool) * cycles + len(rest)


def _doc_and_chunk(n_tokens: int, heading_path: list[str]) -> tuple[Document, Chunk]:
    tokens = [f"tok{i}" for i in range(n_tokens)]
    doc = Document(
        doc_id="technical-0000",
        typology="technical",
        title=["alpha", "beta", "gamma"],
        sections=[Section(heading_path=heading_path, body=tokens, facts=[])],
    )
    chunk = Chunk(
        chunk_id=make_chunk_id(doc.doc_id, 0, 0),
        doc_id=doc.doc_id,
        section_index=0,
        heading_path=heading_path,
        tokens=tokens,
    )
    return doc, chunk


def test_compute_cir_noise_over_signal_scenario():
    # 150 injected tokens over a 10-token fragment.
    assert compute_cir(150, 10) == 0.9375


def test_compute_cir_pure_fragment():
    assert compute_cir(0, 250) == 0.0


def test_compute_cir_matches_direct_formula():
    assert compute_cir(135, 250) == 135 / 385
    assert compute_cir(135, 250) == pytest.approx(0.350649, abs=1e-6)


def test_compute_cir_domain_errors():
    with pytest.raises(ValueError):
        compute_cir(10, 0)
    with pytest.raises(ValueError):
        compute_cir(-1, 10)


def test_compute_cir_monotonicity():
    rng = random.Random(11)
    for _ in range(10_000):
        ctx = rng.randint(0, 5000)
        chunk = rng.randint(1, 5000)
        assert compute_cir(ctx + 1, chunk) > compute_cir(ctx, chunk)
        if ctx > 0:
            assert compute_cir(ctx, chunk + 1) < compute_cir(ctx, chunk)
        assert 0.0 <= compute_cir(ctx, chunk) < 1.0


def test_ddai_budget_examples():
    assert ddai_budget(300, 0.35) == 161
    assert ddai_budget(30, 0.35) == 16
    assert ddai_budget(100, 0.5) == 100


def test_ddai_budget_domain_errors():
    with pytest.raises(ValueError):
        ddai_budget(300, 0.0)
    with pytest.raises(ValueError):
        ddai_budget(300, 1.0)
    with pytest.raises(ValueError):
        ddai_budget(0, 0.35)


def test_ddai_budget_bound_and_tightness():
    rng = random.Random(23)
    for _ in range(1000):
        chunk_len = rng.randint(1, 100_000)
        t_max = rng.uniform(0.01, 0.99)
        budget = ddai_budget(chunk_len, t_max)
        assert budget >= 0
        assert compute_cir(budget, chunk_len) <= t_max
        assert compute_cir(budget + 1, chunk_len) > t_max


def test_strategy_validation():
    with pytest.raises(ConfigError):
        strategy("maximal")
    with pytest.raises(ConfigError):
        strategy("ddai", t_max=1.0)


def test_strategy_presets_follow_kind():
    assert [f.name for f in fields(InjectionStrategy)] == ["kind", "t_max"]
    medium = InjectionStrategy("medium")
    assert (medium.summary_budget, medium.target_cir, medium.t_max) == (50, 0.35, 0.35)
    ddai = strategy("ddai", 0.2)
    assert (ddai.summary_budget, ddai.target_cir, ddai.t_max) == (250, None, 0.2)
    assert strategy("low") == InjectionStrategy("low", 0.35)


def test_baseline_context_is_empty():
    doc, chunk = _doc_and_chunk(250, ["alpha beta gamma", "delta epsilon s00"])
    assert build_context(doc, chunk, strategy("baseline")) == []


def test_medium_band_on_reference_chunk():
    doc, chunk = _doc_and_chunk(250, ["alpha beta gamma", "delta epsilon s00"])
    e = enrich(chunk, build_context(doc, chunk, strategy("medium")))
    assert 0.30 <= e.cir <= 0.40


def test_ddai_small_chunk_truncates_hierarchy():
    heading_path = [
        "one two three four five six seven eight nine ten",
        "h1 h2 h3 h4 h5 h6 h7 h8 h9 h10",
    ]
    doc, chunk = _doc_and_chunk(30, heading_path)
    ctx = build_context(doc, chunk, strategy("ddai", t_max=0.35))
    assert len(ctx) <= 16
    base = [t for h in heading_path for t in h.split()]
    assert ctx == base[: len(ctx)]
    pieces = block_pieces(context_sources(doc, chunk), chunk.length, strategy("ddai", t_max=0.35))
    assert _piece_lengths(pieces) == (len(ctx), 0, 0, 0)


def test_ddai_fill_is_hierarchy_first_then_summary():
    doc, chunk = _doc_and_chunk(250, ["alpha beta gamma", "delta epsilon s00"])
    ctx = build_context(doc, chunk, strategy("ddai", t_max=0.35))
    base = [t for h in chunk.heading_path for t in h.split()]
    assert ctx[: len(base)] == base
    assert ctx[len(base) :] == doc.sections[0].body[: len(ctx) - len(base)]
    assert compute_cir(len(ctx), chunk.length) <= 0.35


def test_enrich_concatenation_order_and_cir():
    doc, chunk = _doc_and_chunk(10, ["alpha beta", "delta s00"])
    ctx = [f"h{i}" for i in range(100)] + [f"s{i}" for i in range(40)] + [f"m{i}" for i in range(10)]
    e = enrich(chunk, ctx)
    assert e.tokens[: len(ctx)] == ctx
    assert e.tokens[len(ctx) :] == chunk.tokens
    assert len(e.tokens) == len(ctx) + chunk.length
    assert e.cir == compute_cir(150, 10) == 0.9375


def test_enrich_with_empty_context():
    doc, chunk = _doc_and_chunk(25, ["alpha beta", "delta s00"])
    e = enrich(chunk, [])
    assert e.tokens == chunk.tokens
    assert e.cir == 0.0


def test_enriched_tokens_and_cir_follow_context():
    doc, chunk = _doc_and_chunk(30, ["alpha beta", "delta s00"])
    e = enrich(chunk, [])
    assert [f.name for f in fields(EnrichedChunk)] == ["base", "context"]
    e.context.extend(["s0", "s1"])
    assert e.tokens == ["s0", "s1", *chunk.tokens]
    assert e.cir == compute_cir(2, 30)


def test_enriched_dump_round_trip(tmp_path, small_corpus):
    docs, _ = small_corpus
    strat = strategy("ddai")
    enriched = [enrich(c, build_context(docs[0], c, strat)) for c in chunk_document(docs[0], 250)]
    path = tmp_path / "enriched.jsonl"
    write_enriched(enriched, strat.kind, path, header={"seed": 7})
    assert read_enriched(path) == [
        {
            "chunk_id": e.base.chunk_id,
            "doc_id": e.base.doc_id,
            "section_index": e.base.section_index,
            "strategy": "ddai",
            "cir": e.cir,
            "tokens": e.tokens,
        }
        for e in enriched
    ]


def test_strategy_mean_cir_monotone(small_config, small_corpus):
    docs, _ = small_corpus
    doc_by_id = {d.doc_id: d for d in docs}
    chunks = [c for d in docs for c in chunk_document(d, small_config.chunk_token_target)]
    means = []
    for strat in all_strategies():
        if strat.kind == "ddai":
            continue
        cirs = [
            enrich(c, build_context(doc_by_id[c.doc_id], c, strat)).cir for c in chunks
        ]
        means.append(sum(cirs) / len(cirs))
    assert all(a < b for a, b in zip(means, means[1:]))


def test_ddai_local_dominance(small_config, small_corpus):
    # With the default threshold the local side keeps at least 65% of the mass.
    docs, _ = small_corpus
    doc_by_id = {d.doc_id: d for d in docs}
    strat = strategy("ddai", t_max=0.35)
    for d in docs:
        for c in chunk_document(d, small_config.chunk_token_target):
            e = enrich(c, build_context(doc_by_id[c.doc_id], c, strat))
            assert 1.0 - e.cir >= 0.65


def _reference_block(
    doc: Document, chunk: Chunk, strat: InjectionStrategy
) -> tuple[list[str], list[str], list[str]]:
    """The block built token by token, as (hierarchy plus padding, summary, metadata).

    A reference for build_context and block_pieces that shares none of their sizing code.
    """
    if strat.kind == "baseline":
        return [], [], []
    base_h = hierarchy_tokens(chunk)
    digest = document_digest(doc)
    if strat.kind == "ddai":
        total = ddai_budget(chunk.length, strat.t_max)
        h = base_h[:total]
        return h, digest[: min(strat.summary_budget, total - len(h))], []
    total = round(strat.target_cir / (1.0 - strat.target_cir) * chunk.length)
    h = base_h[:total]
    remaining = total - len(h)
    s = digest[: min(strat.summary_budget, remaining)]
    remaining -= len(s)
    m = metadata_tokens(doc)[:remaining] if strat.kind == "overload" and remaining > 0 else []
    remaining -= len(m)
    if remaining > 0:
        pad_pool = base_h + digest[:40] or list(doc.title) or ["context"]
        h = h + list(islice(cycle(pad_pool), remaining))
    return h, s, m


def _layout_corpus() -> tuple[list[Document], list[Chunk]]:
    """Chunks of many lengths, plus two chunks whose documents leave the pad pool empty."""
    docs, chunks = [], []
    for d, body_lengths in enumerate(((45, 130), (20, 75, 260, 41, 333, 96))):
        sections = [
            Section([f"part {d} {i}", f"clause {i} s{i:02d}"], [f"w{(j * 31 + i) % 97}" for j in range(n)], [])
            for i, n in enumerate(body_lengths)
        ]
        doc = Document(f"technical-{d:04d}", "technical", ["alpha", "beta"], sections)
        docs.append(doc)
        chunks.extend(c for target in (16, 37, 250) for c in chunk_document(doc, target))
    for d, title in ((2, ["lone", "title"]), (3, [])):
        doc = Document(f"normative-{d:04d}", "normative", title, [Section([], [], [])])
        docs.append(doc)
        chunks.append(Chunk(make_chunk_id(doc.doc_id, 0, 0), doc.doc_id, 0, [], [f"x{i}" for i in range(60)]))
    return docs, chunks


def test_layout_reproduces_token_built_blocks_and_sweep_sums_reproduce_embeddings():
    docs, chunks = _layout_corpus()
    doc_by_id = {d.doc_id: d for d in docs}
    embedder = Embedder(EmbedderConfig(dim=64, hash_seed=9))
    sums = EnrichedSums(chunks, doc_by_id, embedder)
    reached = set()
    for strat in all_strategies():
        enriched = []
        for c in chunks:
            doc = doc_by_id[c.doc_id]
            src = context_sources(doc, c)
            hierarchy, summary, metadata, padding = _piece_lengths(block_pieces(src, c.length, strat))
            ctx = build_context(doc, c, strat)
            h, s, m = _reference_block(doc, c, strat)
            assert ctx == h + s + m
            assert (hierarchy + padding, summary, metadata) == (len(h), len(s), len(m))
            enriched.append(enrich(c, ctx))
            if padding >= len(src.pad_pool):
                reached.add("full pad cycle")
            if 0 < metadata < len(src.metadata):
                reached.add("metadata cut")
            unbounded = min(len(src.hierarchy) + len(src.digest), hierarchy + strat.summary_budget)
            if strat.kind == "ddai" and hierarchy + summary + metadata + padding < unbounded:
                reached.add("ddai budget cut")
            if padding and not src.hierarchy and not src.digest:
                reached.add(f"pad pool {src.pad_pool}")
        vectors, cirs = sums.vectors(strat)
        assert vectors.tobytes() == embedder.embed_many([e.tokens for e in enriched]).tobytes()
        assert cirs == [e.cir for e in enriched]
    assert reached == {
        "full pad cycle", "metadata cut", "ddai budget cut", "pad pool ['lone', 'title']", "pad pool ['context']"
    }


def test_sweep_sums_build_no_block_as_tokens():
    docs, _ = generate_corpus(CorpusConfig())  # the reference corpus
    chunks = [c for d in docs for c in chunk_document(d, 250)]
    sums = EnrichedSums(chunks, {d.doc_id: d for d in docs}, Embedder(EmbedderConfig()))
    blocks = len({(c.doc_id, c.section_index, c.length) for c in chunks})
    tracemalloc.start()
    try:
        vectors, _ = sums.vectors(strategy("overload"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The output, the distinct blocks' sums and 512 KiB. An overload block is
    # about 1,400 tokens; as token lists the blocks alone would take some 5 MB.
    assert peak <= vectors.nbytes + blocks * vectors.shape[1] * vectors.itemsize + (1 << 19)
