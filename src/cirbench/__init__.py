"""cirbench: context-injection chunk enrichment and retrieval-dilution benchmark.

A numpy library plus CLI that enriches document chunks with hierarchical
context under budgeted injection ratios, embeds them with a deterministic
feature-hash encoder, and measures how growing context rotates chunk
vectors toward their document's topic: ranking quality peaks at a moderate
ratio, thematic recall overtakes specific recall past it, and intra-document
vectors homogenize.
"""

# The one version string: pyproject.toml reads it, and so does the sweep
# digest, which is why it is set before the submodule imports.
__version__ = "0.1.0"

from .chunking import Chunk, chunk_document, make_chunk_id, parse_chunk_id, tokenize
from .corpus import (
    CorpusConfig,
    Document,
    Fact,
    QuerySpec,
    Section,
    deserialize_corpus,
    generate_corpus,
    serialize_corpus,
)
from .embedding import Embedder, EmbedderConfig, dilution_curve, get_embedder
from .evaluation import (
    MetricRow,
    SweepFlags,
    SweepReport,
    emit_report,
    homogenization,
    ndcg_at_k,
    recall_at_k,
    run_sweep,
    sweep_flags,
    wrong_section_share,
)
from .injection import (
    EnrichedChunk,
    InjectionStrategy,
    all_strategies,
    build_context,
    compute_cir,
    ddai_budget,
    document_digest,
    effective_lambda,
    enrich,
    strategy,
)
from .retrieval import Hit, VectorIndex, build_index, load_index, save_index, search

__all__ = [
    "Chunk",
    "CorpusConfig",
    "Document",
    "Embedder",
    "EmbedderConfig",
    "EnrichedChunk",
    "Fact",
    "Hit",
    "InjectionStrategy",
    "MetricRow",
    "QuerySpec",
    "Section",
    "SweepFlags",
    "SweepReport",
    "VectorIndex",
    "all_strategies",
    "build_context",
    "build_index",
    "chunk_document",
    "compute_cir",
    "ddai_budget",
    "deserialize_corpus",
    "dilution_curve",
    "document_digest",
    "effective_lambda",
    "emit_report",
    "enrich",
    "generate_corpus",
    "get_embedder",
    "homogenization",
    "load_index",
    "make_chunk_id",
    "ndcg_at_k",
    "parse_chunk_id",
    "recall_at_k",
    "run_sweep",
    "save_index",
    "search",
    "serialize_corpus",
    "strategy",
    "sweep_flags",
    "tokenize",
    "wrong_section_share",
]
