"""Scoring: ranking metrics, the strategy sweep runner, and report emitters.

The sweep takes every chunk's vector under each injection strategy from
``injection.EnrichedSums``, retrieves the ground-truth queries against a
per-strategy index, and scores them: one metric row per strategy plus two
shape flags, whether ranking quality peaks at an interior injection ratio,
and the smallest mean ratio at which thematic recall overtakes specific
recall.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from ._io import atomic_write_text, json_field, read_jsonl, write_jsonl
from .chunking import Chunk, chunk_document, parse_chunk_id
from .corpus import SPECIFIC, THEMATIC, CorpusConfig, Document, QuerySpec, corpus_records
from .embedding import EmbedderConfig, get_embedder
from .errors import ConfigError, CorpusFormatError
from .injection import STRATEGY_KINDS, EnrichedSums, InjectionStrategy
from .retrieval import Hit, VectorIndex, search

# The report's columns in file order, each with the MetricRow field it holds: the
# strategy first, then five measures, then the one that may be null.
_COLUMNS = {
    "strategy": "strategy",
    "mean_cir": "mean_cir",
    "ndcg10": "ndcg_at_10",
    "recall5_specific": "recall5_specific",
    "recall5_thematic": "recall5_thematic",
    "homogenization": "homogenization",
    "wrong_section_share": "wrong_section_share",
}
CSV_HEADER = ",".join(_COLUMNS)

# The protocol the column names state; thematic recall dedups by document, so it reads past the top RECALL_K hits.
NDCG_K, RECALL_K, SEARCH_DEPTH = 10, 5, 100


def ndcg_at_k(ranking: Sequence[Hit], relevant: set[str], k: int = NDCG_K) -> float:
    """Binary-gain NDCG: DCG over the top k divided by the ideal DCG."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        return 0.0
    dcg = 0.0
    for i, hit in enumerate(ranking[:k], start=1):
        if hit.chunk_id in relevant:
            dcg += 1.0 / math.log2(i + 1)
    ideal = min(k, len(relevant))
    idcg = sum(1.0 / math.log2(i + 1) for i in range(1, ideal + 1))
    return dcg / idcg


def recall_at_k(ranking: Sequence[Hit], query: QuerySpec, k: int = RECALL_K) -> float:
    """Hit indicator for one query.

    Specific queries count a hit when the gold chunk is in the top k.
    Thematic queries are judged at document granularity: consecutive hits
    from one document collapse to a single entry before the cutoff.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if query.intent == SPECIFIC:
        return 1.0 if any(h.chunk_id in query.gold_chunk_ids for h in ranking[:k]) else 0.0
    deduped: list[Hit] = []
    for hit in ranking:
        if deduped and deduped[-1].doc_id == hit.doc_id:
            continue
        deduped.append(hit)
    return 1.0 if any(h.doc_id == query.gold_doc_id for h in deduped[:k]) else 0.0


def homogenization(doc_chunk_vectors: Sequence[np.ndarray] | np.ndarray) -> float:
    """Mean pairwise cosine similarity among one document's chunk vectors."""
    m = np.asarray(doc_chunk_vectors, dtype=np.float64)
    n = m.shape[0]
    if n < 2:
        raise ValueError("need at least 2 vectors")
    total = m.sum(axis=0)
    off_diagonal = float(total @ total) - float(np.einsum("ij,ij->", m, m))
    return off_diagonal / (n * (n - 1))


def wrong_section_share(failures: Sequence[tuple[QuerySpec, Hit]]) -> float | None:
    """Share of specific-query failures landing in the gold document's wrong section.

    Returns None for an empty failure set (the share is undefined).
    """
    if not failures:
        return None
    same_doc_wrong_section = 0
    for query, top in failures:
        gold_chunk = next(iter(query.gold_chunk_ids))
        _, gold_section, _ = parse_chunk_id(gold_chunk)
        if top.doc_id == query.gold_doc_id and top.section_index != gold_section:
            same_doc_wrong_section += 1
    return same_doc_wrong_section / len(failures)


@dataclass
class MetricRow:
    strategy: str
    mean_cir: float
    ndcg_at_10: float
    recall5_specific: float
    recall5_thematic: float
    homogenization: float
    wrong_section_share: float | None


@dataclass
class SweepFlags:
    inverted_u: bool
    curve_cross_cir: float | None


@dataclass
class SweepReport:
    config_digest: str
    rows: list[MetricRow]
    flags: SweepFlags


def sweep_flags(rows: Sequence[MetricRow]) -> SweepFlags:
    """Shape flags over rows sorted ascending by mean ratio.

    inverted_u: some interior row's NDCG strictly exceeds both extreme rows.
    curve_cross_cir: smallest mean ratio where thematic recall exceeds
    specific recall, provided specific leads at the lowest-ratio row.
    """
    rows = sorted(rows, key=lambda r: r.mean_cir)
    inverted = False
    if len(rows) >= 3:
        interior = max(r.ndcg_at_10 for r in rows[1:-1])
        inverted = interior > rows[0].ndcg_at_10 and interior > rows[-1].ndcg_at_10
    cross: float | None = None
    if rows and rows[0].recall5_specific > rows[0].recall5_thematic:
        for row in rows:
            if row.recall5_thematic > row.recall5_specific:
                cross = row.mean_cir
                break
    return SweepFlags(inverted, cross)


_DIGEST_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(obj, sort_keys=True) is its encode(obj)


def _config_digest(documents, queries, strategies, embed_config: EmbedderConfig, chunk_target: int) -> str:
    """Digest of every input to run_sweep that can change a row, the sweep protocol and the package version.

    It is the sha256 of ``json.dumps(payload, sort_keys=True)``, where the
    payload holds the corpus's records under ``"corpus"``. Those bytes are
    fed to the hash in pieces, one corpus record at a time, so the corpus is
    never held as one JSON string.
    """
    import hashlib  # it maps OpenSSL's libcrypto, a few MB of RSS: only a sweep's digest loads it

    settings = {
        "version": __version__,
        "dim": embed_config.dim,
        "hash_seed": embed_config.hash_seed,
        "chunk_target": chunk_target,
        # The keys and values of the settable fields these once were: recorded digests stay valid.
        "strategies": [[s.kind, s.summary_budget, s.target_cir, s.t_max] for s in strategies],
        "k_values": [NDCG_K, RECALL_K],
        "search_depth": SEARCH_DEPTH,
    }
    head, tail = _DIGEST_ENCODER.encode({**settings, "corpus": None}).split('"corpus": null')
    digest = hashlib.sha256(f'{head}"corpus": ['.encode("utf-8"))
    separator = ""
    for rec in corpus_records(documents, queries):  # a JSON array's items are joined by ", "
        digest.update(f"{separator}{_DIGEST_ENCODER.encode(rec)}".encode("utf-8"))
        separator = ", "
    digest.update(f"]{tail}".encode("utf-8"))
    return digest.hexdigest()[:12]


def evaluate_strategy(
    sums: EnrichedSums,
    queries: Sequence[QuerySpec],
    query_vectors: np.ndarray,
    strat: InjectionStrategy,
    doc_rows: dict[str, list[int]],
) -> MetricRow:
    """Embed, index, and score every query for one strategy; *doc_rows* lists each document's chunk rows.

    Homogenization is measured on the float64 vectors. The index is then
    built from their float32 cast, which it would round them to anyway, and
    the float64 matrix is dropped first, so one float64 (chunks, dim) matrix
    is held at a time.
    """
    vectors, cirs = sums.vectors(strat)
    homog_values = [homogenization(vectors[rows]) for rows in doc_rows.values() if len(rows) >= 2]
    vectors = vectors.astype(np.float32)
    index = VectorIndex(
        dim=vectors.shape[1],
        chunk_ids=[c.chunk_id for c in sums.chunks],
        doc_ids=[c.doc_id for c in sums.chunks],
        section_indexes=[c.section_index for c in sums.chunks],
        vectors=vectors,
    )
    mean_cir = float(np.mean(cirs))

    ndcg_values: list[float] = []
    recall_specific: list[float] = []
    recall_thematic: list[float] = []
    failures: list[tuple[QuerySpec, Hit]] = []
    for qi, query in enumerate(queries):
        ranking = search(index, query_vectors[qi], SEARCH_DEPTH)
        ndcg_values.append(ndcg_at_k(ranking, query.gold_chunk_ids, NDCG_K))
        r = recall_at_k(ranking, query, RECALL_K)
        if query.intent == SPECIFIC:
            recall_specific.append(r)
            if ranking and ranking[0].chunk_id not in query.gold_chunk_ids:
                failures.append((query, ranking[0]))
        else:
            recall_thematic.append(r)

    return MetricRow(
        strategy=strat.kind,
        mean_cir=mean_cir,
        ndcg_at_10=float(np.mean(ndcg_values)) if ndcg_values else 0.0,
        recall5_specific=float(np.mean(recall_specific)) if recall_specific else 0.0,
        recall5_thematic=float(np.mean(recall_thematic)) if recall_thematic else 0.0,
        homogenization=float(np.mean(homog_values)) if homog_values else 0.0,
        wrong_section_share=wrong_section_share(failures),
    )


def run_sweep(
    documents: Sequence[Document],
    queries: Sequence[QuerySpec],
    strategies: Sequence[InjectionStrategy],
    embed_config: EmbedderConfig,
    *,
    chunk_target: int = CorpusConfig.chunk_token_target,
) -> SweepReport:
    """Run the full pipeline for every strategy; rows sorted by mean ratio.

    *chunk_target* must be the ``chunk_token_target`` the corpus was
    generated with: the queries' gold ids name chunks at that size.
    """
    if not documents or not queries:
        raise ConfigError("run_sweep needs a non-empty corpus and query set")
    if not strategies:
        raise ConfigError("strategies: the sweep needs at least one strategy")
    kinds = [strat.kind for strat in strategies]
    repeated = [kind for i, kind in enumerate(kinds) if kind in kinds[:i]]
    if repeated:
        raise ConfigError(f"strategies: {repeated[0]!r} is listed more than once; each kind makes one row")
    embedder = get_embedder(embed_config)
    chunks: list[Chunk] = []
    for doc in documents:
        chunks.extend(chunk_document(doc, chunk_target))
    chunk_ids = {chunk.chunk_id for chunk in chunks}
    doc_rows: dict[str, list[int]] = {}
    for i, chunk in enumerate(chunks):
        doc_rows.setdefault(chunk.doc_id, []).append(i)
    for query in queries:
        # A thematic gold set is its document's chunks, so it also catches a
        # target that divides the corpus's: those gold ids exist, but too few.
        not_whole_doc = query.intent == THEMATIC and query.gold_chunk_ids != {
            chunks[i].chunk_id for i in doc_rows.get(query.gold_doc_id, ())
        }
        if not_whole_doc or not query.gold_chunk_ids <= chunk_ids:
            raise ConfigError(
                f"chunk_target {chunk_target}: query {query.query_id} names gold chunks other than the ones"
                " this corpus has at that size; pass the corpus's chunk_token_target"
            )
    query_vectors = embedder.embed_many([q.text for q in queries])
    sums = EnrichedSums(chunks, {doc.doc_id: doc for doc in documents}, embedder)

    rows = [evaluate_strategy(sums, queries, query_vectors, strat, doc_rows) for strat in strategies]
    rows.sort(key=lambda r: r.mean_cir)
    # Keep the digest after the strategy loop: the libcrypto its hashlib maps then lands below the sweep's peak.
    digest = _config_digest(documents, queries, strategies, embed_config, chunk_target)
    return SweepReport(config_digest=digest, rows=rows, flags=sweep_flags(rows))


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _values(row: MetricRow) -> list:
    return [getattr(row, name) for name in _COLUMNS.values()]


def report_csv(report: SweepReport, header: dict | None = None) -> str:
    """The metric table; with the run's provenance *header*, a flags and a config comment line follow it."""
    lines = [CSV_HEADER]
    for r in report.rows:
        strategy, *measures = _values(r)
        lines.append(",".join([strategy, *map(_fmt, measures)]))
    if header is not None:
        cross = report.flags.curve_cross_cir
        lines.append(
            f"# flags: inverted_u={str(report.flags.inverted_u).lower()}"
            f" curve_cross_cir={'none' if cross is None else repr(cross)}"
        )
        lines.append("# config: " + " ".join(f"{k}={header[k]}" for k in sorted(header)))
    return "\n".join(lines) + "\n"


def _report_records(report: SweepReport) -> list[dict]:
    """The report's JSONL records: a sweep record, one record per row, then the flags."""
    flags = report.flags
    return [
        {"type": "sweep", "config_digest": report.config_digest},
        *({"type": "row", **dict(zip(_COLUMNS, _values(r)))} for r in report.rows),
        {"type": "flags", "inverted_u": flags.inverted_u, "curve_cross_cir": flags.curve_cross_cir},
    ]


def _from_record(rec: dict) -> str | MetricRow | SweepFlags:
    kind = rec.get("type")
    if kind == "sweep":
        return json_field(rec, "config_digest", str)
    if kind == "row":
        if rec["strategy"] not in STRATEGY_KINDS:  # it names a plotdata file, so it must be one of these
            raise ValueError(f"unknown strategy {rec['strategy']!r}")
        _, *measures, share = _COLUMNS
        floats = [json_field(rec, column, float) for column in measures]
        return MetricRow(rec["strategy"], *floats, json_field(rec, share, float, nullable=True))
    if kind == "flags":
        return SweepFlags(json_field(rec, "inverted_u", bool), json_field(rec, "curve_cross_cir", float, nullable=True))
    raise ValueError(f"unknown record type {kind!r}")


def parse_report_jsonl(path: str | Path) -> SweepReport:
    """Read a sweep.jsonl: one sweep record, the rows, and one flags record equal to ``sweep_flags`` of the rows.

    A missing or repeated sweep or flags record, a row whose strategy is not
    one of ``STRATEGY_KINDS`` or repeats another row's, a field not of its
    JSON type (a number, null only for ``wrong_section_share`` and
    ``curve_cross_cir``; a string digest; a boolean ``inverted_u``), or
    flags that disagree with the rows, is a CorpusFormatError naming *path*.
    """
    records = read_jsonl(path, _from_record, unique="strategy")
    digests = [r for r in records if isinstance(r, str)]
    flags = [r for r in records if isinstance(r, SweepFlags)]
    rows = [r for r in records if isinstance(r, MetricRow)]
    for kind, found in (("sweep", digests), ("flags", flags)):
        if len(found) != 1:
            raise CorpusFormatError(f"{path}: expected one {kind} record, found {len(found)}")
    if flags[0] != sweep_flags(rows):
        raise CorpusFormatError(f"{path}: the flags record {flags[0]} disagrees with the rows' {sweep_flags(rows)}")
    return SweepReport(digests[0], rows, flags[0])


def emit_report(report: SweepReport, fmt: str, out_dir: str | Path, header: dict | None = None) -> list[Path]:
    """Write the report as csv, jsonl, or plotdata files; returns the paths.

    csv and jsonl carry the run's provenance *header* when one is given, so
    re-emitting a sweep's report reproduces its files. plotdata emits one
    two-column file per strategy row (mean ratio against NDCG), ready for
    concatenation into an external plotting tool.
    """
    out_dir = Path(out_dir)
    written: list[Path] = []
    if fmt == "csv":
        path = out_dir / "sweep.csv"
        atomic_write_text(path, report_csv(report, header))
        written.append(path)
    elif fmt == "jsonl":
        path = out_dir / "sweep.jsonl"
        write_jsonl(path, _report_records(report), header)
        written.append(path)
    elif fmt == "plotdata":
        for r in report.rows:
            path = out_dir / f"{r.strategy}.dat"
            atomic_write_text(path, f"{_fmt(r.mean_cir)} {_fmt(r.ndcg_at_10)}\n")
            written.append(path)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return written
