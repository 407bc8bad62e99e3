from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from cirbench import (
    CorpusConfig,
    Embedder,
    EmbedderConfig,
    MetricRow,
    QuerySpec,
    SweepFlags,
    SweepReport,
    all_strategies,
    chunk_document,
    dilution_curve,
    emit_report,
    generate_corpus,
    homogenization,
    ndcg_at_k,
    recall_at_k,
    run_sweep,
    strategy,
    sweep_flags,
    wrong_section_share,
)
from cirbench import __version__
from cirbench.corpus import SPECIFIC, THEMATIC, corpus_records
from cirbench.embedding import unit_rows
from cirbench.errors import ConfigError, EmbeddingError
from cirbench.injection import EnrichedSums
from cirbench.evaluation import (
    CSV_HEADER,
    NDCG_K,
    RECALL_K,
    SEARCH_DEPTH,
    _config_digest,
    evaluate_strategy,
    parse_report_jsonl,
    report_csv,
)
from cirbench.retrieval import Hit

SRC = Path(__file__).resolve().parents[1] / "src"


def _hits(ids: list[str], docs: list[str] | None = None, sections: list[int] | None = None) -> list[Hit]:
    docs = docs or [f"d{i}" for i in range(len(ids))]
    sections = sections or [0] * len(ids)
    return [Hit(cid, doc, sec, 1.0 - 0.01 * i) for i, (cid, doc, sec) in enumerate(zip(ids, docs, sections))]


def test_ndcg_single_relevant_at_rank_1():
    assert ndcg_at_k(_hits(["a", "b", "c"]), {"a"}) == 1.0


def test_ndcg_single_relevant_at_rank_2():
    # Hand oracle: DCG = 1/log2(3), IDCG = 1.
    value = ndcg_at_k(_hits([f"x{i}" for i in range(12)][:1] + ["gold"] + [f"y{i}" for i in range(8)]), {"gold"}, 10)
    assert value == pytest.approx(1 / math.log2(3), abs=1e-12)


def test_ndcg_no_relevant_in_top_k():
    assert ndcg_at_k(_hits([f"x{i}" for i in range(15)]), {"gold"}, 10) == 0.0


def test_ndcg_empty_relevant_set():
    assert ndcg_at_k(_hits(["a"]), set()) == 0.0


def test_ndcg_invariant_below_cutoff():
    ids = ["gold"] + [f"x{i}" for i in range(20)]
    base = ndcg_at_k(_hits(ids), {"gold"}, 10)
    reordered = ids[:10] + list(reversed(ids[10:]))
    assert ndcg_at_k(_hits(reordered), {"gold"}, 10) == base


def _ndcg_oracle(ids: list[str], relevant: set[str], k: int) -> float:
    if not relevant:
        return 0.0
    dcg = sum(1 / math.log2(i + 1) for i, cid in enumerate(ids[:k], start=1) if cid in relevant)
    idcg = sum(1 / math.log2(i + 1) for i in range(1, min(k, len(relevant)) + 1))
    return dcg / idcg


def test_ndcg_matches_bruteforce_oracle():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(1, 30)
        ids = [f"c{i}" for i in range(n)]
        rng.shuffle(ids)
        relevant = set(rng.sample(ids, rng.randint(0, n))) if n else set()
        k = rng.randint(1, 15)
        assert ndcg_at_k(_hits(ids), relevant, k) == _ndcg_oracle(ids, relevant, k)


def _specific(gold: str, doc: str = "dG") -> QuerySpec:
    return QuerySpec("q", SPECIFIC, ["t"], {gold}, doc)


def _thematic(doc: str, golds: set[str]) -> QuerySpec:
    return QuerySpec("q", THEMATIC, ["t"], golds, doc)


def test_recall_specific_hit_at_rank_4():
    ranking = _hits(["a", "b", "c", "gold", "d"])
    assert recall_at_k(ranking, _specific("gold"), 5) == 1.0


def test_recall_specific_miss_at_rank_6():
    ranking = _hits(["a", "b", "c", "d", "e", "gold"])
    assert recall_at_k(ranking, _specific("gold"), 5) == 0.0


def test_recall_thematic_any_hit():
    ranking = _hits(
        ["g1", "g2", "x1", "x2", "g3"],
        docs=["dG", "dG", "d1", "d2", "dG"],
    )
    assert recall_at_k(ranking, _thematic("dG", {"g1", "g2", "g3"}), 5) == 1.0


def test_recall_thematic_deduplicates_consecutive_docs():
    # Five hits from one foreign document collapse to one entry, so the
    # gold document still lands inside the top five.
    ranking = _hits(
        ["x1", "x2", "x3", "x4", "x5", "g1"],
        docs=["dA", "dA", "dA", "dA", "dA", "dG"],
    )
    assert recall_at_k(ranking, _thematic("dG", {"g1"}), 5) == 1.0


def _recall_oracle(ranking: list[Hit], query: QuerySpec, k: int) -> float:
    if query.intent == SPECIFIC:
        return 1.0 if any(h.chunk_id in query.gold_chunk_ids for h in ranking[:k]) else 0.0
    docs: list[str] = []
    for h in ranking:
        if not docs or docs[-1] != h.doc_id:
            docs.append(h.doc_id)
    return 1.0 if query.gold_doc_id in docs[:k] else 0.0


def test_recall_matches_bruteforce_oracle():
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randint(1, 25)
        ids = [f"c{i}" for i in range(n)]
        docs = [f"d{rng.randint(0, 4)}" for _ in range(n)]
        ranking = _hits(ids, docs=docs)
        if rng.random() < 0.5:
            gold = rng.choice(ids)
            query = _specific(gold, doc=docs[ids.index(gold)])
        else:
            doc = rng.choice(docs)
            query = _thematic(doc, {cid for cid, d in zip(ids, docs) if d == doc})
        k = rng.randint(1, 8)
        assert recall_at_k(ranking, query, k) == _recall_oracle(ranking, query, k)


def test_homogenization_identical_vectors():
    v = np.zeros(8)
    v[0] = 1.0
    assert homogenization([v, v, v]) == pytest.approx(1.0, abs=1e-12)


def test_homogenization_orthogonal_vectors():
    m = np.eye(4)
    assert homogenization(list(m)) == pytest.approx(0.0, abs=1e-12)


def test_homogenization_arithmetic_mean_oracle():
    # Three unit vectors with pairwise cosines 0.2, 0.4, 0.6 via Cholesky.
    gram = np.array([[1.0, 0.2, 0.4], [0.2, 1.0, 0.6], [0.4, 0.6, 1.0]])
    vectors = np.linalg.cholesky(gram)
    assert homogenization(vectors) == pytest.approx((0.2 + 0.4 + 0.6) / 3, abs=1e-12)


def test_homogenization_needs_two_vectors():
    with pytest.raises(ValueError):
        homogenization([np.ones(4)])


def test_wrong_section_share_cases():
    gold_chunk = "dG:s002:t00000"

    def failure(doc: str, section: int) -> tuple[QuerySpec, Hit]:
        q = QuerySpec("q", SPECIFIC, ["t"], {gold_chunk}, "dG")
        return q, Hit("other", doc, section, 0.5)

    assert wrong_section_share([failure("dX", 0), failure("dY", 1)]) == 0.0
    assert wrong_section_share([failure("dG", 0), failure("dG", 1)]) == 1.0
    nine = [failure("dG", 0)] * 4 + [failure("dX", 0)] * 5
    assert wrong_section_share(nine) == pytest.approx(4 / 9, abs=1e-12)
    # Same document, same section is not a wrong-section failure.
    assert wrong_section_share([failure("dG", 2)]) == 0.0
    assert wrong_section_share([]) is None


def test_sweep_flags_inverted_u_and_crossing():
    def row(s, cir, ndcg, spec, them):
        return MetricRow(s, cir, ndcg, spec, them, 0.5, None)

    rows = [
        row("baseline", 0.0, 0.5, 0.8, 0.4),
        row("medium", 0.35, 0.7, 0.7, 0.8),
        row("overload", 0.85, 0.4, 0.2, 0.9),
    ]
    flags = sweep_flags(rows)
    assert flags.inverted_u is True
    assert flags.curve_cross_cir == 0.35

    monotone = [
        row("baseline", 0.0, 0.5, 0.4, 0.8),
        row("medium", 0.35, 0.6, 0.3, 0.9),
        row("overload", 0.85, 0.7, 0.2, 0.95),
    ]
    flags = sweep_flags(monotone)
    assert flags.inverted_u is False
    assert flags.curve_cross_cir is None  # specific never led


def test_run_sweep_degenerate_single_strategy(small_config, small_corpus):
    docs, queries = small_corpus
    report = run_sweep(
        docs,
        queries,
        [strategy("baseline")],
        EmbedderConfig(dim=128, hash_seed=3),
        chunk_target=small_config.chunk_token_target,
    )
    assert len(report.rows) == 1
    assert report.rows[0].strategy == "baseline"
    assert report.rows[0].mean_cir == 0.0
    assert report.flags.inverted_u is False
    assert report.flags.curve_cross_cir is None


def test_run_sweep_static_rows_strictly_increasing(small_config, small_corpus):
    docs, queries = small_corpus
    static = [s for s in all_strategies() if s.kind != "ddai"]
    report = run_sweep(
        docs,
        queries,
        static,
        EmbedderConfig(dim=128, hash_seed=3),
        chunk_target=small_config.chunk_token_target,
    )
    assert [r.strategy for r in report.rows] == ["baseline", "low", "medium", "high", "overload"]
    cirs = [r.mean_cir for r in report.rows]
    assert all(a < b for a, b in zip(cirs, cirs[1:]))
    for r in report.rows:
        assert 0.0 <= r.mean_cir < 1.0
        assert 0.0 <= r.ndcg_at_10 <= 1.0
        assert 0.0 <= r.homogenization <= 1.0


def test_run_sweep_rejects_a_chunk_target_the_corpus_was_not_built_at():
    cfg = CorpusConfig(
        seed=3,
        doc_counts={"normative": 3, "technical": 3, "transactional": 3},
        chunk_token_target=120,
        query_count=40,
    )
    docs, queries = generate_corpus(cfg)
    with pytest.raises(ConfigError, match="chunk_target 250: query q-"):
        run_sweep(docs, queries, [strategy("baseline")], EmbedderConfig(dim=64, hash_seed=3), chunk_target=250)
    # A target that divides the corpus's keeps every gold id, but a thematic
    # gold set then misses chunks of its document.
    docs, queries = generate_corpus(replace(cfg, chunk_token_target=250))
    with pytest.raises(ConfigError, match="chunk_target 125: query q-them-"):
        run_sweep(docs, queries, [strategy("baseline")], EmbedderConfig(dim=64, hash_seed=3), chunk_target=125)


def test_config_digest_covers_corpus_and_search_inputs():
    def digest(seed: int, **kwargs) -> str:
        cfg = CorpusConfig(seed=seed, doc_counts={"normative": 1, "technical": 1, "transactional": 1}, query_count=8)
        docs, queries = generate_corpus(cfg)
        return run_sweep(docs, queries, [strategy("low")], EmbedderConfig(dim=64, hash_seed=3), **kwargs).config_digest

    first = digest(11)
    assert digest(11) == first
    assert digest(12) != first  # same counts and embedder, another corpus


def test_config_digest_value_is_stable():
    # Recorded before the strategy presets and the cut-offs became derived
    # values; the payload must keep hashing to the same digests.
    cfg = CorpusConfig(seed=11, doc_counts={"normative": 1, "technical": 1, "transactional": 1}, query_count=8)
    docs, queries = generate_corpus(cfg)
    embed_config = EmbedderConfig(dim=64, hash_seed=3)
    assert run_sweep(docs, queries, [strategy("low")], embed_config).config_digest == "bf1bff421914"
    assert run_sweep(docs, queries, all_strategies(0.2), embed_config).config_digest == "81eabcbc9157"


@pytest.mark.parametrize("seed", [42, 7])
def test_config_digest_is_the_hash_of_the_one_shot_payload(seed):
    docs, queries = generate_corpus(CorpusConfig(seed=seed))  # a reference corpus
    strategies, embed_config = all_strategies(), EmbedderConfig(hash_seed=seed)
    payload = {
        "version": __version__,
        "corpus": list(corpus_records(docs, queries)),
        "dim": embed_config.dim,
        "hash_seed": seed,
        "chunk_target": 250,
        "strategies": [[s.kind, s.summary_budget, s.target_cir, s.t_max] for s in strategies],
        "k_values": [NDCG_K, RECALL_K],
        "search_depth": SEARCH_DEPTH,
    }
    one_shot = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()[:12]
    assert _config_digest(docs, queries, strategies, embed_config, 250) == one_shot


def test_report_csv_shape(small_config, small_corpus):
    docs, queries = small_corpus
    static = [s for s in all_strategies() if s.kind != "ddai"]
    report = run_sweep(
        docs,
        queries,
        static,
        EmbedderConfig(dim=64, hash_seed=3),
        chunk_target=small_config.chunk_token_target,
    )
    lines = report_csv(report).strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 5


def test_emit_report_empty_is_header_only(tmp_path):
    report = SweepReport("deadbeef", [], SweepFlags(False, None))
    (path,) = emit_report(report, "csv", tmp_path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_report_unknown_format_is_a_value_error(tmp_path):
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        emit_report(SweepReport("deadbeef", [], SweepFlags(False, None)), "xml", tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_emit_report_plotdata_series_count(tmp_path):
    rows = [
        MetricRow("baseline", 0.0, 0.5, 0.8, 0.4, 0.1, None),
        MetricRow("medium", 0.35, 0.7, 0.7, 0.8, 0.4, 0.25),
        MetricRow("overload", 0.85, 0.4, 0.2, 0.9, 0.9, 0.5),
    ]
    report = SweepReport("deadbeef", rows, sweep_flags(rows))
    paths = emit_report(report, "plotdata", tmp_path)
    assert len(paths) == len(rows)
    for p, r in zip(paths, rows):
        cir, ndcg = p.read_text().split()
        assert float(cir) == r.mean_cir
        assert float(ndcg) == r.ndcg_at_10


def test_report_jsonl_round_trip(tmp_path):
    rows = [
        MetricRow("baseline", 0.0, 0.5, 0.8, 0.4, 0.1, None),
        MetricRow("overload", 0.85, 0.4, 0.2, 0.9, 0.9, 0.45),
    ]
    report = SweepReport("cafe01234567", rows, sweep_flags(rows))
    (path,) = emit_report(report, "jsonl", tmp_path)
    back = parse_report_jsonl(path)
    assert back == report


def test_evaluate_strategy_holds_one_float64_vector_matrix_at_a_time(small_config, small_corpus):
    docs, queries = small_corpus
    chunks = [c for d in docs for c in chunk_document(d, small_config.chunk_token_target)]
    embedder = Embedder(EmbedderConfig())
    sums = EnrichedSums(chunks, {d.doc_id: d for d in docs}, embedder)
    query_vectors = embedder.embed_many([q.text for q in queries])
    doc_rows: dict[str, list[int]] = {}
    for i, chunk in enumerate(chunks):
        doc_rows.setdefault(chunk.doc_id, []).append(i)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        evaluate_strategy(sums, queries, query_vectors, strategy("ddai"), doc_rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The vectors and the block sums they come from, then their float32 cast beside the index's float64 copy:
    # about 1.8 matrices here. Keeping the float64 vectors beside the index makes it 2.6, and handing the index
    # float32 rows one by one, which it stacks a block at a time, 2.1.
    assert peak - start < 2.0 * len(chunks) * EmbedderConfig().dim * 8


def test_sweeps_sharing_a_dim_each_match_a_fresh_process(small_config, small_corpus):
    # The sweep caches token-vector sums; a cache that outlived one run_sweep
    # call would hand the second hash seed the first seed's sums.
    docs, queries = small_corpus

    def csv(hash_seed: int) -> str:
        report = run_sweep(docs, queries, all_strategies(), EmbedderConfig(dim=64, hash_seed=hash_seed))
        return report_csv(report)

    script = (
        "import sys\n"
        "from cirbench import CorpusConfig, EmbedderConfig, all_strategies, generate_corpus, run_sweep\n"
        "from cirbench.evaluation import report_csv\n"
        f"docs, queries = generate_corpus(CorpusConfig(**{asdict(small_config)!r}))\n"
        "config = EmbedderConfig(dim=64, hash_seed=int(sys.argv[1]))\n"
        "sys.stdout.write(report_csv(run_sweep(docs, queries, all_strategies(), config)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    in_process = [csv(5), csv(6)]
    for hash_seed, got in zip((5, 6), in_process):
        argv = [sys.executable, "-c", script, str(hash_seed)]
        fresh = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        assert got == fresh.stdout
    assert in_process[0] != in_process[1]


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: Embedder(EmbedderConfig()).token_vector(""), EmbeddingError, "empty token"),
        (lambda: unit_rows(np.zeros((1, 8))), EmbeddingError, "zero embedding"),
        (lambda: dilution_curve(np.ones(8), np.ones(8), -np.ones(8), grid_points=2), ValueError, "grid_points"),
        (lambda: ndcg_at_k(_hits(["a"]), {"a"}, k=0), ValueError, "k must be >= 1"),
        (lambda: recall_at_k(_hits(["a"]), _specific("a"), k=0), ValueError, "k must be >= 1"),
    ],
    ids=["an empty token", "unit of a zero vector", "a two-point grid", "ndcg at k=0", "recall at k=0"],
)
def test_a_degenerate_argument_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
