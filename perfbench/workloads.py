"""The workloads' processes; ``run.py`` starts each in a fresh interpreter.

A function here returns one JSON-ready record: its timings, its peak RSS
read before any correctness check starts, and its attempted and failed
operation counts. ``t0`` is the wall-clock time at which the parent started
the process, so set-up time includes interpreter start and imports. The
package is always called through module attributes (``retrieval.search``),
so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import statistics
import time

import cirbench.cli
from cirbench import chunking, corpus, embedding, evaluation, injection, retrieval

import oracle
import tracing

DIM = 256
CHUNK_TARGET = 250
T_MAX = 0.35
DEPTH = 100
CLI_K = 10
# Width of the query batches the oracle scores at once.
ORACLE_BATCH = 200


def corpus_config(seed: int, docs: int, queries: int) -> corpus.CorpusConfig:
    # The CLI's 30/40/30 split across the three document typologies.
    normative, technical = round(docs * 0.3), round(docs * 0.4)
    counts = {"normative": normative, "technical": technical, "transactional": docs - normative - technical}
    return corpus.CorpusConfig(seed=seed, doc_counts=counts, chunk_token_target=CHUNK_TARGET, query_count=queries)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _start_tracer(trace: bool, phase: str) -> tracing.Tracer | None:
    if not trace:
        return None
    tracer = tracing.Tracer(phase)
    tracer.install()
    return tracer


def _closed_loop(tracer, n: int, seconds: float, op) -> tuple[list[float], float | None]:
    """Call ``op(j)`` for j = 0, 1, ... (mod n) until *seconds* pass and every j ran.

    ``op`` returns its own latency. Traced, the loop runs untraced for half
    the time and is followed by exactly one traced pass over the n
    operations, so the trace's counts are fixed by the workload, not by the
    clock. Each traced call is paired with an untraced call of the same
    operation right after it; the overhead share compares the medians of
    the pairs' two halves, so a slow spell of the machine hits both alike.
    Returns all latencies and the overhead share.
    """

    def loop(budget: float) -> list[float]:
        lat: list[float] = []
        deadline = time.perf_counter() + budget
        while len(lat) < n or time.perf_counter() < deadline:
            lat.append(op(len(lat) % n))
        return lat

    if tracer is None:
        return loop(seconds), None
    tracer.uninstall()
    lat = loop(seconds / 2)
    tracer.phase = "queries"
    traced, untraced = [], []
    for j in range(n):
        tracer.install()
        traced.append(op(j))
        tracer.uninstall()
        untraced.append(op(j))
    return lat + traced + untraced, statistics.median(traced) / statistics.median(untraced) - 1.0


def sweep(seed: int, docs: int, queries: int, t0: float, trace: bool, spans_path: str) -> dict:
    """One ``run_sweep`` call over all six strategies on a seeded corpus."""
    tracer = _start_tracer(trace, "setup")
    corpus_docs, corpus_queries = corpus.generate_corpus(corpus_config(seed, docs, queries))
    strategies = injection.all_strategies(T_MAX)
    config = embedding.EmbedderConfig(dim=DIM, hash_seed=oracle.cli_hash_seed(seed))
    setup_s = time.time() - t0
    if tracer:
        tracer.phase = "sweep"
    start = time.perf_counter()
    report = evaluation.run_sweep(corpus_docs, corpus_queries, strategies, config, chunk_target=CHUNK_TARGET)
    out = {
        "setup_s": setup_s,
        "sweep_s": time.perf_counter() - start,
        "peak_rss_mb": _peak_rss_mb(),
        "sweep": {
            "rows": [{f: getattr(r, f) for f in ("strategy",) + oracle.ROW_FIELDS} for r in report.rows],
            "flags": {"inverted_u": report.flags.inverted_u, "curve_cross_cir": report.flags.curve_cross_cir},
        },
    }
    if tracer:
        tracer.uninstall()
        out.update(tracing.report(tracer, spans_path))
    return out


def query(seed: int, docs: int, queries: int, t0: float, seconds: float, trace: bool, check: bool,
          spans_path: str) -> dict:
    """Build a ddai index, then a closed loop of embed + search(k=100), one client.

    With *check* the returned ids go through the oracle; either way they are
    returned, so the caller can compare processes.
    """
    tracer = _start_tracer(trace, "setup")
    corpus_docs, corpus_queries = corpus.generate_corpus(corpus_config(seed, docs, queries))
    doc_by_id = {d.doc_id: d for d in corpus_docs}
    chunks = [c for d in corpus_docs for c in chunking.chunk_document(d, CHUNK_TARGET)]
    strat = injection.strategy("ddai", T_MAX)
    enriched = [injection.enrich(c, injection.build_context(doc_by_id[c.doc_id], c, strat)) for c in chunks]
    embedder = embedding.get_embedder(embedding.EmbedderConfig(dim=DIM, hash_seed=oracle.cli_hash_seed(seed)))
    vectors = embedder.embed_many([e.tokens for e in enriched])
    index = retrieval.build_index(
        (e.base.chunk_id, e.base.doc_id, e.base.section_index, vectors[i]) for i, e in enumerate(enriched)
    )
    out: dict = {"setup_s": time.time() - t0}
    texts = [q.text for q in corpus_queries]
    first: list = [None] * len(texts)
    failed = 0

    def op(j: int) -> float:
        nonlocal failed
        start = time.perf_counter()
        hits = retrieval.search(index, embedder.embed(texts[j]), DEPTH)
        took = time.perf_counter() - start
        got = [h.chunk_id for h in hits]
        if first[j] is None:
            first[j] = got
        elif got != first[j]:
            failed += 1
        return took

    lat, overhead = _closed_loop(tracer, len(texts), seconds, op)
    out.update(latencies=lat, peak_rss_mb=_peak_rss_mb())
    if overhead is not None:
        out["overhead_share"] = overhead
    if check:
        failed += _oracle_failures([e.base.chunk_id for e in enriched], [e.tokens for e in enriched],
                                   oracle.cli_hash_seed(seed), texts, first, DEPTH)
    out.update(attempted=len(lat), failed=failed, ids=first)
    if tracer:
        out.update(tracing.report(tracer, spans_path))
    return out


_QUERY_LINE = re.compile(r"^\d+\t(\S+)\t")


def _cli(tracer, stage: str, argv: list[str]) -> tuple[int, list[str], float, str]:
    """Call ``cirbench.cli.main`` in-process; returns (exit code, hit ids printed, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{stage}") if tracer and tracer.active else contextlib.nullcontext()
    start = time.perf_counter()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cirbench.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    took = time.perf_counter() - start
    return rc, [m.group(1) for m in map(_QUERY_LINE.match, out.getvalue().splitlines()) if m], took, err.getvalue()


def _read_jsonl(path: str):
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def _artifacts(work: str) -> dict[str, str]:
    names = {"corpus": "corpus.jsonl", "chunks": "chunks.jsonl", "enriched": "enriched.jsonl", "vectors": "vectors.cirx"}
    return {k: os.path.join(work, v) for k, v in names.items()}


def cli_pipeline(seed: int, docs: int, queries: int, t0: float, trace: bool, work: str, spans_path: str) -> dict:
    """gen -> chunk -> inject ddai -> embed, each through ``cirbench.cli.main``, into *work*."""
    out: dict = {"setup_s": time.time() - t0}
    tracer = _start_tracer(trace, "pipeline")
    paths = _artifacts(work)
    hash_seed = str(oracle.cli_hash_seed(seed))
    stages = [
        ("gen", ["gen", "--seed", str(seed), "--docs", str(docs), "--queries", str(queries),
                 "--out", paths["corpus"]]),
        ("chunk", ["chunk", "--corpus", paths["corpus"], "--out", paths["chunks"]]),
        ("inject", ["inject", "--corpus", paths["corpus"], "--chunks", paths["chunks"], "--strategy", "ddai",
                    "--out", paths["enriched"]]),
        ("embed", ["embed", "--enriched", paths["enriched"], "--hash-seed", hash_seed, "--out", paths["vectors"]]),
    ]
    os.makedirs(work, exist_ok=True)
    out["pipeline_s"] = 0.0
    for stage, argv in stages:
        rc, _, took, err = _cli(tracer, stage, argv)
        out["pipeline_s"] += took
        if rc != 0:
            raise RuntimeError(f"cirbench {stage} exited {rc}, so the chain cannot continue: {err.strip()}")
    out.update(peak_rss_mb=_peak_rss_mb(), attempted=len(stages), failed=0)
    if tracer:
        tracer.uninstall()
        out.update(tracing.report(tracer, spans_path))
    return out


def cli_queries(seed: int, cli_queries: int, t0: float, seconds: float, trace: bool, check: bool, work: str,
                spans_path: str) -> dict:
    """Repeated ``query --k 10`` calls over the first *cli_queries* query texts of the
    corpus in *work*; each call loads the index file the pipeline wrote.

    With *check* the returned ids go through the oracle; either way they are
    returned, so the caller can compare processes.
    """
    out: dict = {"setup_s": time.time() - t0, "calls_failed": 0}
    tracer = _start_tracer(trace, "queries")
    paths = _artifacts(work)
    hash_seed = str(oracle.cli_hash_seed(seed))
    query_block = next(r for r in _read_jsonl(paths["corpus"]) if r.get("type") == "queries")
    texts = [" ".join(q["text"]) for q in query_block["queries"][:cli_queries]]
    first: list = [None] * len(texts)
    failed = 0

    def op(j: int) -> float:
        nonlocal failed
        argv = ["query", "--index", paths["vectors"], "--text", texts[j], "--k", str(CLI_K), "--hash-seed", hash_seed]
        rc, got, took, _ = _cli(tracer, "query", argv)
        if rc != 0:
            failed += 1
            out["calls_failed"] += 1
        elif first[j] is None:
            first[j] = got
        elif got != first[j]:
            failed += 1
        return took

    lat, overhead = _closed_loop(tracer, len(texts), seconds, op)
    out.update(latencies=lat, peak_rss_mb=_peak_rss_mb())
    if overhead is not None:
        out["overhead_share"] = overhead

    # Outside the timed loop: the first query again, without --hash-seed.
    _, default_seed, _, _ = _cli(None, "query", ["query", "--index", paths["vectors"], "--text", texts[0],
                                              "--k", str(CLI_K)])
    out.update(default_seed_mismatch=int(default_seed != first[0]), ids=first, attempted=len(lat))
    if check:
        records = [r for r in _read_jsonl(paths["enriched"]) if r.get("type") != "run_config"]
        failed += _oracle_failures([r["chunk_id"] for r in records], [r["tokens"] for r in records],
                                   int(hash_seed), [oracle.tokenize(t) for t in texts], first, CLI_K)
    out["failed"] = failed
    if tracer:
        out.update(tracing.report(tracer, spans_path))
    return out


def _oracle_failures(ids: list[str], token_lists: list[list[str]], hash_seed: int, query_tokens: list[list[str]],
                     results: list, k: int) -> int:
    """Queries whose returned chunk ids differ from the full-scan oracle's top *k*.

    The oracle embeds the chunks' *token_lists* and the queries itself, so a
    wrong embedding fails here as well as a wrong ranking.
    """
    row_of = {cid: i for i, cid in enumerate(ids)}
    emb = oracle.Embedder(DIM, hash_seed)
    matrix = oracle.stored_scores_matrix(emb.embed_many(token_lists))
    rank = oracle.id_ranks(ids)
    qvecs = emb.embed_many(query_tokens)
    failed = 0
    for lo in range(0, len(results), ORACLE_BATCH):
        scores = qvecs[lo : lo + ORACLE_BATCH] @ matrix.T
        for j, row in enumerate(scores, start=lo):
            rows = [row_of.get(cid, -1) for cid in results[j] or []]
            if results[j] is None or -1 in rows or not oracle.ranking_matches(rows, oracle.top_k(row, rank, k), row):
                failed += 1
    return failed
