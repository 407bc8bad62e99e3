"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cirbench import (
    CorpusConfig,
    EmbedderConfig,
    all_strategies,
    build_index,
    chunk_document,
    compute_cir,
    ddai_budget,
    dilution_curve,
    effective_lambda,
    enrich,
    generate_corpus,
    get_embedder,
    make_chunk_id,
    ndcg_at_k,
    recall_at_k,
    run_sweep,
    search,
    sweep_flags,
)
from cirbench._hash import fork_seed
from cirbench.chunking import Chunk
from cirbench.cli import EXIT_OK, main
from cirbench.corpus import SPECIFIC, THEMATIC, QuerySpec
from cirbench.retrieval import Hit

REFERENCE_SEED = 42
STATIC_KINDS = ["baseline", "low", "medium", "high", "overload"]
# The reference sweep's rows, in report order, as (mean_cir, ndcg_at_10, recall5_specific,
# recall5_thematic, homogenization, wrong_section_share), and its (inverted_u, curve_cross_cir)
# flags: the seed-42 record of perfbench/reference_rows.json.
REFERENCE_ROWS = {
    "baseline": (0.0, 0.41747924393679964, 0.74, 0.58, 0.08672265372752613, 0.08333333333333333),
    "low": (0.14969290458469586, 0.6816969356552421, 0.76, 0.96, 0.17386618095006084, 0.2682926829268293),
    "ddai": (0.348737597062581, 0.5585838112487452, 0.69, 0.86, 0.31600430160545495, 0.13725490196078433),
    "medium": (0.350591234824621, 0.6499053799448009, 0.73, 0.94, 0.42273722501780336, 0.22641509433962265),
    "high": (0.5999275231590996, 0.6143267126720869, 0.49, 0.91, 0.6906327898589967, 0.21212121212121213),
    "overload": (0.8500267329525064, 0.4912544526969744, 0.24, 0.93, 0.901011442689255, 0.2967032967032967),
}
REFERENCE_FLAGS = (True, 0.14969290458469586)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {num}: {text}")
        raise
    print(f"PASS  criterion {num}: {text}")


@pytest.fixture(scope="module")
def reference_sweep():
    config = CorpusConfig(seed=REFERENCE_SEED)  # 50 docs, 200 queries, 250-token chunks
    docs, queries = generate_corpus(config)
    chunks = [c for d in docs for c in chunk_document(d, config.chunk_token_target)]
    embed_config = EmbedderConfig(dim=256, hash_seed=fork_seed(REFERENCE_SEED, "embed") % (1 << 62))
    started = time.perf_counter()
    report = run_sweep(
        docs, queries, all_strategies(t_max=0.35), embed_config, chunk_target=config.chunk_token_target
    )
    elapsed = time.perf_counter() - started
    return report, elapsed, len(chunks), len(queries)


def test_criterion_1_cir_formula_exactness():
    with criterion(1, "CIR formula exactness and strict monotonicity"):
        started = time.perf_counter()
        assert compute_cir(150, 10) == 0.9375
        rng = random.Random(101)
        for _ in range(10_000):
            ctx = rng.randint(0, 10_000)
            chunk = rng.randint(1, 10_000)
            value = compute_cir(ctx, chunk)
            assert 0.0 <= value < 1.0
            assert compute_cir(ctx + 1, chunk) > value
            if ctx > 0:
                assert compute_cir(ctx, chunk + 1) < value
        assert time.perf_counter() - started < 1.0


def test_criterion_2_ddai_budget():
    with criterion(2, "adaptive injection budget values, bound, and tightness"):
        started = time.perf_counter()
        assert ddai_budget(300, 0.35) == 161
        assert ddai_budget(30, 0.35) == 16
        rng = random.Random(202)
        for _ in range(1000):
            chunk_len = rng.randint(1, 100_000)
            t_max = rng.uniform(0.005, 0.995)
            budget = ddai_budget(chunk_len, t_max)
            assert compute_cir(budget, chunk_len) <= t_max
            assert budget == 0 or compute_cir(budget + 1, chunk_len) > t_max
            assert compute_cir(budget + 1, chunk_len) > t_max
        assert time.perf_counter() - started < 1.0


_TOKEN_POOL = [f"w{i:05d}" for i in range(20_000)]


def _random_enriched(rng: random.Random):
    ctx_tokens = rng.choices(_TOKEN_POOL, k=rng.randint(1, 300))
    chunk_tokens = rng.choices(_TOKEN_POOL, k=rng.randint(1, 400))
    rng.randint(0, len(ctx_tokens))  # unused; drawn so that the later draws, and the data, stay fixed
    chunk = Chunk(make_chunk_id("normative-0000", 0, 0), "normative-0000", 0, ["h"], chunk_tokens)
    return enrich(chunk, ctx_tokens)


def test_criterion_3_mixing_identity():
    with criterion(3, "mixing identity: effective weight equals the injection ratio"):
        started = time.perf_counter()
        config = EmbedderConfig(dim=256, hash_seed=303)
        emb = get_embedder(config)
        rng = random.Random(303)
        for _ in range(1000):
            e = _random_enriched(rng)
            assert abs(effective_lambda(e, config) - e.cir) <= 1e-9
            full = emb.embed(e.tokens)
            comb = e.cir * emb.mean_vector(e.context)
            comb += (1.0 - e.cir) * emb.mean_vector(e.base.tokens)
            comb /= np.linalg.norm(comb)
            assert float(np.max(np.abs(full - comb))) <= 1e-9
        assert time.perf_counter() - started < 5.0


def test_criterion_4_dilution_geometry():
    with criterion(4, "dilution curve unimodality, peak position, and inequality"):
        started = time.perf_counter()
        rng = np.random.default_rng(404)
        dim = 8
        grid = 10_001
        for trial in range(1000):
            a = float(rng.uniform(0.15, 0.8))
            if trial % 2 == 0:
                b = float(rng.uniform(0.02, 0.8))
            else:
                b = float(-rng.uniform(0.02, 0.8))
            if a * a + b * b > 0.96:
                scale = math.sqrt(0.96 / (a * a + b * b))
                a *= scale
                b *= scale
            v_local = np.zeros(dim)
            v_local[0] = 1.0
            v_global = np.zeros(dim)
            v_global[1] = 1.0
            q = a * v_local + b * v_global
            q[2] = math.sqrt(1.0 - a * a - b * b)

            lams, sims = dilution_curve(q, v_local, v_global, grid)
            peak = int(np.argmax(sims))
            # unimodal: non-decreasing up to the peak, non-increasing after
            assert np.all(np.diff(sims[: peak + 1]) >= -1e-9)
            assert np.all(np.diff(sims[peak:]) <= 1e-9)
            if b > 0:
                assert abs(lams[peak] - b / (a + b)) <= 1e-3
            else:
                assert peak == 0
                assert np.all(sims[1:] < sims[0])
        # public API spot check on the closed-form case
        _, sims = dilution_curve(np.eye(8)[0], np.eye(8)[0], np.eye(8)[1], 101)
        assert sims[50] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert time.perf_counter() - started < 10.0


def test_criterion_5_metric_oracles():
    with criterion(5, "NDCG@10 and Recall@5 match direct-definition recomputation"):
        hand = [Hit("x0", "d0", 0, 0.9), Hit("gold", "dG", 0, 0.8)] + [
            Hit(f"y{i}", f"d{i}", 0, 0.5 - 0.01 * i) for i in range(10)
        ]
        assert ndcg_at_k(hand, {"gold"}, 10) == pytest.approx(1 / math.log2(3), abs=1e-12)

        rng = random.Random(505)
        for _ in range(50):
            n = rng.randint(1, 30)
            ids = [f"c{i}" for i in range(n)]
            rng.shuffle(ids)
            docs = [f"d{rng.randint(0, 4)}" for _ in range(n)]
            ranking = [Hit(cid, doc, 0, 1.0 - 0.01 * i) for i, (cid, doc) in enumerate(zip(ids, docs))]
            relevant = set(rng.sample(ids, rng.randint(0, n)))
            k = rng.randint(1, 12)

            dcg = sum(1 / math.log2(i + 1) for i, cid in enumerate(ids[:k], start=1) if cid in relevant)
            idcg = sum(1 / math.log2(i + 1) for i in range(1, min(k, len(relevant)) + 1))
            expected = dcg / idcg if relevant else 0.0
            assert ndcg_at_k(ranking, relevant, k) == expected

            gold = rng.choice(ids)
            query = QuerySpec("q", SPECIFIC, ["t"], {gold}, docs[ids.index(gold)])
            assert recall_at_k(ranking, query, k) == (1.0 if gold in ids[:k] else 0.0)

            gold_doc = rng.choice(docs)
            tq = QuerySpec("q", THEMATIC, ["t"], {c for c, d in zip(ids, docs) if d == gold_doc}, gold_doc)
            collapsed: list[str] = []
            for d in docs:
                if not collapsed or collapsed[-1] != d:
                    collapsed.append(d)
            assert recall_at_k(ranking, tq, k) == (1.0 if gold_doc in collapsed[:k] else 0.0)


def test_criterion_6_exact_retrieval():
    with criterion(6, "search output identical to full-scan argsort oracle"):
        rng = np.random.default_rng(606)
        for trial in range(20):
            n = int(rng.integers(5, 1001))
            dim = int(rng.choice([8, 16, 32]))
            entries = []
            for i in range(n):
                v = rng.standard_normal(dim)
                entries.append((f"c{i:05d}", f"d{i % 9}", i % 4, v / np.linalg.norm(v)))
            for j in range(3):  # exact-duplicate vectors force tie-breaking
                entries.append((f"tie{j}", "dT", 0, entries[j][3].copy()))
            index = build_index(entries)
            q = rng.standard_normal(dim)
            q /= np.linalg.norm(q)
            k = int(rng.integers(1, 15))
            got = [tuple(h) for h in search(index, q, k)]
            matrix = np.array([np.asarray(vec, dtype="<f4") for *_, vec in entries]).astype(np.float64)
            scores = matrix @ q
            oracle = [
                (cid, did, sec, float(scores[i])) for i, (cid, did, sec, _) in enumerate(entries)
            ]
            oracle.sort(key=lambda r: (-r[3], r[0]))
            assert got == oracle[:k]


def test_criterion_7_shape_reproduction(reference_sweep):
    with criterion(7, "inverted U, recall divergence, curve crossing, homogenization"):
        report, elapsed, n_chunks, n_queries = reference_sweep
        assert n_queries == 200
        assert 800 <= n_chunks <= 1200

        rows = {r.strategy: r for r in report.rows}
        static_rows = sorted((rows[k] for k in STATIC_KINDS), key=lambda r: r.mean_cir)
        cirs = [r.mean_cir for r in static_rows]
        assert [r.strategy for r in static_rows] == STATIC_KINDS
        assert all(a < b for a, b in zip(cirs, cirs[1:]))

        static_flags = sweep_flags(static_rows)
        assert static_flags.inverted_u is True  # (a) on the five static rows
        assert report.flags.inverted_u is True  # (a) on the full report
        base, over = rows["baseline"], rows["overload"]
        assert over.recall5_specific < base.recall5_specific  # (b)
        assert over.recall5_thematic > base.recall5_thematic  # (b)
        assert static_flags.curve_cross_cir is not None  # (c)
        assert report.flags.curve_cross_cir is not None
        homogs = [r.homogenization for r in static_rows]
        assert all(a < b for a, b in zip(homogs, homogs[1:]))  # (d)

        assert elapsed < 60.0


def test_criterion_8_ddai_beats_overload(reference_sweep):
    with criterion(8, "adaptive strategy holds specific recall and beats overload NDCG"):
        report, _, _, _ = reference_sweep
        rows = {r.strategy: r for r in report.rows}
        assert rows["ddai"].recall5_specific >= rows["high"].recall5_specific
        assert rows["ddai"].ndcg_at_10 > rows["overload"].ndcg_at_10


def test_reference_sweep_reproduces_the_recorded_rows(reference_sweep):
    report, _, _, _ = reference_sweep
    assert [r.strategy for r in report.rows] == list(REFERENCE_ROWS)
    for r in report.rows:
        values = (r.mean_cir, r.ndcg_at_10, r.recall5_specific, r.recall5_thematic, r.homogenization,
                  r.wrong_section_share)
        assert values == pytest.approx(REFERENCE_ROWS[r.strategy], rel=0, abs=1e-9), r.strategy
    assert (report.flags.inverted_u, report.flags.curve_cross_cir) == REFERENCE_FLAGS


def test_criterion_9_sweep_determinism(tmp_path):
    with criterion(9, "consecutive sweep runs produce byte-identical CSV"):
        args = ["--seed", str(REFERENCE_SEED), "--docs", "12", "--queries", "60"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", *args, "--out-dir", str(out_a)]) == EXIT_OK
        assert main(["sweep", *args, "--out-dir", str(out_b)]) == EXIT_OK
        csv_a = (out_a / "sweep.csv").read_bytes()
        csv_b = (out_b / "sweep.csv").read_bytes()
        assert csv_a == csv_b
        assert csv_a.startswith(b"strategy,mean_cir,ndcg10")
