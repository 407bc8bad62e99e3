"""Tiny-scale smoke test of the benchmark runner.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run

sys.path.insert(0, run.SRC)

import cirbench.cli  # noqa: E402
import cirbench.embedding  # noqa: E402
import cirbench.evaluation  # noqa: E402
import cirbench.retrieval  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sweep-ref": {"docs": 4, "queries": 12},
    "query-10x": {"docs": 4, "queries": 12},
    "cli-ref": {"docs": 4, "queries": 12, "cli_queries": 6},
}


def _spec(section: str) -> dict[str, str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SCALES", TINY)
    monkeypatch.setattr(run, "MIN_SWEEPS", 2)
    monkeypatch.setattr(run, "QUERY_PROCESSES", 2)
    monkeypatch.setattr(run, "CLI_ROUNDS", 2)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(run.RUNNERS))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    record = run.run_workload(workload, seed=5, seconds=0.2, trace=trace)
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    want = _spec("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in record["metrics"].items()} == want
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())
    report = capsys.readouterr().out
    readable = {
        "sweep-ref": ["setup_s", "sweep_s", "peak_rss_mb", "error_rate"],
        "query-10x": ["setup_s", "query_p50_ms", "query_p95_ms", "peak_rss_mb", "error_rate"],
        "cli-ref": ["setup_s", "pipeline_s", "query_p50_ms", "query_p95_ms", "peak_rss_mb", "error_rate"],
    }[workload]
    for name in readable:
        assert any(f" {name} " in line and f" {run.unit_of(name)} " in line and " n=" in line
                   for line in report.splitlines()), name
    for key in ("python=", "numpy=", "blas=", "blas_threads=", "nproc=", "git_sha=", "seed=5"):
        assert key in report


def _corrupt(search):
    """A search whose best two hits trade places."""

    def corrupted(index, query, k):
        hits = search(index, query, k)
        return [hits[1], hits[0], *hits[2:]] if len(hits) > 1 else hits

    return corrupted


@pytest.fixture
def corrupted_search(monkeypatch):
    bad = _corrupt(cirbench.retrieval.search)
    for module in (cirbench.retrieval, cirbench.evaluation, cirbench.cli):
        monkeypatch.setattr(module, "search", bad)


def test_corrupted_ranking_raises_error_rate_on_query(corrupted_search, tmp_path):
    scale = TINY["query-10x"]
    record = workloads.query(5, scale["docs"], scale["queries"], time.time(), 0.1, False, True, str(tmp_path / "s"))
    assert record["failed"] > 0 and record["failed"] <= record["attempted"]


def test_corrupted_embedding_raises_error_rate_on_query(monkeypatch, tmp_path):
    embed_many = cirbench.embedding.Embedder.embed_many

    def shifted(self, token_lists):
        """Each text gets the next text's vector."""
        vectors = embed_many(self, token_lists)
        return vectors[list(range(1, len(vectors))) + [0]]

    monkeypatch.setattr(cirbench.embedding.Embedder, "embed_many", shifted)
    scale = TINY["query-10x"]
    record = workloads.query(5, scale["docs"], scale["queries"], time.time(), 0.1, False, True, str(tmp_path / "s"))
    assert record["failed"] > 0 and record["failed"] <= record["attempted"]


def test_corrupted_ranking_raises_error_rate_on_cli(corrupted_search, tmp_path):
    scale, work = TINY["cli-ref"], str(tmp_path / "work")
    workloads.cli_pipeline(5, scale["docs"], scale["queries"], time.time(), False, work, str(tmp_path / "s"))
    record = workloads.cli_queries(5, scale["cli_queries"], time.time(), 0.1, False, True, work, str(tmp_path / "s"))
    assert record["failed"] > 0 and record["calls_failed"] == 0


def test_corrupted_ranking_changes_sweep_rows(corrupted_search, tmp_path):
    scale = TINY["sweep-ref"]
    record = workloads.sweep(5, scale["docs"], scale["queries"], time.time(), False, str(tmp_path / "s"))
    assert run.oracle.sweep_mismatches(record["sweep"], run.oracle_sweep(5, scale)) > 0


def test_oracle_reproduces_the_recorded_rows():
    with open(os.path.join(run.HERE, "reference_rows.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)["seeds"]
    assert len(recorded) == 2
    for seed, rows in recorded.items():
        assert run.oracle.sweep_mismatches(rows, run.oracle_sweep(int(seed), run.REFERENCE_SCALE)) == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-ref", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
