"""Independent reference computations the benchmark checks the program against.

Nothing here calls the code under test except the input-side functions that
build enriched token lists (``chunk_document``, ``strategy``,
``build_context``, ``enrich``). The embedder re-derives the documented
token hash (FNV-1a-64 plus splitmix64) and pools with ``np.bincount``. Its
vectors are bit-identical to mean pooling by token counts: every component
sum is an integer, so the summation order cannot change it, and the division
and the row norm are the same IEEE operations the program performs.
"""

from __future__ import annotations

import math
import re

import numpy as np

MASK64 = (1 << 64) - 1
FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
IDX_SALT = 0xA5C35A3C96E7D1B5
SIGN_SALT = 0x3C5AC3A517B9E64D
NONZEROS = 4

# Reordering two hits is tolerated only when their oracle scores are closer
# than this; it absorbs the last-bit difference between gemm and gemv.
TIE_TOL = 1e-12
ROW_TOL = 1e-9
# run_sweep's defaults: NDCG@10, Recall@5, rankings 100 deep.
NDCG_K, RECALL_K, SWEEP_DEPTH = 10, 5, 100
# Token lists pooled per np.bincount call; bounds the scatter arrays' size.
POOL_BATCH = 1024
ROW_FIELDS = (
    "mean_cir",
    "ndcg_at_10",
    "recall5_specific",
    "recall5_thematic",
    "homogenization",
    "wrong_section_share",
)


def fnv1a64(data: bytes, basis: int = FNV64_OFFSET) -> int:
    h = basis
    for byte in data:
        h = ((h ^ byte) * FNV64_PRIME) & MASK64
    return h


def splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31), state


def tokenize(text: str) -> list[str]:
    """The documented tokenizer: lowercase alphanumeric runs."""
    return re.findall(r"[^\W_]+", text.lower())


def cli_hash_seed(seed: int) -> int:
    """The embedder hash seed the CLI forks from a top-level seed."""
    return fnv1a64(b"embed", FNV64_OFFSET ^ (seed & MASK64)) % (1 << 62)


class Embedder:
    """Mean-pooled signed feature hash, computed in bulk."""

    def __init__(self, dim: int, hash_seed: int):
        self.dim = dim
        self._seed_mix = splitmix64(hash_seed & MASK64)[0]
        self._ids: dict[str, int] = {}
        self._idx: list[list[int]] = []
        self._sign: list[list[float]] = []

    def _add(self, token: str) -> int:
        base = fnv1a64(token.encode("utf-8"))
        state = base ^ self._seed_mix ^ IDX_SALT
        idx: list[int] = []
        while len(idx) < NONZEROS:
            value, state = splitmix64(state)
            if value % self.dim not in idx:
                idx.append(value % self.dim)
        state = base ^ self._seed_mix ^ SIGN_SALT
        sign: list[float] = []
        for _ in range(NONZEROS):
            value, state = splitmix64(state)
            sign.append(1.0 if value & 1 else -1.0)
        self._idx.append(idx)
        self._sign.append(sign)
        self._ids[token] = len(self._ids)
        return self._ids[token]

    def embed_many(self, token_lists: list[list[str]]) -> np.ndarray:
        """Unit vectors, one row per token list, float64."""
        out = np.empty((len(token_lists), self.dim), dtype=np.float64)
        ids = self._ids
        for token in sorted(set().union(*token_lists) - ids.keys()):
            self._add(token)
        table_idx = np.asarray(self._idx, dtype=np.int64).reshape(-1, NONZEROS)
        table_sign = np.asarray(self._sign, dtype=np.float64).reshape(-1, NONZEROS)
        for lo in range(0, len(token_lists), POOL_BATCH):
            part = token_lists[lo : lo + POOL_BATCH]
            lengths = np.array([len(tokens) for tokens in part], dtype=np.int64)
            if lengths.min() < 1:
                raise ValueError("cannot embed an empty token list")
            tok = np.fromiter((ids[t] for tokens in part for t in tokens), dtype=np.int64, count=int(lengths.sum()))
            rows = np.repeat(np.arange(len(part), dtype=np.int64), lengths)
            slots = (rows[:, None] * self.dim + table_idx[tok]).ravel()
            acc = np.bincount(slots, weights=table_sign[tok].ravel(), minlength=len(part) * self.dim)
            acc = acc.reshape(len(part), self.dim) / lengths[:, None]
            for i in range(len(part)):
                out[lo + i] = acc[i] / float(np.linalg.norm(acc[i]))
        return out


def stored_scores_matrix(vectors: np.ndarray) -> np.ndarray:
    """The score matrix of an index built from *vectors*: float32, widened exactly."""
    return np.ascontiguousarray(vectors, dtype=np.float32).astype(np.float64)


def id_ranks(chunk_ids: list[str]) -> np.ndarray:
    rank = np.empty(len(chunk_ids), dtype=np.int64)
    rank[np.array(sorted(range(len(chunk_ids)), key=chunk_ids.__getitem__), dtype=np.int64)] = np.arange(
        len(chunk_ids)
    )
    return rank


def top_k(scores: np.ndarray, rank: np.ndarray, k: int) -> np.ndarray:
    """Row positions of the full-scan order by (-score, chunk id), cut at k."""
    n = len(scores)
    if k < n:
        kth = np.partition(scores, n - k)[n - k]
        cand = np.flatnonzero(scores >= kth)
    else:
        cand = np.arange(n)
    return cand[np.lexsort((rank[cand], -scores[cand]))][:k]


def ranking_matches(returned: list[int], expected: np.ndarray, scores: np.ndarray) -> bool:
    """True when *returned* equals the oracle order up to near-tied scores."""
    if len(returned) != len(expected) or len(set(returned)) != len(returned):
        return False
    got = scores[np.asarray(returned, dtype=np.int64)]
    return bool(np.all(np.abs(got - scores[expected]) < TIE_TOL))


def _ndcg(ranked: list[str], relevant: set[str], k: int) -> float:
    dcg = sum(1.0 / math.log2(i + 2) for i, cid in enumerate(ranked[:k]) if cid in relevant)
    ideal = sum(1.0 / math.log2(i + 2) for i in range(min(k, len(relevant))))
    return dcg / ideal if ideal else 0.0


def sweep_rows(documents, queries, strategies, dim: int, hash_seed: int, chunk_target: int) -> dict:
    """Metric rows and shape flags of the strategy sweep, recomputed from scratch."""
    from cirbench.chunking import chunk_document
    from cirbench.injection import build_context, enrich

    emb = Embedder(dim, hash_seed)
    doc_by_id = {d.doc_id: d for d in documents}
    chunks = [c for d in documents for c in chunk_document(d, chunk_target)]
    ids = [c.chunk_id for c in chunks]
    rank = id_ranks(ids)
    qvecs = emb.embed_many([q.text for q in queries])
    rows = []
    for strat in strategies:
        token_lists = [enrich(c, build_context(doc_by_id[c.doc_id], c, strat)).tokens for c in chunks]
        vectors = emb.embed_many(token_lists)
        matrix = stored_scores_matrix(vectors)
        cirs = [(len(t) - len(c.tokens)) / len(t) for t, c in zip(token_lists, chunks)]
        ndcg, spec, them, failures = [], [], [], []
        for qi, q in enumerate(queries):
            scores = matrix @ qvecs[qi]
            order = [int(i) for i in np.lexsort((rank, -scores))[:SWEEP_DEPTH]]
            ranked = [ids[i] for i in order]
            ndcg.append(_ndcg(ranked, q.gold_chunk_ids, NDCG_K))
            if q.intent == "specific":
                spec.append(1.0 if set(ranked[:RECALL_K]) & q.gold_chunk_ids else 0.0)
                if ranked and ranked[0] not in q.gold_chunk_ids:
                    gold_section = int(next(iter(q.gold_chunk_ids)).rsplit(":", 2)[1][1:])
                    top = chunks[order[0]]
                    failures.append(top.doc_id == q.gold_doc_id and top.section_index != gold_section)
            else:
                docs_seen: list[str] = []
                for i in order:
                    if not docs_seen or docs_seen[-1] != chunks[i].doc_id:
                        docs_seen.append(chunks[i].doc_id)
                them.append(1.0 if q.gold_doc_id in docs_seen[:RECALL_K] else 0.0)
        by_doc: dict[str, list[int]] = {}
        for i, c in enumerate(chunks):
            by_doc.setdefault(c.doc_id, []).append(i)
        homog = []
        for members in by_doc.values():
            if len(members) >= 2:
                m = vectors[members]
                sims = m @ m.T
                homog.append((float(sims.sum()) - float(np.trace(sims))) / (len(members) * (len(members) - 1)))
        rows.append({
            "strategy": strat.kind,
            "mean_cir": float(np.mean(cirs)),
            "ndcg_at_10": float(np.mean(ndcg)) if ndcg else 0.0,
            "recall5_specific": float(np.mean(spec)) if spec else 0.0,
            "recall5_thematic": float(np.mean(them)) if them else 0.0,
            "homogenization": float(np.mean(homog)) if homog else 0.0,
            "wrong_section_share": sum(failures) / len(failures) if failures else None,
        })
    rows.sort(key=lambda r: r["mean_cir"])
    return {"rows": rows, "flags": sweep_flags(rows)}


def sweep_flags(rows: list[dict]) -> dict:
    """inverted_u: an interior row's NDCG beats both ends; curve_cross_cir: first
    mean ratio where thematic recall overtakes specific, if specific leads first."""
    inverted = len(rows) >= 3 and all(
        max(r["ndcg_at_10"] for r in rows[1:-1]) > end["ndcg_at_10"] for end in (rows[0], rows[-1])
    )
    cross = None
    if rows and rows[0]["recall5_specific"] > rows[0]["recall5_thematic"]:
        cross = next((r["mean_cir"] for r in rows if r["recall5_thematic"] > r["recall5_specific"]), None)
    return {"inverted_u": inverted, "curve_cross_cir": cross}


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= ROW_TOL


def sweep_mismatches(got: dict, want: dict) -> int:
    """Rows plus the flags record that differ; rows match by strategy, 1e-9 per field."""
    want_rows = {r["strategy"]: r for r in want["rows"]}
    bad = 0
    for row in got["rows"]:
        ref = want_rows.pop(row["strategy"], None)
        if ref is None or not all(_close(row[f], ref[f]) for f in ROW_FIELDS):
            bad += 1
    bad += len(want_rows)
    flags, ref_flags = got["flags"], want["flags"]
    if flags["inverted_u"] != ref_flags["inverted_u"] or not _close(
        flags["curve_cross_cir"], ref_flags["curve_cross_cir"]
    ):
        bad += 1
    return bad
