from __future__ import annotations

import hashlib
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cirbench import (
    Embedder,
    EmbedderConfig,
    dilution_curve,
    effective_lambda,
    enrich,
    get_embedder,
    make_chunk_id,
)
from cirbench._hash import fnv1a64, splitmix64
from cirbench.chunking import Chunk
from cirbench.embedding import _IDX_SALT, BULK_HASH_MIN, NONZEROS_PER_TOKEN, POOL_TOKENS
from cirbench.errors import ConfigError, DegenerateMixError, EmbeddingError

CFG = EmbedderConfig(dim=256, hash_seed=17)
EMB = get_embedder(CFG)


def _random_words(rng: random.Random, n: int) -> list[str]:
    return [f"w{rng.randrange(10**9)}" for _ in range(n)]


def _random_enriched(rng: random.Random) -> object:
    ctx_tokens = _random_words(rng, rng.randint(1, 200))
    chunk_tokens = _random_words(rng, rng.randint(1, 400))
    rng.randint(0, len(ctx_tokens))  # unused; drawn so that the later draws, and the data, stay fixed
    chunk = Chunk(
        chunk_id=make_chunk_id("normative-0000", 0, 0),
        doc_id="normative-0000",
        section_index=0,
        heading_path=["h"],
        tokens=chunk_tokens,
    )
    return enrich(chunk, ctx_tokens)


def test_config_validation():
    with pytest.raises(ConfigError):
        EmbedderConfig(dim=4)
    for seed in (-1, 1 << 64):
        with pytest.raises(ConfigError, match="hash_seed"):
            EmbedderConfig(hash_seed=seed)
    assert EmbedderConfig(hash_seed=(1 << 64) - 1).hash_seed == (1 << 64) - 1


def test_token_vector_deterministic():
    a = EMB.token_vector("pesticide")
    b = EMB.token_vector("pesticide")
    assert np.array_equal(a, b)
    other = get_embedder(EmbedderConfig(dim=256, hash_seed=18)).token_vector("pesticide")
    assert not np.array_equal(a, other)


def test_token_vector_structure():
    v = EMB.token_vector("anything")
    nonzero = v[v != 0]
    assert len(nonzero) == NONZEROS_PER_TOKEN
    assert set(np.abs(nonzero)) == {1.0}


def test_distinct_tokens_nearly_orthogonal():
    rng = random.Random(5)
    total = 0.0
    n = 10_000
    emb = get_embedder(CFG)
    for _ in range(n):
        a, b = f"w{rng.randrange(10**9)}", f"w{rng.randrange(10**9)}"
        if a == b:
            continue
        va, vb = emb.token_vector(a), emb.token_vector(b)
        total += abs(float(va @ vb)) / (np.linalg.norm(va) * np.linalg.norm(vb))
    assert total / n < 0.1


def test_embed_single_token_is_normalized_token_vector():
    v = EMB.token_vector("solo")
    assert np.allclose(EMB.embed(["solo"]), v / np.linalg.norm(v), atol=1e-12)


def test_embed_is_unit_norm_and_permutation_invariant():
    rng = random.Random(9)
    tokens = _random_words(rng, 120)
    v = EMB.embed(tokens)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
    shuffled = list(tokens)
    rng.shuffle(shuffled)
    assert np.array_equal(EMB.embed(shuffled), v)


def test_embed_empty_is_error():
    with pytest.raises(EmbeddingError):
        EMB.embed([])
    with pytest.raises(EmbeddingError, match="empty token sequence"):
        EMB.embed_many([["a", "b"], []])


def test_mean_pooling_linearity():
    # Pre-normalization, the mean of a concatenation is the length-weighted
    # mean of the component means.
    rng = random.Random(13)
    emb = get_embedder(CFG)
    left = _random_words(rng, 30)
    right = _random_words(rng, 70)
    combined = emb.mean_vector(left + right)
    expected = (30 * emb.mean_vector(left) + 70 * emb.mean_vector(right)) / 100
    assert np.max(np.abs(combined - expected)) <= 1e-12


def test_similarity_trivials():
    v = EMB.embed(["a", "b", "c"])
    assert float(v @ v) == pytest.approx(1.0, abs=1e-12)
    assert float(v @ -v) == pytest.approx(-1.0, abs=1e-12)
    e0 = np.zeros(256)
    e0[0] = 1.0
    e1 = np.zeros(256)
    e1[1] = 1.0
    assert float(e0 @ e1) == 0.0


def test_dilution_curve_closed_form_decreasing():
    e0 = np.zeros(32)
    e0[0] = 1.0
    e1 = np.zeros(32)
    e1[1] = 1.0
    lams, sims = dilution_curve(e0, e0, e1, 101)
    assert len(sims) == 101
    closed = [(1 - lam) / math.hypot(1 - lam, lam) for lam in lams]
    assert sims == pytest.approx(closed, abs=1e-12)
    assert all(x > y for x, y in zip(sims, sims[1:]))
    assert sims[50] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert sims[0] == pytest.approx(1.0, abs=1e-12)
    assert sims[-1] == pytest.approx(0.0, abs=1e-12)


def _planted_query(a: float, b: float, dim: int = 16) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    v_local = np.zeros(dim)
    v_local[0] = 1.0
    v_global = np.zeros(dim)
    v_global[1] = 1.0
    q = a * v_local + b * v_global
    q[2] = math.sqrt(1.0 - a * a - b * b)
    return q, v_local, v_global


def test_dilution_curve_peak_at_b_over_a_plus_b():
    # Grid-search oracle: with a = 0.8 and b = 0.2 the peak sits at 0.2.
    q, v_local, v_global = _planted_query(0.8, 0.2)
    lams, sims = dilution_curve(q, v_local, v_global, 10_001)
    assert abs(lams[int(np.argmax(sims))] - 0.2) <= 1e-3


def test_dilution_curve_nonpositive_global_peaks_at_zero():
    q, v_local, v_global = _planted_query(0.7, -0.3)
    lams, sims = dilution_curve(q, v_local, v_global, 10_001)
    assert int(np.argmax(sims)) == 0
    assert np.all(sims[1:] < sims[0])


def test_dilution_curve_propagates_degenerate_mix():
    v = EMB.embed(["p", "q"])
    with pytest.raises(DegenerateMixError):
        dilution_curve(v, v, -v, 11)


def test_effective_lambda_equals_cir():
    rng = random.Random(31)
    for _ in range(200):
        e = _random_enriched(rng)
        assert abs(effective_lambda(e, CFG) - e.cir) <= 1e-9


def test_effective_lambda_noise_over_signal_scenario():
    rng = random.Random(37)
    ctx_tokens = _random_words(rng, 150)
    chunk_tokens = _random_words(rng, 10)
    chunk = Chunk("normative-0000:s000:t00000", "normative-0000", 0, ["h"], chunk_tokens)
    e = enrich(chunk, ctx_tokens)
    assert e.cir == 0.9375
    assert effective_lambda(e, CFG) == pytest.approx(0.9375, abs=1e-9)


def test_effective_lambda_degenerate_when_context_mean_is_chunk_mean():
    chunk_tokens = ["alpha", "beta", "beta", "gamma", "delta"]
    chunk = Chunk("normative-0000:s000:t00000", "normative-0000", 0, ["h"], chunk_tokens)
    e = enrich(chunk, list(reversed(chunk_tokens)))
    with pytest.raises(DegenerateMixError):
        effective_lambda(e, CFG)


def test_effective_lambda_empty_context_is_zero():
    chunk = Chunk("normative-0000:s000:t00000", "normative-0000", 0, ["h"], ["a", "b"])
    e = enrich(chunk, [])
    assert effective_lambda(e, CFG) == 0.0


def test_mixing_identity_exact_form():
    rng = random.Random(41)
    emb = get_embedder(CFG)
    for _ in range(200):
        e = _random_enriched(rng)
        full = emb.embed(e.tokens)
        comb = e.cir * emb.mean_vector(e.context) + (1.0 - e.cir) * emb.mean_vector(e.base.tokens)
        comb = comb / np.linalg.norm(comb)
        assert np.max(np.abs(full - comb)) <= 1e-9


# Digests recorded before the token-table rewrite, so that rewrite and any
# later one must keep hashing, pooling and normalization bit-identical.
GOLDEN_CFG = EmbedderConfig(dim=256, hash_seed=20260)
GOLDEN_LISTS = [
    ["alpha", "beta", "alpha", "alpha", "gamma", "beta"],
    ["solo"],
    [f"t{(i * 7919) % 613}" for i in range(2000)],
    ["", "delta", "", "epsilon"],
]
GOLDEN_TOKENS = ["alpha", "solo", "t17", "delta", "\u00fcn\u00efcode"]


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def test_embedder_golden_vectors():
    emb = Embedder(GOLDEN_CFG)
    assert _sha256(emb.embed_many(GOLDEN_LISTS)) == "747bb2e4ee7ed709c41b1120e583de5095d8e1c67062712c9d530fe845a52ae6"
    assert _sha256(np.stack([emb.mean_vector(t) for t in GOLDEN_LISTS])) == (
        "9fba14c3a6a88ef70301251aeb68d0867fedacf275b8ee3d81a4219676a7a16c"
    )
    for emb in (emb, Embedder(GOLDEN_CFG)):  # a warm table and a fresh one
        assert _sha256(np.stack([emb.token_vector(t) for t in GOLDEN_TOKENS])) == (
            "01a6746cc3a9eff2f4459edee4eca9276c8df299db27710cb6f66121141bb8da"
        )


def test_embed_many_of_nothing_is_empty():
    assert Embedder(CFG).embed_many([]).shape == (0, CFG.dim)


def test_sum_many_of_an_empty_list_is_a_zero_row():
    sums = Embedder(CFG).sum_many([[], ["a", "b"], []])
    assert sums.shape == (3, CFG.dim)
    assert not sums[0].any() and not sums[2].any() and sums[1].any()


def test_sum_many_rows_are_the_lists_sums_across_pool_batches():
    rng = random.Random(29)
    vocabulary = _random_words(rng, 5000)
    lists = [rng.choices(vocabulary, k=rng.randint(1, 3000)) for _ in range(30)]
    lists.insert(12, rng.choices(vocabulary, k=POOL_TOKENS + 777))  # one list longer than a whole batch
    lists.insert(20, [])
    assert sum(map(len, lists)) > 3 * POOL_TOKENS
    emb = Embedder(CFG)
    sums = emb.sum_many(lists)
    assert not sums[20].any()
    for tokens, row in zip(lists, sums):
        if tokens:
            # The row is the integer sum that mean_vector divides: dividing it gives mean_vector's bits.
            assert (row / len(tokens)).tobytes() == emb.mean_vector(tokens).tobytes()
            assert np.array_equal(row, np.rint(emb.mean_vector(tokens) * len(tokens)))


def test_shared_embedder_concurrent_growth_matches_serial():
    workers, lists_per_worker = 4, 60
    batches = [[[f"w{w}-{i}-{j % 23}" for j in range(40)] for i in range(lists_per_worker)] for w in range(workers)]
    shared = Embedder(CFG)
    results: list[np.ndarray | None] = [None] * workers
    start = threading.Barrier(workers)

    def run(w: int) -> None:
        start.wait()
        results[w] = np.vstack([shared.mean_vector(tokens) for tokens in batches[w]] + [shared.embed_many(batches[w])])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as finely as the interpreter allows
    try:
        threads = [threading.Thread(target=run, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)

    serial = Embedder(CFG)
    for w in range(workers):
        expected = np.vstack([serial.mean_vector(tokens) for tokens in batches[w]] + [serial.embed_many(batches[w])])
        assert np.array_equal(results[w], expected)


def test_concurrent_bulk_registrations_match_serial():
    workers, rounds = 4, 30

    def lists(w: int, r: int) -> list[list[str]]:
        # Workers share most of a round's tokens, and each call brings far more than BULK_HASH_MIN new ones.
        return [[f"b{r}-{(w + i) % 6}-{j}" for j in range(48)] for i in range(4)]

    shared = Embedder(CFG)
    results: list[list[np.ndarray]] = [[] for _ in range(workers)]
    start = threading.Barrier(workers)

    def run(w: int) -> None:
        start.wait()
        results[w] = [shared.embed_many(lists(w, r)) for r in range(rounds)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)

    serial = Embedder(CFG)
    for w in range(workers):
        for r in range(rounds):
            assert np.array_equal(results[w][r], serial.embed_many(lists(w, r)))


# Multi-byte UTF-8, 1-byte and 40-byte-plus tokens (hashed past the numpy steps), the
# empty token, and enough others that at both dims some token's first four draws repeat an index.
HASH_TOKENS = ["ñandú", "日本語", "a", "7", "x" * 40, "ü" * 25, "", *(f"r{i}" for i in range(200))]


def _first_draws_repeat(config: EmbedderConfig, token: str) -> bool:
    state = fnv1a64(token.encode("utf-8")) ^ splitmix64(config.hash_seed)[0] ^ _IDX_SALT
    draws = set()
    for _ in range(NONZEROS_PER_TOKEN):
        value, state = splitmix64(state)
        draws.add(value % config.dim)
    return len(draws) < NONZEROS_PER_TOKEN


@pytest.mark.parametrize("dim", [8, 256])
@pytest.mark.parametrize("hash_seed", [0, 2**64 - 1])
def test_bulk_hash_matches_scalar_hash(dim, hash_seed):
    emb = Embedder(EmbedderConfig(dim=dim, hash_seed=hash_seed))
    assert any(_first_draws_repeat(emb.config, token) for token in HASH_TOKENS)  # the redraw loop runs
    idx, sign = emb._hash_many(HASH_TOKENS)
    for row, token in enumerate(HASH_TOKENS):
        indices, signs = emb._hash(token)
        assert idx[row].tolist() == indices and sign[row].tolist() == signs, token


def test_registrations_either_side_of_the_bulk_crossover_give_equal_rows(monkeypatch):
    bulk_sizes = []
    hash_many = Embedder._hash_many

    def counted(self, tokens):
        bulk_sizes.append(len(tokens))
        return hash_many(self, tokens)

    monkeypatch.setattr(Embedder, "_hash_many", counted)
    tokens = [f"x{i}" for i in range(BULK_HASH_MIN)]
    scalar, bulk = Embedder(CFG), Embedder(CFG)
    scalar.register(tokens[:-1])
    bulk.register(tokens)
    assert bulk_sizes == [BULK_HASH_MIN]  # just below the crossover hashes one by one, at it in bulk
    scalar.register(tokens[-1:])
    for token in tokens:
        assert np.array_equal(scalar._idx[scalar._row[token]], bulk._idx[bulk._row[token]])
        assert np.array_equal(scalar._sign[scalar._row[token]], bulk._sign[bulk._row[token]])


def _many_new_tokens() -> list[str]:
    return [f"slice{i}" for i in range(3 * POOL_TOKENS + 1)]


def test_registration_slices_give_the_scalar_hash_rows():
    emb = Embedder(CFG)
    emb.register(_many_new_tokens())
    token_at = {row: token for token, row in emb._row.items()}
    edges = range(POOL_TOKENS, len(token_at), POOL_TOKENS)
    for row in {0, len(token_at) - 1, *edges, *(edge - 1 for edge in edges)}:
        indices, signs = emb._hash(token_at[row])
        assert emb._idx[row].tolist() == indices and emb._sign[row].tolist() == signs, row


def test_registration_memory_is_bounded_by_a_slice_not_by_the_new_token_count():
    tokens, emb = _many_new_tokens(), Embedder(CFG)
    tracemalloc.start()
    try:
        emb.register(tokens)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Hashing all 3 * POOL_TOKENS + 1 tokens in one numpy pass peaks about 290 * POOL_TOKENS bytes above that.
    assert peak - kept < 128 * POOL_TOKENS


def test_sum_many_peak_memory_is_one_lists_temporaries_not_the_whole_batch():
    rng = random.Random(31)
    vocabulary = _random_words(rng, 5000)
    lists = [rng.choices(vocabulary, k=rng.randint(1, 3000)) for _ in range(199)]
    lists.insert(77, rng.choices(vocabulary, k=POOL_TOKENS + 777))
    emb = Embedder(CFG)
    emb.register(vocabulary)
    tracemalloc.start()
    try:
        out = emb.sum_many(lists)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Pooling one list holds about 90 bytes per token: its rows, their index and sign copies, and
    # bincount's intp and float64 casts. Pooling all ~290,000 tokens at once would hold over ten times this bound.
    assert peak - out.nbytes < 120 * max(map(len, lists))


def test_dim_beyond_the_int32_token_table_is_refused():
    assert EmbedderConfig(dim=1 << 31).dim == 1 << 31
    with pytest.raises(ConfigError, match="dim"):
        EmbedderConfig(dim=(1 << 31) + 1)
