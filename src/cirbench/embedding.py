"""Tokens to vectors, and the dilution curve of mixing two vectors.

A token maps to a sparse vector with exactly four nonzero components of
magnitude one; a text embeds as the L2-normalized mean of its token
vectors. Mean pooling makes the enrichment mixing model exact: prepending
a context block of length ``L_I`` to a chunk of length ``L_c`` yields a
pre-normalization vector that is the convex combination of the two
component means with weight ``L_I / (L_I + L_c)`` on the context side.
``dilution_curve`` is the one function that forms that normalized mix: it
gives a query's similarity to it along a grid of weights in [0, 1].
An ``Embedder`` holds one token table: a dict from token to row, plus a
``(rows, 4)`` ``uint32`` array of signed codes, each a component's index,
plus ``dim`` if the component is -1. ``rows`` gives tokens' rows, and
``sum_rows`` sums the token vectors at given rows by one unweighted
``np.bincount`` of their codes, the lower ``dim`` counts less the upper.
``sum_many`` pools each text with one ``sum_rows`` call of its own;
``mean_vector`` is its one-text case. ``embed_many`` averages its rows and
normalizes them with ``unit_rows``, the one normalizer, and ``embed`` is
``embed_many``'s one-text case.

Every new token is hashed by numpy kernels over ``uint64`` arrays
(``_hash.fnv1a64_many``, ``_hash.splitmix64_many``), at most
``POOL_TOKENS`` new tokens per numpy pass, however few a call brings.
``Embedder._hash`` states the same definition one token at a time in plain
Python: it is the reference the kernels are tested against, and nothing
registers a token through it.

Token hashing, bit-exact, once per distinct token:

1. ``h0 = FNV-1a-64(utf-8 bytes of the token)``.
2. Component indices come from a splitmix64 stream seeded with
   ``h0 XOR mix(hash_seed) XOR 0xA5C3...``; each draw is taken modulo
   ``dim`` and rejected until four distinct indices are found.
3. Signs come from an independent splitmix64 stream seeded with
   ``h0 XOR mix(hash_seed) XOR 0x3C5A...``; the low bit of each draw
   selects +1 or -1 for the index drawn in the same place.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from ._hash import fnv1a64, fnv1a64_many, splitmix64, splitmix64_many
from .errors import ConfigError, DegenerateMixError, EmbeddingError

NONZEROS_PER_TOKEN = 4
# The most new tokens register hashes with one numpy pass; bounds its temporaries.
POOL_TOKENS = 1 << 14

_IDX_SALT = 0xA5C35A3C96E7D1B5
_SIGN_SALT = 0x3C5AC3A517B9E64D


@dataclass(frozen=True)
class EmbedderConfig:
    """Fixed config implies a fixed token-to-vector map."""

    dim: int = 256
    hash_seed: int = 0

    def __post_init__(self) -> None:
        if not 8 <= self.dim <= 1 << 31:  # every signed code, below 2 * dim, fits the token table's uint32
            raise ConfigError(f"dim: must lie in [8, 2**31], got {self.dim}")
        if not 0 <= self.hash_seed < 1 << 64:
            raise ConfigError(f"hash_seed: must lie in [0, 2**64), got {self.hash_seed}")


class Embedder:
    """The token table for one config; thread-safe reads, locked growth."""

    def __init__(self, config: EmbedderConfig):
        self.config = config
        self._seed_mix, _ = splitmix64(config.hash_seed)
        self._row: dict[str, int] = {}
        self._codes = np.zeros((0, NONZEROS_PER_TOKEN), np.uint32)
        self._lock = threading.Lock()

    def _hash(self, token: str) -> list[int]:
        """The token's four signed codes: each distinct index, plus ``dim`` where its sign is -1."""
        base = fnv1a64(token.encode("utf-8")) ^ self._seed_mix
        indices, state = [], base ^ _IDX_SALT
        while len(indices) < NONZEROS_PER_TOKEN:
            value, state = splitmix64(state)
            if value % self.config.dim not in indices:
                indices.append(value % self.config.dim)
        codes, state = [], base ^ _SIGN_SALT
        for index in indices:
            value, state = splitmix64(state)
            codes.append(index if value & 1 else index + self.config.dim)
        return codes

    def _hash_many(self, tokens: list[str]) -> np.ndarray:
        """``_hash`` of every token at once: (n, 4) signed codes, row for row the same."""
        base = fnv1a64_many([tok.encode("utf-8") for tok in tokens]) ^ np.uint64(self._seed_mix)
        codes = np.full((len(tokens), NONZEROS_PER_TOKEN), self.config.dim, np.uint32)  # dim: no index drawn yet
        found = np.zeros(len(tokens), dtype=np.intp)
        # Draw once for every row still short of four distinct indices, and keep each draw it lacks.
        rows, state = np.arange(len(tokens)), base ^ np.uint64(_IDX_SALT)
        while rows.size:
            value, state = splitmix64_many(state)
            value = (value % np.uint64(self.config.dim)).astype(np.uint32)
            new = (codes[rows] != value[:, None]).all(axis=1)
            hit = rows[new]
            codes[hit, found[hit]] = value[new]
            found[hit] += 1
            short = found[rows] < NONZEROS_PER_TOKEN
            rows, state = rows[short], state[short]
        state = base ^ np.uint64(_SIGN_SALT)
        for c in range(NONZEROS_PER_TOKEN):
            value, state = splitmix64_many(state)
            codes[(value & np.uint64(1)) == 0, c] += self.config.dim
        return codes

    def register(self, tokens: Iterable[str]) -> None:
        """Add every token of *tokens* that the table lacks, at most ``POOL_TOKENS`` new tokens per numpy pass."""
        new = set(tokens).difference(self._row)
        if not new:
            return
        # np.resize copies and a token is registered after its row is written: readers see whole rows.
        with self._lock:
            new = [tok for tok in new if tok not in self._row]  # another thread may have added some
            start, end = len(self._row), len(self._row) + len(new)
            if end > len(self._codes):
                self._codes = np.resize(self._codes, (max(end, 2 * len(self._codes)), NONZEROS_PER_TOKEN))
            for lo in range(0, len(new), POOL_TOKENS):
                rows = slice(start + lo, min(start + lo + POOL_TOKENS, end))
                self._codes[rows] = self._hash_many(new[lo : lo + POOL_TOKENS])
            self._row.update(zip(new, range(start, end)))

    def token_vector(self, token: str) -> np.ndarray:
        """Raw (unnormalized) token vector: four signed unit components."""
        if not token:
            raise EmbeddingError("cannot hash an empty token")
        return self.mean_vector([token])

    def mean_vector(self, tokens: list[str]) -> np.ndarray:
        """Pre-normalization mean of the token vectors."""
        if not tokens:
            raise EmbeddingError("cannot embed an empty token sequence")
        return self.sum_many([tokens])[0] / len(tokens)

    def embed(self, tokens: list[str]) -> np.ndarray:
        """``embed_many``'s one-text case: the L2-normalized mean of the token vectors, order-insensitive."""
        return self.embed_many([tokens])[0]

    def rows(self, tokens: Sequence[str]) -> np.ndarray:
        """Each token's row in the table, in order; new tokens are registered first."""
        try:
            return self._lookup(tokens)
        except KeyError:
            self.register(tokens)
            return self._lookup(tokens)

    def _lookup(self, tokens: Sequence[str]) -> np.ndarray:
        return np.fromiter(map(self._row.__getitem__, tokens), np.intp, count=len(tokens))

    def sum_rows(self, rows: np.ndarray) -> np.ndarray:
        """The sum of the token vectors at *rows*, as integers: one unweighted ``np.bincount`` of their codes."""
        counts = np.bincount(self._codes[rows].ravel(), minlength=2 * self.config.dim)
        return counts[: self.config.dim] - counts[self.config.dim :]

    def sum_many(self, token_lists: Sequence[list[str]]) -> np.ndarray:
        """The sum of each list's token vectors, one row each; an empty list sums to a zero row.

        The lists' new tokens are registered at once, and each list is
        pooled by one ``sum_rows`` call. Every component is an integer, so
        a row is exact in any order, and sums of rows equal the sum over
        the concatenated lists bit for bit.
        """
        self.register(chain.from_iterable(token_lists))
        out = np.empty((len(token_lists), self.config.dim))
        for row, tokens in zip(out, token_lists):
            row[:] = self.sum_rows(self._lookup(tokens))
        return out

    def embed_many(self, token_lists: list[list[str]]) -> np.ndarray:
        """Each list's L2-normalized mean token vector, one row each: ``sum_many``'s rows, averaged and normalized."""
        lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=len(token_lists))
        if lengths.size and lengths.min() == 0:
            raise EmbeddingError("cannot embed an empty token sequence")
        out = self.sum_many(token_lists)
        out /= lengths[:, None]
        return unit_rows(out)


def unit_rows(acc: np.ndarray) -> np.ndarray:
    """Each row of *acc* scaled to unit L2 norm in place; returns *acc*.

    Each norm is ``np.linalg.norm``'s of the row alone, ``sqrt(row @ row)``,
    taken one row at a time: a batched norm sums in another order, and
    would change the vectors' bits. A zero row raises EmbeddingError.
    """
    norms = np.array([math.sqrt(row.dot(row)) for row in acc])
    if norms.size and norms.min() == 0.0:
        raise EmbeddingError("degenerate zero embedding for non-empty input")
    acc /= norms[:, None]
    return acc


_EMBEDDERS: dict[EmbedderConfig, Embedder] = {}


def get_embedder(config: EmbedderConfig) -> Embedder:
    emb = _EMBEDDERS.get(config)
    if emb is None:
        emb = _EMBEDDERS[config] = Embedder(config)
    return emb


def dilution_curve(
    q: np.ndarray, v_local: np.ndarray, v_global: np.ndarray, grid_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Similarity of *q* against the normalized mix ``(1 - lam) * v_local + lam * v_global``.

    Returns ``(lams, sims)``: a uniform grid of *grid_points* weights in
    [0, 1] and the similarity at each. Endpoints evaluate to sim(q, v_local)
    and sim(q, v_global); the angles behind the similarities are
    recoverable as arccos of the values. A mix that collapses to zero
    anywhere on the grid raises DegenerateMixError.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    lams = np.linspace(0.0, 1.0, grid_points)
    m = np.outer(1.0 - lams, np.asarray(v_local, dtype=np.float64))
    m += np.outer(lams, np.asarray(v_global, dtype=np.float64))
    norms = np.linalg.norm(m, axis=1)
    if float(norms.min()) < 1e-12:
        raise DegenerateMixError("mix collapsed to zero along the lambda grid")
    sims = (m @ np.asarray(q, dtype=np.float64)) / norms
    return lams, sims
