"""Bit-exact 64-bit hashing primitives (FNV-1a and splitmix64).

These are the only sources of pseudo-randomness inside the embedder, so
they are pinned here instead of relying on any platform hash. The
``*_many`` forms compute the same values over numpy ``uint64`` arrays,
whose arithmetic wraps modulo 2**64 as the masks do here.
"""

import numpy as np

_MASK64 = (1 << 64) - 1

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def fnv1a64(data: bytes, basis: int = FNV64_OFFSET) -> int:
    h = basis & _MASK64
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 stream once; returns (value, next_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64, state


def fnv1a64_many(data: list[bytes]) -> np.ndarray:
    """``fnv1a64`` of each byte string, as a uint64 array: one numpy step per byte position."""
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    # Longest first, so the strings still being hashed at position j are a prefix.
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    buf = np.frombuffer(b"".join(data), dtype=np.uint8)
    h = np.full(len(data), FNV64_OFFSET, dtype=np.uint64)
    for j in range(int(lengths.max(initial=0))):
        n = np.count_nonzero(lengths > j)
        h[:n] = (h[:n] ^ buf[starts[:n] + j]) * np.uint64(FNV64_PRIME)
    out = np.empty_like(h)
    out[order] = h
    return out


def splitmix64_many(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``splitmix64`` on every element of a uint64 array; returns (values, next states)."""
    state = state + np.uint64(0x9E3779B97F4A7C15)
    z = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31)), state


def fork_seed(seed: int, label: str) -> int:
    """Derive an independent 64-bit stream seed from (seed, label)."""
    return fnv1a64(label.encode("utf-8"), FNV64_OFFSET ^ (seed & _MASK64))
