"""Walkthrough: how injected context rotates a chunk vector off its query.

Builds the deterministic hash embedder, verifies that the mixing weight of
an enriched chunk equals its injection ratio exactly, and traces the
similarity curve between a specific query and the mixed vector as the
context share grows.
"""

import numpy as np

from cirbench import (
    EmbedderConfig,
    dilution_curve,
    effective_lambda,
    enrich,
    get_embedder,
    make_chunk_id,
)
from cirbench.chunking import Chunk

config = EmbedderConfig(dim=256, hash_seed=7)
emb = get_embedder(config)

print("=== Token hashing ===\n")
v = emb.token_vector("pesticide")
print(f"token_vector('pesticide'): {np.count_nonzero(v)} nonzero components, values {sorted({float(x) for x in v[v != 0]})}")
print("Same token, same vector, every run, every platform.\n")

print("=== Mean pooling makes the mixing model exact ===\n")
chunk_tokens = "returns are not accepted after 24h and refunds require a stamped form".split()
context_tokens = ("sustainability quality policy carbon emissions transport efficiency " * 15).split()
chunk = Chunk(make_chunk_id("normative-0000", 0, 0), "normative-0000", 0, ["policy"], chunk_tokens)
e = enrich(chunk, context_tokens)  # a context block is a token list
print(f"chunk of {len(chunk_tokens)} tokens + context of {len(context_tokens)} tokens")
print(f"  injection ratio        : {e.cir:.6f}")
print(f"  measured mixing weight : {effective_lambda(e, config):.6f}")
print("The weight of the context inside the pooled vector IS the ratio.\n")

print("=== The similarity-versus-weight curve ===\n")
query = emb.embed("refund deadline 24h returns".split())
v_local = emb.embed(chunk_tokens)
raw_global = emb.embed(context_tokens)
# orthogonalize the context direction against the local one
v_global = raw_global - float(raw_global @ v_local) * v_local
v_global /= np.linalg.norm(v_global)

a = float(query @ v_local)
b = float(query @ v_global)
print(f"sim(query, local)  a = {a:+.4f}")
print(f"sim(query, global) b = {b:+.4f}\n")

lams, sims = dilution_curve(query, v_local, v_global, 21)
peak_lam = lams[int(np.argmax(sims))]
for lam, sim in zip(lams[::2], sims[::2]):
    marker = "  <-- peak" if lam == peak_lam else ""
    print(f"  weight {lam:4.2f}  sim {sim:+.4f}  {'*' * max(0, int(40 * sim))}{marker}")

if b > 0:
    print(f"\nClosed form puts the peak at b/(a+b) = {b / (a + b):.3f}; observed {peak_lam:.3f}.")
else:
    print("\nWith b <= 0 every bit of context strictly hurts this query.")
print("Past the peak, more context only rotates the vector away from the query.")
