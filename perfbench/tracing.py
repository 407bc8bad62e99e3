"""Span tracer that wraps the package's public functions from outside.

Each target is replaced at every name its callers resolve: the defining
module and every ``cirbench`` module that imported it. Spans (name, start, end, parent, phase) stay in memory until the
run ends. A target that no longer exists is skipped and reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

# span name -> "module:attribute" or "module:Class.method". A span's layer is
# the text before the first dot.
TARGETS = {
    "corpus.generate_corpus": "cirbench.corpus:generate_corpus",
    "corpus.serialize_corpus": "cirbench.corpus:serialize_corpus",
    "corpus.deserialize_corpus": "cirbench.corpus:deserialize_corpus",
    "chunking.chunk_document": "cirbench.chunking:chunk_document",
    "chunking.write_chunks": "cirbench.chunking:write_chunks",
    "chunking.read_chunks": "cirbench.chunking:read_chunks",
    "injection.build_context": "cirbench.injection:build_context",
    "injection.enrich": "cirbench.injection:enrich",
    "injection.write_enriched": "cirbench.injection:write_enriched",
    "injection.read_enriched": "cirbench.injection:read_enriched",
    "embedding.embed_many": "cirbench.embedding:Embedder.embed_many",
    "embedding.embed": "cirbench.embedding:Embedder.embed",
    "embedding.mean_vector": "cirbench.embedding:Embedder.mean_vector",
    "retrieval.build_index": "cirbench.retrieval:build_index",
    "retrieval.search": "cirbench.retrieval:search",
    "retrieval.save_index": "cirbench.retrieval:save_index",
    "retrieval.load_index": "cirbench.retrieval:load_index",
    "evaluation.run_sweep": "cirbench.evaluation:run_sweep",
    "evaluation.ndcg_at_k": "cirbench.evaluation:ndcg_at_k",
    "evaluation.recall_at_k": "cirbench.evaluation:recall_at_k",
    "evaluation.homogenization": "cirbench.evaluation:homogenization",
    "evaluation.wrong_section_share": "cirbench.evaluation:wrong_section_share",
    "evaluation.sweep_flags": "cirbench.evaluation:sweep_flags",
    "io.atomic_write_bytes": "cirbench._io:atomic_write_bytes",
}
LAYERS = ("corpus", "chunking", "injection", "embedding", "retrieval", "evaluation", "cli", "io")
SCORE_SPANS = tuple(n for n in TARGETS if n.startswith("evaluation.") and n != "evaluation.run_sweep")


class Tracer:
    def __init__(self, phase: str) -> None:
        self.spans: list = []  # (name, start, end, parent index, phase); None while open
        self.phase = phase
        self.counts: dict[str, int] = {}
        self.embedded: list[list[str]] = []  # token lists seen by the outermost embedding call
        self._stack: list[tuple[int, str]] = []
        self._installed: list[tuple[object, str, object]] = []
        self.active = False

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append((idx, name))
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.phase)

    def _outermost(self, layer: str) -> bool:
        return not any(name.startswith(layer) for _, name in self._stack)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = hook is not None and self._outermost(name.split(".", 1)[0] + ".")
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if outer:
                hook(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that still exists; the others report no calls."""
        modules = [m for n, m in list(sys.modules.items()) if n == "cirbench" or n.startswith("cirbench.")]
        for name, target in TARGETS.items():
            mod_name, attr = target.split(":")
            try:
                owner = importlib.import_module(mod_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(name, original)
            if path:
                self._replace(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        self.active = True

    def _replace(self, owner, key: str, wrapper) -> None:
        self._installed.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()
        self.active = False

    def self_times(self, phase: str | None = None) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, span_phase) in enumerate(self.spans):
            if phase is None or span_phase == phase:
                out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Inclusive seconds and call counts per span name."""
        secs: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, _, _ in self.spans:
            secs[name] = secs.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
        return secs, calls

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, phase in self.spans:
                handle.write(json.dumps([name, start, end, parent, phase]) + "\n")


def layer_self_times(self_times: dict[str, float]) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for name, secs in self_times.items():
        out[name.split(".", 1)[0]] += secs
    return out


def report(tracer: Tracer, spans_path: str) -> dict:
    """Writes the spans; returns per-layer numbers and layer self times per phase."""
    self_s = tracer.self_times()
    secs, calls = tracer.totals()
    counts = tracer.counts
    embedded = tracer.embedded
    tokens = sum(len(t) for t in embedded)
    embed_s = sum(v for k, v in self_s.items() if k.startswith("embedding."))
    injection = ("injection.build_context", "injection.enrich")
    layers = {
        "corpus.gen_s": self_s.get("corpus.generate_corpus", 0.0),
        "corpus.write_s": secs.get("corpus.serialize_corpus", 0.0),
        "corpus.read_s": secs.get("corpus.deserialize_corpus", 0.0),
        "chunking.chunk_s": self_s.get("chunking.chunk_document", 0.0),
        "chunking.chunks": counts.get("chunks", 0),
        "chunking.write_s": secs.get("chunking.write_chunks", 0.0),
        "chunking.read_s": secs.get("chunking.read_chunks", 0.0),
        "injection.inject_s": sum(self_s.get(n, 0.0) for n in injection),
        "injection.calls": sum(calls.get(n, 0) for n in injection),
        "injection.tokens_materialized": counts.get("tokens_materialized", 0),
        "injection.write_s": secs.get("injection.write_enriched", 0.0),
        "injection.read_s": secs.get("injection.read_enriched", 0.0),
        "embedding.embed_s": embed_s,
        "embedding.texts": len(embedded),
        "embedding.tokens": tokens,
        "embedding.distinct_tokens": len(set().union(*embedded)),
        "embedding.tokens_per_s": tokens / embed_s if embed_s else 0.0,
        "retrieval.index_s": self_s.get("retrieval.build_index", 0.0),
        "retrieval.search_s": self_s.get("retrieval.search", 0.0),
        "retrieval.search_calls": calls.get("retrieval.search", 0),
        "retrieval.rows_scanned": counts.get("rows_scanned", 0),
        "retrieval.load_s": self_s.get("retrieval.load_index", 0.0),
        "retrieval.load_calls": calls.get("retrieval.load_index", 0),
        "retrieval.save_s": self_s.get("retrieval.save_index", 0.0),
        "retrieval.bytes_read": counts.get("index_bytes_read", 0),
        "retrieval.bytes_written": counts.get("index_bytes_written", 0),
        "io.write_s": self_s.get("io.atomic_write_bytes", 0.0),
        "io.bytes_written": counts.get("io_bytes_written", 0),
        "evaluation.score_s": sum(self_s.get(n, 0.0) for n in SCORE_SPANS),
        "evaluation.score_calls": sum(calls.get(n, 0) for n in SCORE_SPANS),
        "evaluation.self_s": self_s.get("evaluation.run_sweep", 0.0),
    }
    for stage in ("gen", "chunk", "inject", "embed", "query"):
        layers[f"cli.{stage}_s"] = secs.get(f"cli.{stage}", 0.0)
    tracer.write(spans_path)
    phases = {}
    for phase in sorted({span[4] for span in tracer.spans}):
        per_span = tracer.self_times(phase)
        top = max(per_span, key=per_span.get)
        phases[phase] = {"layers": layer_self_times(per_span), "top_span": top, "top_span_s": per_span[top]}
    return {"layers": layers, "phases": phases}

def _count_embed_many(tracer: Tracer, args, result) -> None:
    token_lists = args[1]
    tracer.embedded.extend(token_lists)


def _count_one_text(tracer: Tracer, args, result) -> None:
    tracer.embedded.append(args[1])


def _count_enrich(tracer: Tracer, args, result) -> None:
    tracer.add("tokens_materialized", len(result.tokens))


def _count_search(tracer: Tracer, args, result) -> None:
    tracer.add("rows_scanned", len(args[0].chunk_ids))


def _count_chunks(tracer: Tracer, args, result) -> None:
    tracer.add("chunks", len(result))


def _count_write(tracer: Tracer, args, result) -> None:
    tracer.add("io_bytes_written", len(args[1]))


def _count_save(tracer: Tracer, args, result) -> None:
    tracer.add("index_bytes_written", os.path.getsize(args[1]))


def _count_load(tracer: Tracer, args, result) -> None:
    tracer.add("index_bytes_read", os.path.getsize(args[0]))


_HOOKS = {
    "embedding.embed_many": _count_embed_many,
    "embedding.embed": _count_one_text,
    "embedding.mean_vector": _count_one_text,
    "injection.enrich": _count_enrich,
    "retrieval.search": _count_search,
    "chunking.chunk_document": _count_chunks,
    "io.atomic_write_bytes": _count_write,
    "retrieval.save_index": _count_save,
    "retrieval.load_index": _count_load,
}
