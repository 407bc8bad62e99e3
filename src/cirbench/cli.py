"""Command-line pipeline: gen, chunk, inject, embed, query, sweep, report.

Each stage reads and writes the documented on-disk formats, so the sweep
can be reproduced by chaining the individual commands. All randomness
flows from one top-level seed, forked deterministically per stage; every
JSONL/CSV output carries the resolved configuration for provenance, and
``chunk``, ``inject`` and ``embed`` take their defaults from their input
file's, so a chain keeps the corpus's seed.

``main(argv)`` may be called repeatedly in one process. It builds its
argparse parser on the first call and reuses it, and ``sweep`` and
``report`` read ``CIRBENCH_OUT_DIR`` on every call, so each call follows
its own environment; an explicit ``--out-dir`` wins.

Exit codes: 0 success, 2 invalid flags or out-of-range flag values (an
output path that is a directory or lies under a regular file among them),
3 missing input file, or an input path that is a directory or lies under
a regular file, 4 format/parse error (including bytes that are not UTF-8,
an out-of-range value in an input's run_config header or a config file,
an index whose dim no embedder takes, and an enriched chunk that an index
file cannot hold), 1 any other failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from ._hash import fork_seed
from ._io import check_target, json_field, read_run_config
from .chunking import chunk_document, read_chunks, tokenize, write_chunks
from .corpus import CorpusConfig, deserialize_corpus, generate_corpus, serialize_corpus, split_doc_count
from .embedding import EmbedderConfig, get_embedder
from .errors import CirbenchError, ConfigError, FormatError, IndexValidationError
from .evaluation import emit_report, parse_report_jsonl, report_csv, run_sweep
from .injection import STRATEGY_KINDS, InjectionStrategy, build_context, enrich, read_enriched, write_enriched
from .retrieval import build_index, load_index, save_index, search

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_FORMAT = 4

_CORPUS = CorpusConfig()

# Every configurable value: name -> (type, default, help; "{}" shows the
# default). Each is a flag, a config-file key and a provenance entry; this
# order is the order of the provenance header written into every artifact.
# The defaults are those of the library objects the values configure.
_FIELDS = {
    "seed": (int, _CORPUS.seed, "top-level seed (default {})"),
    "docs": (int, sum(_CORPUS.doc_counts.values()), "total document count, split 30/40/30 across typologies"),
    "dim": (int, EmbedderConfig.dim, "embedding dimension (default {})"),
    "hash_seed": (int, None, "embedder hash seed (default: forked from --seed)"),
    "chunk_target": (int, _CORPUS.chunk_token_target, "chunk window size in tokens (default {})"),
    "queries": (int, _CORPUS.query_count, "ground-truth query count (default {})"),
    "specific_fraction": (float, _CORPUS.specific_fraction, "share of specific queries (default {})"),
    "t_max": (float, InjectionStrategy.t_max, "adaptive-injection ratio threshold (default {})"),
    "strategies": (str, ",".join(STRATEGY_KINDS), "comma-separated strategy kinds"),
}


def _out_dir(args: argparse.Namespace) -> str:
    """``--out-dir``, else ``CIRBENCH_OUT_DIR`` as this call's environment holds it, else '.'."""
    return os.environ.get("CIRBENCH_OUT_DIR", ".") if args.out_dir is None else args.out_dir


def _load_config_file(path: str) -> dict:
    """Parse a plain `key = value` config file, each known key's value to its ``_FIELDS`` type; '#' starts a comment."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            values[key] = _FIELDS[key][0](value) if key in _FIELDS else value
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: invalid value for {key} ({exc})") from exc
    return values


def _resolve(args: argparse.Namespace, inherit_from: str | None = None) -> dict:
    """Merge defaults, the input file's run_config, config file, and explicit flags (flags win).

    The result, in ``_FIELDS`` order with one normalized strategies string, is every output's provenance header.
    """
    resolved = {name: default for name, (_, default, _) in _FIELDS.items()}
    sources = [] if inherit_from is None else [(f"{inherit_from}: run_config", read_run_config(inherit_from))]
    if getattr(args, "config", None):
        sources.append((args.config, _load_config_file(args.config)))
    for where, values in sources:
        for key in values:
            if key not in _FIELDS:
                raise FormatError(f"{where}: unknown key {key!r}")
            try:
                resolved[key] = json_field(values, key, _FIELDS[key][0])
            except ValueError as exc:
                raise FormatError(f"{where}: {exc}, got {values[key]!r}") from exc
        try:
            _check_ranges(resolved)  # the values before this file's passed, so a failure is this file's
        except ConfigError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    for key in _FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    if resolved["hash_seed"] is None:
        resolved["hash_seed"] = fork_seed(resolved["seed"], "embed") % (1 << 62)
    resolved["strategies"] = ",".join(s.strip() for s in resolved["strategies"].split(",") if s.strip())
    return resolved


def _check_ranges(resolved: dict) -> None:
    """Build every library object the values of *resolved* configure; an out-of-range value raises its ConfigError."""
    _corpus_config(resolved).validate()
    EmbedderConfig(resolved["dim"], resolved["hash_seed"] or 0)  # None: forked later, from the seed
    kinds = [kind.strip() for kind in resolved["strategies"].split(",") if kind.strip()]
    for kind in kinds or STRATEGY_KINDS:  # t_max is checked even when no kind is listed
        InjectionStrategy(kind, resolved["t_max"])


def _corpus_config(resolved: dict) -> CorpusConfig:
    return CorpusConfig(
        seed=resolved["seed"],
        doc_counts=split_doc_count(resolved["docs"]),
        chunk_token_target=resolved["chunk_target"],
        query_count=resolved["queries"],
        specific_fraction=resolved["specific_fraction"],
    )


def cmd_gen(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    docs, queries = generate_corpus(_corpus_config(resolved))
    serialize_corpus(docs, queries, args.out, header=resolved)
    print(f"wrote {len(docs)} documents and {len(queries)} queries to {args.out}")
    return EXIT_OK


def cmd_chunk(args: argparse.Namespace) -> int:
    resolved = _resolve(args, args.corpus)
    docs, _ = deserialize_corpus(args.corpus)
    chunks = [c for doc in docs for c in chunk_document(doc, resolved["chunk_target"])]
    write_chunks(chunks, args.out, header=resolved)
    print(f"wrote {len(chunks)} chunks to {args.out}")
    return EXIT_OK


def cmd_inject(args: argparse.Namespace) -> int:
    resolved = _resolve(args, args.chunks)
    docs, _ = deserialize_corpus(args.corpus)
    doc_by_id = {d.doc_id: d for d in docs}
    chunks = read_chunks(args.chunks)
    missing = sorted({c.doc_id for c in chunks if c.doc_id not in doc_by_id})
    if missing:
        raise FormatError(f"{args.chunks}: chunks reference unknown documents {missing[:3]}")
    strat = InjectionStrategy(args.strategy, resolved["t_max"])
    enriched = [enrich(c, build_context(doc_by_id[c.doc_id], c, strat)) for c in chunks]
    write_enriched(enriched, strat.kind, args.out, header=resolved)
    print(f"wrote {len(enriched)} enriched chunks ({strat.kind}) to {args.out}")
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    resolved = _resolve(args, args.enriched)
    config = EmbedderConfig(dim=resolved["dim"], hash_seed=resolved["hash_seed"])
    records = read_enriched(args.enriched)
    if not records:
        raise FormatError(f"{args.enriched}: no enriched chunks to embed")
    vectors = get_embedder(config).embed_many([r["tokens"] for r in records])
    entries = [
        (r["chunk_id"], r["doc_id"], r["section_index"], vectors[i]) for i, r in enumerate(records)
    ]
    index = build_index(entries, config.hash_seed)
    try:
        save_index(index, args.out)
    except IndexValidationError as exc:  # an entry of the enriched file that CIRX cannot hold
        raise FormatError(f"{args.enriched}: {exc}") from exc
    print(f"wrote {len(entries)} vectors (dim {config.dim}) to {args.out}")
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    if index.count == 0:
        raise FormatError(f"{args.index}: the index holds no rows, so there is nothing to query")
    if args.hash_seed is not None and args.hash_seed != index.hash_seed:
        raise ConfigError(f"--hash-seed {args.hash_seed} disagrees with the index's {index.hash_seed}")
    try:
        config = EmbedderConfig(dim=index.dim, hash_seed=index.hash_seed)
    except ConfigError as exc:  # the file's value, not a flag
        raise FormatError(f"{args.index}: index {exc}") from exc
    tokens = tokenize(args.text)
    if not tokens:
        raise ConfigError("query text produced no tokens")
    qvec = get_embedder(config).embed(tokens)
    for rank, hit in enumerate(search(index, qvec, args.k), start=1):
        print(f"{rank}\t{hit.chunk_id}\t{hit.doc_id}\t{hit.section_index}\t{hit.score:.6f}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    strategies = [InjectionStrategy(kind, resolved["t_max"]) for kind in resolved["strategies"].split(",") if kind]
    embed_config = EmbedderConfig(dim=resolved["dim"], hash_seed=resolved["hash_seed"])
    for fmt in ("csv", "jsonl"):
        check_target(Path(_out_dir(args)) / f"sweep.{fmt}")
    docs, queries = generate_corpus(_corpus_config(resolved))
    report = run_sweep(docs, queries, strategies, embed_config, chunk_target=resolved["chunk_target"])
    written = [path for fmt in ("csv", "jsonl") for path in emit_report(report, fmt, _out_dir(args), resolved)]
    print(report_csv(report, resolved), end="")
    print(f"wrote {written[0]} and {written[1]}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    report = parse_report_jsonl(args.sweep)
    written = emit_report(report, args.format, _out_dir(args), read_run_config(args.sweep) or None)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        kind, default, help_text = _FIELDS[name]
        parser.add_argument(
            f"--{name.replace('_', '-')}", dest=name, type=kind, default=None, help=help_text.format(default)
        )
    parser.add_argument("--config", default=None, help="key = value config file; flags override it")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cirbench",
        description="Context-injection chunk enrichment and retrieval-dilution benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate the seeded synthetic corpus and queries")
    _add_config_flags(p, "seed", "docs", "chunk_target", "queries", "specific_fraction")
    p.add_argument("--out", required=True, help="corpus JSONL output path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("chunk", help="split corpus sections into fixed token windows")
    _add_config_flags(p, "chunk_target")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="chunk JSONL output path")
    p.set_defaults(func=cmd_chunk)

    p = sub.add_parser("inject", help="prepend context blocks under one strategy")
    _add_config_flags(p, "t_max")
    p.add_argument("--corpus", required=True)
    p.add_argument("--chunks", required=True)
    p.add_argument("--strategy", required=True, choices=STRATEGY_KINDS)
    p.add_argument("--out", required=True, help="enriched-chunk JSONL output path")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("embed", help="embed enriched chunks into a binary vector file")
    _add_config_flags(p, "dim", "hash_seed")
    p.add_argument("--enriched", required=True)
    p.add_argument("--out", required=True, help="binary vector file output path")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("query", help="run one query against a saved index")
    p.add_argument("--index", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument(
        "--hash-seed", dest="hash_seed", type=int, default=None, help="must equal the hash seed the index records"
    )
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("sweep", help="run the full pipeline across strategies")
    _add_config_flags(
        p, "seed", "docs", "dim", "hash_seed", "chunk_target", "queries", "specific_fraction", "t_max", "strategies"
    )
    p.add_argument("--out-dir", default=None, help="output directory (env CIRBENCH_OUT_DIR)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-emit a sweep report in another format")
    p.add_argument("--sweep", required=True, help="sweep.jsonl produced by the sweep command")
    p.add_argument("--format", required=True, choices=["csv", "jsonl", "plotdata"])
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing reads a parser and never changes it, and no default depends on
    # the environment, so one parser serves every call in the process.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            check_target(args.out)  # before the command does its work
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename or exc}", file=sys.stderr)
        return EXIT_MISSING
    except (IsADirectoryError, NotADirectoryError) as exc:  # output paths were refused above
        print(f"error: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_MISSING
    except CirbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, FormatError):
            return EXIT_FORMAT
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
