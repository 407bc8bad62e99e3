from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cirbench import (
    Chunk,
    CorpusConfig,
    EmbedderConfig,
    build_context,
    build_index,
    chunk_document,
    enrich,
    generate_corpus,
    get_embedder,
    load_index,
    make_chunk_id,
    search,
    strategy,
)
from cirbench._hash import fork_seed
from cirbench._io import read_run_config, write_jsonl
from cirbench.chunking import write_chunks
from cirbench.cli import EXIT_FORMAT, EXIT_MISSING, EXIT_OK, EXIT_USAGE, build_parser, main
from cirbench.corpus import SPECIFIC, split_doc_count
from cirbench.errors import IndexFormatError
from cirbench.evaluation import MetricRow, SweepReport, emit_report, sweep_flags
from cirbench.injection import STRATEGY_KINDS, write_enriched
from cirbench.retrieval import save_index

SMALL = ["--docs", "6", "--queries", "24", "--seed", "11"]
SRC = Path(__file__).resolve().parents[1] / "src"


def test_sweep_runs_twice_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", *SMALL, "--out-dir", str(out_a)]) == EXIT_OK
    assert main(["sweep", *SMALL, "--out-dir", str(out_b)]) == EXIT_OK
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
    assert (out_a / "sweep.jsonl").read_bytes() == (out_b / "sweep.jsonl").read_bytes()


def test_gen_idempotent(tmp_path):
    out = tmp_path / "corpus.jsonl"
    assert main(["gen", *SMALL, "--out", str(out)]) == EXIT_OK
    first = out.read_bytes()
    assert main(["gen", *SMALL, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == first


def test_gen_run_config_is_the_library_defaults(tmp_path):
    out = tmp_path / "corpus.jsonl"
    assert main(["gen", "--out", str(out)]) == EXIT_OK
    corpus = CorpusConfig()
    header = read_run_config(out)
    assert split_doc_count(header["docs"]) == corpus.doc_counts
    assert header == {
        "seed": corpus.seed,
        "docs": sum(corpus.doc_counts.values()),
        "dim": EmbedderConfig().dim,
        "hash_seed": fork_seed(corpus.seed, "embed") % (1 << 62),
        "chunk_target": corpus.chunk_token_target,
        "queries": corpus.query_count,
        "specific_fraction": corpus.specific_fraction,
        "t_max": strategy("ddai").t_max,
        "strategies": ",".join(STRATEGY_KINDS),
    }


def test_pipeline_stages_compose(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    chunks = tmp_path / "chunks.jsonl"
    enriched = tmp_path / "enriched.jsonl"
    vectors = tmp_path / "vectors.cirx"

    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    assert main(["chunk", "--corpus", str(corpus), "--out", str(chunks)]) == EXIT_OK
    assert main(
        ["inject", "--corpus", str(corpus), "--chunks", str(chunks), "--strategy", "medium", "--out", str(enriched)]
    ) == EXIT_OK
    hash_seed = fork_seed(11, "embed") % (1 << 62)
    assert main(
        ["embed", "--enriched", str(enriched), "--dim", "256", "--hash-seed", str(hash_seed), "--out", str(vectors)]
    ) == EXIT_OK

    # In-memory reference pipeline with the same resolved configuration.
    cfg = CorpusConfig(
        seed=11,
        doc_counts={"normative": 2, "technical": 2, "transactional": 2},
        query_count=24,
    )
    docs, queries = generate_corpus(cfg)
    doc_by_id = {d.doc_id: d for d in docs}
    strat = strategy("medium")
    all_chunks = [c for d in docs for c in chunk_document(d, 250)]
    embedder = get_embedder(EmbedderConfig(dim=256, hash_seed=hash_seed))
    enriched_mem = [enrich(c, build_context(doc_by_id[c.doc_id], c, strat)) for c in all_chunks]
    vecs = embedder.embed_many([e.tokens for e in enriched_mem])
    index_mem = build_index(
        [(e.base.chunk_id, e.base.doc_id, e.base.section_index, vecs[i]) for i, e in enumerate(enriched_mem)]
    )

    query = next(q for q in queries if q.intent == SPECIFIC)
    qvec = embedder.embed(query.text)
    expected = search(index_mem, qvec, 10)

    index_disk = load_index(vectors)
    assert search(index_disk, qvec, 10) == expected

    capsys.readouterr()
    assert main(["query", "--index", str(vectors), "--text", " ".join(query.text), "--k", "10", "--hash-seed", str(hash_seed)]) == EXIT_OK
    out_lines = capsys.readouterr().out.strip().split("\n")
    assert len(out_lines) == 10
    top = out_lines[0].split("\t")
    assert top[1] == expected[0].chunk_id
    assert float(top[4]) == pytest.approx(expected[0].score, abs=1e-6)


def test_cli_chain_files_keep_their_bytes(tmp_path):
    # The sha256 of each file the chain writes; a reordered field or a changed draw shows here.
    expected = {
        "corpus.jsonl": "6eac9df3a6e0f18cb7e3a28f837db8027f26a40809e2daed1ad56f4c9cfc5ca9",
        "chunks.jsonl": "21192a51e16831e8e51be9b9f75a522eb02af762382deb8f2da0ee2b459b1f9a",
        "enriched.jsonl": "2aeec37a415ff738c59b9082de417ea55381e9e17f12d4065efd5a4291c652d3",
        "vectors.cirx": "320256f074e755916e7d8cb6d345f54f24ea5514e7bebef9b4fa4d680c2196d6",
    }
    corpus, chunks, enriched, vectors = (str(tmp_path / name) for name in expected)
    assert main(["gen", "--seed", "7", "--docs", "6", "--queries", "24", "--out", corpus]) == EXIT_OK
    assert main(["chunk", "--corpus", corpus, "--out", chunks]) == EXIT_OK
    assert main(["inject", "--corpus", corpus, "--chunks", chunks, "--strategy", "ddai", "--out", enriched]) == EXIT_OK
    assert main(["embed", "--enriched", enriched, "--out", vectors]) == EXIT_OK
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected} == expected


def test_query_takes_hash_seed_from_index(tmp_path, capsys):
    corpus, chunks, enriched, vectors = (
        tmp_path / name for name in ("corpus.jsonl", "chunks.jsonl", "enriched.jsonl", "vectors.cirx")
    )
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    assert main(["chunk", "--corpus", str(corpus), "--out", str(chunks)]) == EXIT_OK
    assert main(
        ["inject", "--corpus", str(corpus), "--chunks", str(chunks), "--strategy", "ddai", "--out", str(enriched)]
    ) == EXIT_OK
    assert main(["embed", "--enriched", str(enriched), "--out", str(vectors)]) == EXIT_OK
    embed_seed = fork_seed(11, "embed") % (1 << 62)  # embed's default: forked from the corpus's --seed
    query = ["query", "--index", str(vectors), "--text", "zq0012ab xj0012ab vk0012ab", "--k", "10"]

    capsys.readouterr()
    assert main([*query, "--hash-seed", str(embed_seed)]) == EXIT_OK
    with_seed = capsys.readouterr().out
    assert main(query) == EXIT_OK
    assert capsys.readouterr().out == with_seed
    assert len(with_seed.strip().split("\n")) == 10

    assert main([*query, "--hash-seed", str(embed_seed + 1)]) == EXIT_USAGE
    assert "disagrees" in capsys.readouterr().err


def test_chain_takes_config_from_input_run_config(tmp_path):
    corpus, chunks, enriched, vectors = (
        tmp_path / name for name in ("corpus.jsonl", "chunks.jsonl", "enriched.jsonl", "vectors.cirx")
    )
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    assert main(["chunk", "--corpus", str(corpus), "--out", str(chunks)]) == EXIT_OK
    assert main(
        ["inject", "--corpus", str(corpus), "--chunks", str(chunks), "--strategy", "low", "--out", str(enriched)]
    ) == EXIT_OK
    assert main(["embed", "--enriched", str(enriched), "--out", str(vectors)]) == EXIT_OK
    for path in (chunks, enriched):
        header = json.loads(path.read_text().split("\n", 1)[0])
        assert (header["seed"], header["docs"], header["queries"]) == (11, 6, 24)
    assert load_index(vectors).hash_seed == fork_seed(11, "embed") % (1 << 62)

    # A flag still wins over the inherited value.
    assert main(["embed", "--enriched", str(enriched), "--hash-seed", "5", "--out", str(vectors)]) == EXIT_OK
    assert load_index(vectors).hash_seed == 5


@pytest.mark.parametrize(("key", "value"), [("seed", "11"), ("dim", 256.0), ("t_max", True), ("colour", 1)])
def test_bad_run_config_value_is_format_error(tmp_path, capsys, key, value):
    corpus, chunks = tmp_path / "corpus.jsonl", tmp_path / "chunks.jsonl"
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    header, rest = corpus.read_text().split("\n", 1)
    corpus.write_text(json.dumps({**json.loads(header), key: value}) + "\n" + rest)
    capsys.readouterr()
    assert main(["chunk", "--corpus", str(corpus), "--out", str(chunks)]) == EXIT_FORMAT
    assert key in capsys.readouterr().err
    assert not chunks.exists()


@pytest.mark.parametrize("defect", ["duplicate", "non-unit"])
def test_invalid_index_is_format_error(tmp_path, capsys, defect):
    rng = np.random.default_rng(3)
    vecs = [v / np.linalg.norm(v) for v in rng.standard_normal((2, 8))]
    path = tmp_path / "vectors.cirx"
    save_index(build_index([("a:s000:t00000", "a", 0, vecs[0]), ("b:s000:t00000", "b", 0, vecs[1])], 5), path)
    data = path.read_bytes()
    if defect == "duplicate":
        data = data.replace(b"b:s000:t00000", b"a:s000:t00000")
    else:
        data = data[: -8 * 4] + (3 * vecs[1]).astype("<f4").tobytes()
    path.write_bytes(data)
    with pytest.raises(IndexFormatError, match=defect):
        load_index(path)
    assert main(["query", "--index", str(path), "--text", "a b c"]) == EXIT_FORMAT
    assert defect in capsys.readouterr().err


def _long_id_index(tmp_path, doc_ids: list[str]):
    """A saved dim-8 index with long ids, so that a file cut inside its id table
    passes the up-front size bound and the walk itself meets the end. Returns
    the path and, per entry, the offsets of its chunk id length, doc id length
    and section."""
    rng = np.random.default_rng(5)
    entries = [
        (f"chunk-{i:05d}" + "c" * 40, did, 7, v / np.linalg.norm(v))
        for i, (did, v) in enumerate(zip(doc_ids, rng.standard_normal((len(doc_ids), 8))))
    ]
    path = tmp_path / "vectors.cirx"
    save_index(build_index(entries, 5), path)
    fields, offset = [], 4 + 22  # magic, header
    for cid, did, _, _ in entries:
        doc_at = offset + 2 + len(cid)
        section_at = doc_at + 2 + len(did)
        fields.append((offset, doc_at, section_at))
        offset = section_at + 4
    return path, fields


@pytest.mark.parametrize("field", [0, 1, 2], ids=["chunk id length", "doc id length", "section"])
def test_index_cut_inside_an_id_table_field_is_truncation(tmp_path, capsys, field):
    path, fields = _long_id_index(tmp_path, ["doc-" + "d" * 40] * 4)
    path.write_bytes(path.read_bytes()[: fields[-1][field] + 1])
    with pytest.raises(IndexFormatError, match="truncated id table"):
        load_index(path)
    assert main(["query", "--index", str(path), "--text", "a b c"]) == EXIT_FORMAT
    assert "truncated id table" in capsys.readouterr().err


def test_repeated_non_utf8_doc_id_names_its_first_entry(tmp_path):
    path, _ = _long_id_index(tmp_path, ["doc-a", "doc-Z", "doc-Z", "doc-b"])
    data = path.read_bytes()
    path.write_bytes(data.replace(b"doc-Z", b"doc-\xff"))
    with pytest.raises(IndexFormatError, match="entry 1 is not UTF-8"):
        load_index(path)


def test_report_formats_from_sweep(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", *SMALL, "--out-dir", str(out)]) == EXIT_OK
    assert main(["report", "--sweep", str(out / "sweep.jsonl"), "--format", "plotdata", "--out-dir", str(out)]) == EXIT_OK
    dats = sorted(p.name for p in out.glob("*.dat"))
    assert dats == sorted(f"{k}.dat" for k in ["baseline", "low", "medium", "high", "overload", "ddai"])
    assert main(["report", "--sweep", str(out / "sweep.jsonl"), "--format", "csv", "--out-dir", str(out / "again")]) == EXIT_OK
    assert (out / "again" / "sweep.csv").exists()


def test_report_reproduces_sweep_files(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", *SMALL, "--out-dir", str(out)]) == EXIT_OK
    expected = {name: (out / name).read_bytes() for name in ("sweep.csv", "sweep.jsonl")}
    # Into another directory, then into the sweep's own, over the files it reads.
    for target in (tmp_path / "again", out):
        for fmt in ("csv", "jsonl"):
            argv = ["report", "--sweep", str(out / "sweep.jsonl"), "--format", fmt, "--out-dir", str(target)]
            assert main(argv) == EXIT_OK
        assert {name: (target / name).read_bytes() for name in expected} == expected


def test_out_dir_env_is_read_on_each_call(tmp_path, monkeypatch):
    for name in ("a", "b"):
        monkeypatch.setenv("CIRBENCH_OUT_DIR", str(tmp_path / name))
        assert main(["sweep", *SMALL]) == EXIT_OK
        assert (tmp_path / name / "sweep.jsonl").exists()
    sweep = str(tmp_path / "a" / "sweep.jsonl")
    for name in ("c", "d"):
        monkeypatch.setenv("CIRBENCH_OUT_DIR", str(tmp_path / name))
        assert main(["report", "--sweep", sweep, "--format", "csv"]) == EXIT_OK
        assert (tmp_path / name / "sweep.csv").read_bytes() == (tmp_path / "a" / "sweep.csv").read_bytes()
    assert main(["report", "--sweep", sweep, "--format", "csv", "--out-dir", str(tmp_path / "e")]) == EXIT_OK
    assert (tmp_path / "e" / "sweep.csv").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "c", "d", "e"]


def test_sweep_csv_has_flags_and_config_lines(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", *SMALL, "--out-dir", str(out)]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("strategy,mean_cir,ndcg10")
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 6
    assert any(l.startswith("# flags: inverted_u=") for l in lines)
    assert any(l.startswith("# config: ") for l in lines)


def test_sweep_records_the_normalized_strategy_list(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", *SMALL, "--strategies", " low, ddai,,baseline", "--out-dir", str(out)]) == EXIT_OK
    config = [l for l in (out / "sweep.csv").read_text().splitlines() if l.startswith("# config: ")]
    assert len(config) == 1 and " strategies=low,ddai,baseline " in config[0]
    assert read_run_config(out / "sweep.jsonl")["strategies"] == "low,ddai,baseline"


def test_empty_strategy_list_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", *SMALL, "--strategies", ",", "--out-dir", str(out)]) == EXIT_USAGE
    assert "error: strategies: " in capsys.readouterr().err
    assert not out.exists()


def test_repeated_strategy_kind_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", *SMALL, "--strategies", "low,ddai,low", "--out-dir", str(out)]) == EXIT_USAGE
    assert "error: strategies: 'low' is listed more than once" in capsys.readouterr().err
    assert not out.exists()


def test_report_refuses_a_sweep_file_with_a_repeated_strategy_row(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", *SMALL, "--out-dir", str(out)]) == EXIT_OK
    sweep = out / "sweep.jsonl"
    lines = sweep.read_text().splitlines()
    first = next(n for n, line in enumerate(lines, start=1) if json.loads(line).get("strategy") == "ddai")
    lines.insert(first, lines[first - 1])
    sweep.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = ["report", "--sweep", str(sweep), "--format", "plotdata", "--out-dir", str(tmp_path / "plot")]
    assert main(argv) == EXIT_FORMAT
    assert f"{sweep}: line {first + 1}: repeated strategy 'ddai' (first on line {first})" in capsys.readouterr().err
    assert not (tmp_path / "plot").exists()


def test_every_stage_writes_into_a_new_directory(tmp_path, capsys):
    corpus, chunks = tmp_path / "a" / "corpus.jsonl", tmp_path / "b" / "chunks.jsonl"
    enriched, vectors = tmp_path / "c" / "enriched.jsonl", tmp_path / "d" / "e" / "vectors.cirx"
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    assert main(["chunk", "--corpus", str(corpus), "--out", str(chunks)]) == EXIT_OK
    argv = ["inject", "--corpus", str(corpus), "--chunks", str(chunks), "--strategy", "low", "--out", str(enriched)]
    assert main(argv) == EXIT_OK
    assert main(["embed", "--enriched", str(enriched), "--out", str(vectors)]) == EXIT_OK
    assert all(path.is_file() for path in (corpus, chunks, enriched, vectors))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["gen into a directory", "chunk under a file", "sweep under a file"])
def test_an_output_path_no_file_can_take_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command):
    corpus, directory, regular = tmp_path / "corpus.jsonl", tmp_path / "dir", tmp_path / "file"
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    directory.mkdir()
    (directory / "kept").write_text("kept")
    regular.write_text("kept")
    argv, named = {
        "gen into a directory": (["gen", *SMALL, "--out", str(directory)], directory),
        "chunk under a file": (["chunk", "--corpus", str(corpus), "--out", str(regular / "x.jsonl")], regular),
        "sweep under a file": (["sweep", *SMALL, "--out-dir", str(regular)], regular),
    }[command]

    def work(*_args, **_kwargs):
        raise AssertionError("the command started its work before refusing its output path")

    monkeypatch.setattr("cirbench.cli.generate_corpus", work)
    monkeypatch.setattr("cirbench.cli.deserialize_corpus", work)
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(named) in err
    assert [p.name for p in directory.iterdir()] == ["kept"] and (directory / "kept").read_text() == "kept"
    assert regular.read_text() == "kept"


def test_missing_input_exit_code(tmp_path, capsys):
    assert main(["chunk", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o.jsonl")]) == EXIT_MISSING
    assert "missing input" in capsys.readouterr().err


def test_format_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is { not json\n")
    assert main(["chunk", "--corpus", str(bad), "--out", str(tmp_path / "o.jsonl")]) == EXIT_FORMAT
    assert "line 1" in capsys.readouterr().err


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag by exiting
        return exc.code


def test_invalid_flag_exit_code(tmp_path):
    corpus, chunks, enriched, out = (
        tmp_path / name for name in ("corpus.jsonl", "chunks.jsonl", "enriched.jsonl", "out")
    )
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    assert main(["chunk", "--corpus", str(corpus), "--out", str(chunks)]) == EXIT_OK
    assert main(
        ["inject", "--corpus", str(corpus), "--chunks", str(chunks), "--strategy", "low", "--out", str(enriched)]
    ) == EXIT_OK
    for argv in (
        ["embed", "--enriched", str(enriched), "--hash-seed", "-1", "--out", str(out / "vectors.cirx")],
        ["embed", "--enriched", str(enriched), "--hash-seed", str(1 << 64), "--out", str(out / "vectors.cirx")],
        ["inject", "--strategy", "maximal", "--corpus", "x", "--chunks", "y", "--out", "z"],
        ["query", "--index", "x", "--text", "y", "--k", "0"],
        ["sweep", *SMALL, "--dim", "4", "--out-dir", str(out)],
        ["sweep", *SMALL, "--hash-seed", "-1", "--out-dir", str(out)],
        ["sweep", *SMALL, "--hash-seed", str(1 << 64), "--out-dir", str(out)],
        ["sweep", *SMALL, "--t-max", "2", "--out-dir", str(out)],
        ["sweep", *SMALL, "--strategies", "foo", "--out-dir", str(out)],
        ["sweep", *SMALL, "--queries", "0", "--out-dir", str(out)],
        ["gen", "--docs", "0", "--out", str(out / "corpus.jsonl")],
        ["chunk", "--corpus", str(corpus), "--chunk-target", "8", "--out", str(out / "chunks.jsonl")],
    ):
        assert _exit_code(argv) == EXIT_USAGE, argv
    assert not out.exists()


def test_embed_refuses_an_enriched_file_without_records(tmp_path, capsys):
    enriched, vectors = tmp_path / "enriched.jsonl", tmp_path / "vectors.cirx"
    write_enriched([], "low", enriched, header={"seed": 11})
    assert main(["embed", "--enriched", str(enriched), "--out", str(vectors)]) == EXIT_FORMAT
    assert str(enriched) in capsys.readouterr().err
    assert not vectors.exists()


def test_query_refuses_an_index_without_rows(tmp_path, capsys):
    vectors = tmp_path / "empty.cirx"
    save_index(build_index([], hash_seed=0), vectors)
    assert main(["query", "--index", str(vectors), "--text", "a b"]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert str(vectors) in err and "no rows" in err


@pytest.mark.parametrize("artifact", ["corpus", "config", "index"])
def test_bytes_that_are_not_utf8_are_format_error(tmp_path, capsys, artifact):
    corpus, chunks, enriched, vectors = (
        tmp_path / name for name in ("corpus.jsonl", "chunks.jsonl", "enriched.jsonl", "vectors.cirx")
    )
    if artifact == "corpus":
        assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
        data = corpus.read_bytes()
        corpus.write_bytes(data[:500] + b"\xff" + data[500:])
        bad, argv = corpus, ["chunk", "--corpus", str(corpus), "--out", str(chunks)]
    elif artifact == "config":
        bad = tmp_path / "run.cfg"
        bad.write_bytes(b"seed = 11\n# caf\xff\n")
        argv = ["gen", "--config", str(bad), "--out", str(corpus)]
    else:
        assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
        assert main(["chunk", "--corpus", str(corpus), "--out", str(chunks)]) == EXIT_OK
        assert main(
            ["inject", "--corpus", str(corpus), "--chunks", str(chunks), "--strategy", "low", "--out", str(enriched)]
        ) == EXIT_OK
        assert main(["embed", "--enriched", str(enriched), "--out", str(vectors)]) == EXIT_OK
        data = vectors.read_bytes()
        first_id = 4 + 22 + 2  # magic, header, the first chunk id's length
        vectors.write_bytes(data[:first_id] + b"\xff" + data[first_id + 1 :])
        bad, argv = vectors, ["query", "--index", str(vectors), "--text", "a b c"]
    capsys.readouterr()
    assert main(argv) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert str(bad) in err and "UTF-8" in err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 11\ndocs = 6\nqueries = 24\n# comment\n")
    out_file = tmp_path / "corpus_file.jsonl"
    out_flags = tmp_path / "corpus_flags.jsonl"
    assert main(["gen", "--config", str(cfg), "--out", str(out_file)]) == EXIT_OK
    assert main(["gen", *SMALL, "--out", str(out_flags)]) == EXIT_OK
    assert out_file.read_bytes() == out_flags.read_bytes()
    # explicit flag wins over the file value
    out_override = tmp_path / "corpus_override.jsonl"
    assert main(["gen", "--config", str(cfg), "--seed", "12", "--out", str(out_override)]) == EXIT_OK
    assert out_override.read_bytes() != out_file.read_bytes()


def test_unknown_config_key_is_format_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sedd = 11\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "c.jsonl")]) == EXIT_FORMAT


def test_reused_parser_carries_nothing_between_calls(tmp_path, capsys):
    rng = np.random.default_rng(6)
    vecs = [v / np.linalg.norm(v) for v in rng.standard_normal((12, 8))]
    path = tmp_path / "vectors.cirx"
    save_index(build_index([(f"c{i:02d}", f"d{i % 3}", i % 2, v) for i, v in enumerate(vecs)], 5), path)
    query = ["query", "--index", str(path), "--text", "alpha beta gamma", "--k", "4"]
    fresh = build_parser().parse_args(query)
    assert fresh.func(fresh) == EXIT_OK
    expected = capsys.readouterr().out
    assert len(expected.splitlines()) == 4

    assert main([*query, "--hash-seed", "6"]) == EXIT_USAGE
    assert "disagrees" in capsys.readouterr().err
    assert main(query) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert _exit_code([*query, "--colour", "red"]) == EXIT_USAGE
    assert main(query) == EXIT_OK
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", [[], ["gen"], ["chunk"], ["inject"], ["embed"], ["query"], ["sweep"], ["report"]])
def test_reused_parser_help_equals_a_fresh_parsers(capsys, command):
    def help_text(parse) -> str:
        with pytest.raises(SystemExit) as exc:
            parse([*command, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    first, again = help_text(main), help_text(main)
    assert first == again == help_text(build_parser().parse_args)


def test_inject_refuses_chunks_of_a_document_the_corpus_lacks(tmp_path, capsys):
    corpus, chunks, enriched = (tmp_path / name for name in ("corpus.jsonl", "chunks.jsonl", "enriched.jsonl"))
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    write_chunks([Chunk(make_chunk_id("normative-0099", 0, 0), "normative-0099", 0, ["h"], ["a", "b"])], chunks)
    argv = ["inject", "--corpus", str(corpus), "--chunks", str(chunks), "--strategy", "low", "--out", str(enriched)]
    assert main(argv) == EXIT_FORMAT
    assert "unknown documents ['normative-0099']" in capsys.readouterr().err
    assert not enriched.exists()


def test_query_text_without_tokens_is_a_usage_error(tmp_path, capsys):
    vectors = tmp_path / "vectors.cirx"
    save_index(build_index([("c0", "d0", 0, np.eye(8)[0])], hash_seed=5), vectors)
    assert main(["query", "--index", str(vectors), "--text", "!!"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "no tokens" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "text, message", [("seed = 11\ndocs 6\n", "line 2: expected 'key = value'"), ("docs = six\n", "invalid value for docs")]
)
def test_bad_config_file_line_is_format_error(tmp_path, capsys, text, message):
    cfg, corpus = tmp_path / "run.cfg", tmp_path / "corpus.jsonl"
    cfg.write_text(text)
    assert main(["gen", "--config", str(cfg), "--out", str(corpus)]) == EXIT_FORMAT
    assert message in capsys.readouterr().err
    assert not corpus.exists()


def test_corpus_without_its_query_block_is_format_error(tmp_path, capsys):
    corpus, chunks = tmp_path / "corpus.jsonl", tmp_path / "chunks.jsonl"
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    lines = corpus.read_text().splitlines()
    assert json.loads(lines[-1])["type"] == "queries"
    corpus.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["chunk", "--corpus", str(corpus), "--out", str(chunks)]) == EXIT_FORMAT
    assert f"{corpus}: missing trailing query block" in capsys.readouterr().err


@pytest.mark.parametrize("defect", ["second block", "block not last"])
def test_corpus_needs_exactly_one_query_block_as_its_last_record(tmp_path, capsys, defect):
    corpus, chunks, enriched = tmp_path / "corpus.jsonl", tmp_path / "chunks.jsonl", tmp_path / "enriched.jsonl"
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    assert main(["chunk", "--corpus", str(corpus), "--out", str(chunks)]) == EXIT_OK
    lines = corpus.read_text().splitlines()
    block = json.loads(lines[-1])
    if defect == "second block":
        lines.append(json.dumps({**block, "queries": block["queries"][:3]}))
    else:
        lines[-2], lines[-1] = lines[-1], lines[-2]
    corpus.write_text("\n".join(lines) + "\n")
    assert main(["chunk", "--corpus", str(corpus), "--out", str(tmp_path / "again.jsonl")]) == EXIT_FORMAT
    inject = ["inject", "--corpus", str(corpus), "--chunks", str(chunks), "--strategy", "low", "--out", str(enriched)]
    assert main(inject) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.count(f"error: {corpus}: ") == 2
    assert not (tmp_path / "again.jsonl").exists() and not enriched.exists()


def test_index_of_an_unknown_version_is_format_error(tmp_path, capsys):
    vectors = tmp_path / "vectors.cirx"
    save_index(build_index([("c0", "d0", 0, np.eye(8)[0])], hash_seed=5), vectors)
    data = bytearray(vectors.read_bytes())
    data[4:6] = (3).to_bytes(2, "little")
    vectors.write_bytes(bytes(data))
    assert main(["query", "--index", str(vectors), "--text", "a b"]) == EXIT_FORMAT
    assert f"{vectors}: unsupported version 3" in capsys.readouterr().err


@pytest.mark.parametrize("drop", ["sweep", "flags"])
def test_report_refuses_a_sweep_file_missing_a_record(tmp_path, capsys, drop):
    out = tmp_path / "out"
    assert main(["sweep", *SMALL, "--out-dir", str(out)]) == EXIT_OK
    sweep = out / "sweep.jsonl"
    lines = [line for line in sweep.read_text().splitlines() if json.loads(line)["type"] != drop]
    sweep.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for fmt in ("csv", "jsonl"):
        argv = ["report", "--sweep", str(sweep), "--format", fmt, "--out-dir", str(tmp_path / fmt)]
        assert main(argv) == EXIT_FORMAT
        assert f"{sweep}: expected one {drop} record, found 0" in capsys.readouterr().err
        assert not (tmp_path / fmt).exists()


@pytest.mark.parametrize(
    "command",
    ["query", "chunk", "inject", "embed", "report", "gen --config", "query under a file"],
)
def test_an_input_path_no_file_can_be_read_from_is_a_missing_input(tmp_path, capsys, command):
    corpus, directory, regular = tmp_path / "corpus.jsonl", tmp_path / "dir", tmp_path / "file"
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    directory.mkdir()
    regular.write_text("kept")
    out = str(tmp_path / "out")
    argv, named = {
        "query": (["query", "--index", str(directory), "--text", "a b"], directory),
        "chunk": (["chunk", "--corpus", str(directory), "--out", out], directory),
        "inject": (
            ["inject", "--corpus", str(corpus), "--chunks", str(directory), "--strategy", "low", "--out", out],
            directory,
        ),
        "embed": (["embed", "--enriched", str(directory), "--out", out], directory),
        "report": (["report", "--sweep", str(directory), "--format", "csv", "--out-dir", out], directory),
        "gen --config": (["gen", "--config", str(directory), "--out", out], directory),
        "query under a file": (["query", "--index", str(regular / "x"), "--text", "a b"], regular / "x"),
    }[command]
    capsys.readouterr()
    assert main(argv) == EXIT_MISSING
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {named}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_query_on_an_index_whose_dim_no_embedder_takes_is_a_format_error(tmp_path, capsys):
    vectors = tmp_path / "dim4.cirx"
    save_index(build_index([("a:s000:t00000", "a", 0, np.array([0.6, 0.8, 0.0, 0.0]))], hash_seed=3), vectors)
    assert main(["query", "--index", str(vectors), "--text", "hello"]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {vectors}: ") and "dim" in err and "--dim" not in err


@pytest.mark.parametrize("strategy, fmt", [(5, "csv"), ("../../escaped", "plotdata")])
def test_report_refuses_a_row_whose_strategy_is_no_strategy_kind(tmp_path, capsys, strategy, fmt):
    rows = [MetricRow("baseline", 0.0, 0.5, 0.8, 0.4, 0.1, None), MetricRow("high", 0.6, 0.4, 0.3, 0.9, 0.7, 0.5)]
    (sweep,) = emit_report(SweepReport("cafe01234567", rows, sweep_flags(rows)), "jsonl", tmp_path / "sweep", {"seed": 7})
    sweep.write_text(sweep.read_text().replace('"strategy": "high"', f'"strategy": {json.dumps(strategy)}'))
    out = tmp_path / "rep" / "a" / "b"
    assert main(["report", "--sweep", str(sweep), "--format", fmt, "--out-dir", str(out)]) == EXIT_FORMAT
    assert f"error: {sweep}: line 4: bad record (ValueError: unknown strategy {strategy!r})" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "chunk_id, message",
    [
        ("normative-0000:s-01:t00000", "line 2: bad record (ValueError: malformed chunk id"),
        ("normative-0000:s4294967296:t00000", "entry 0 ('normative-0000:s4294967296:t00000') does not fit CIRX"),
        ("n" * 65536 + ":s000:t00000", f"entry 0 ('{'n' * 77}...') does not fit CIRX"),
    ],
    ids=["a signed section", "a section past a u32", "a chunk id past 65535 bytes"],
)
def test_embed_refuses_an_enriched_chunk_an_index_cannot_hold(tmp_path, capsys, chunk_id, message):
    enriched, vectors = tmp_path / "enriched.jsonl", tmp_path / "vectors.cirx"
    write_jsonl(enriched, [{"chunk_id": chunk_id, "strategy": "low", "cir": 0.1, "tokens": ["alpha", "beta"]}], {})
    assert main(["embed", "--enriched", str(enriched), "--out", str(vectors)]) == EXIT_FORMAT
    assert capsys.readouterr().err.startswith(f"error: {enriched}: {message}")
    assert list(tmp_path.iterdir()) == [enriched]


@pytest.mark.parametrize(
    "text, message",
    [("seed = 11\nsedd = 11\n", "unknown key 'sedd'"), ("seed = 11\ndocs = six\n", "line 2: invalid value for docs (")],
    ids=["an unknown key", "a value that does not convert"],
)
def test_config_file_errors_name_the_file(tmp_path, capsys, text, message):
    cfg, corpus = tmp_path / "run.cfg", tmp_path / "corpus.jsonl"
    cfg.write_text(text)
    assert main(["gen", "--config", str(cfg), "--out", str(corpus)]) == EXIT_FORMAT
    assert f"error: {cfg}: {message}" in capsys.readouterr().err
    assert not corpus.exists()


def test_config_file_lies_over_the_input_header_and_flags_over_both(tmp_path, capsys):
    corpus, chunks, cfg = tmp_path / "corpus.jsonl", tmp_path / "chunks.jsonl", tmp_path / "run.cfg"
    assert main(["gen", *SMALL, "--chunk-target", "200", "--out", str(corpus)]) == EXIT_OK
    cfg.write_text("chunk_target = 120\n")
    layers = [([], 200), (["--config", str(cfg)], 120), (["--config", str(cfg), "--chunk-target", "90"], 90)]
    for flags, target in layers:
        assert main(["chunk", "--corpus", str(corpus), *flags, "--out", str(chunks)]) == EXIT_OK
        header = read_run_config(chunks)
        assert (header["seed"], header["docs"], header["chunk_target"]) == (11, 6, target)

    # The header's own errors keep their wording.
    header, rest = corpus.read_text().split("\n", 1)
    corpus.write_text(json.dumps({**json.loads(header), "seed": "11"}) + "\n" + rest)
    capsys.readouterr()
    assert main(["chunk", "--corpus", str(corpus), "--config", str(cfg), "--out", str(chunks)]) == EXIT_FORMAT
    assert f"error: {corpus}: run_config: seed: expected a JSON integer, got '11'\n" == capsys.readouterr().err


def test_inject_refuses_a_chunks_file_whose_run_config_repeats_after_its_first_line(tmp_path, capsys):
    corpus, chunks, enriched = (tmp_path / name for name in ("corpus.jsonl", "chunks.jsonl", "enriched.jsonl"))
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    assert main(["chunk", "--corpus", str(corpus), "--out", str(chunks)]) == EXIT_OK
    lines = chunks.read_text().splitlines()
    chunks.write_text("\n".join([*lines[:3], lines[0], *lines[3:]]) + "\n")
    capsys.readouterr()
    argv = ["inject", "--corpus", str(corpus), "--chunks", str(chunks), "--strategy", "low", "--out", str(enriched)]
    assert main(argv) == EXIT_FORMAT
    assert f"error: {chunks}: line 4: a run_config record belongs on the first line\n" == capsys.readouterr().err
    assert not enriched.exists()


@pytest.mark.parametrize(
    ("where", "key", "value", "message"),
    [
        ("run_config", "t_max", 5.0, "t_max: must lie in (0, 1)"),
        ("run_config", "dim", 4, "dim: must lie in [8, 2**31], got 4"),
        ("config", "t_max", 0.0, "t_max: must lie in (0, 1)"),
    ],
)
def test_an_out_of_range_file_value_is_a_format_error_naming_the_file(tmp_path, capsys, where, key, value, message):
    corpus, chunks, cfg, enriched = (
        tmp_path / name for name in ("corpus.jsonl", "chunks.jsonl", "run.cfg", "enriched.jsonl")
    )
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    assert main(["chunk", "--corpus", str(corpus), "--out", str(chunks)]) == EXIT_OK
    argv = ["inject", "--corpus", str(corpus), "--chunks", str(chunks), "--strategy", "low", "--out", str(enriched)]
    if where == "run_config":
        header, rest = chunks.read_text().split("\n", 1)
        chunks.write_text(json.dumps({**json.loads(header), key: value}) + "\n" + rest)
        named = f"{chunks}: run_config"
    else:
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
        named = str(cfg)
    capsys.readouterr()
    assert main(argv) == EXIT_FORMAT
    assert f"error: {named}: {message}\n" == capsys.readouterr().err
    assert not enriched.exists()


@pytest.mark.parametrize("lineno", [1, 2])
def test_a_line_nested_past_the_recursion_limit_is_a_format_error(tmp_path, capsys, lineno):
    corpus, chunks, enriched = (tmp_path / name for name in ("corpus.jsonl", "chunks.jsonl", "enriched.jsonl"))
    assert main(["gen", *SMALL, "--out", str(corpus)]) == EXIT_OK
    assert main(["chunk", "--corpus", str(corpus), "--out", str(chunks)]) == EXIT_OK
    lines = chunks.read_text().splitlines()
    lines[lineno - 1] = "[" * 100_000 + "]" * 100_000
    chunks.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = ["inject", "--corpus", str(corpus), "--chunks", str(chunks), "--strategy", "low", "--out", str(enriched)]
    assert main(argv) == EXIT_FORMAT
    assert f"error: {chunks}: line {lineno}: JSON nested too deeply to parse\n" == capsys.readouterr().err
    assert not enriched.exists()


def test_python_m_cirbench_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "cirbench", "--help"], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: cirbench")
