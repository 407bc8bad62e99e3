from __future__ import annotations

import json
import os
import re
import stat

import pytest

from cirbench import build_context, chunk_document, enrich, serialize_corpus, strategy
from cirbench._io import atomic_write_bytes, write_jsonl
from cirbench.chunking import read_chunks, write_chunks
from cirbench.cli import EXIT_FORMAT, EXIT_OK, main
from cirbench.corpus import deserialize_corpus
from cirbench.errors import CorpusFormatError
from cirbench.evaluation import MetricRow, SweepFlags, SweepReport, emit_report, parse_report_jsonl, sweep_flags
from cirbench.injection import read_enriched, write_enriched

KINDS = ["corpus", "chunks", "enriched", "report"]


def _write(kind: str, path, small_corpus) -> None:
    docs, queries = small_corpus
    chunks = [c for d in docs[:2] for c in chunk_document(d, 250)]
    header = {"seed": 7}
    if kind == "corpus":
        serialize_corpus(docs, queries, path, header=header)
    elif kind == "chunks":
        write_chunks(chunks, path, header=header)
    elif kind == "enriched":
        strat = strategy("medium")
        doc_by_id = {d.doc_id: d for d in docs}
        enriched = [enrich(c, build_context(doc_by_id[c.doc_id], c, strat)) for c in chunks]
        write_enriched(enriched, strat.kind, path, header=header)
    else:
        rows = [MetricRow("baseline", 0.0, 0.5, 0.8, 0.4, 0.1, None), MetricRow("high", 0.6, 0.4, 0.3, 0.9, 0.7, 0.5)]
        (written,) = emit_report(SweepReport("cafe01234567", rows, sweep_flags(rows)), "jsonl", path.parent)
        os.replace(written, path)


_READERS = {
    "corpus": deserialize_corpus,
    "chunks": read_chunks,
    "enriched": read_enriched,
    "report": parse_report_jsonl,
}


@pytest.mark.parametrize("kind", KINDS)
def test_truncated_file_raises_with_line_number(tmp_path, small_corpus, kind):
    path = tmp_path / f"{kind}.jsonl"
    _write(kind, path, small_corpus)
    data = path.read_bytes()
    broken = tmp_path / "broken.jsonl"
    broken.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorpusFormatError, match=r"line \d+|query block"):
        _READERS[kind](broken)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad_line", ["{}", "[1, 2]"])
def test_bad_record_raises_with_line_number(tmp_path, small_corpus, kind, bad_line):
    path = tmp_path / f"{kind}.jsonl"
    _write(kind, path, small_corpus)
    lines = path.read_text().splitlines()
    lines.insert(2, bad_line)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=f"{path}: line 3: "):
        _READERS[kind](path)


@pytest.mark.parametrize("kind, field", [("corpus", "doc_id"), ("chunks", "chunk_id"), ("enriched", "chunk_id")])
def test_repeated_id_raises_with_both_line_numbers(tmp_path, small_corpus, kind, field):
    path = tmp_path / f"{kind}.jsonl"
    _write(kind, path, small_corpus)
    lines = path.read_text().splitlines()
    lines.insert(len(lines) - 1, lines[1])  # the first record again, before the corpus's query block
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=f"{path}: line {len(lines) - 1}: repeated {field} .*first on line 2"):
        _READERS[kind](path)


@pytest.mark.parametrize("kind", ["chunks", "enriched"])
def test_non_string_chunk_id_is_a_format_error(tmp_path, small_corpus, kind):
    path = tmp_path / f"{kind}.jsonl"
    _write(kind, path, small_corpus)
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "chunk_id": 5})
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: line 2: bad record (ValueError: chunk id must be a string, got 5)"
    with pytest.raises(CorpusFormatError, match=re.escape(message)):
        _READERS[kind](path)


def test_atomic_write_ignores_stale_tmp_directory(tmp_path):
    path = tmp_path / "vectors.cirx"
    (tmp_path / "vectors.cirx.tmp").mkdir()
    atomic_write_bytes(path, b"payload")
    assert path.read_bytes() == b"payload"
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_bytes(target, b"payload")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def _records_then_failure():
    yield {"type": "chunk"}
    raise RuntimeError("the records ran out")


@pytest.mark.parametrize(
    "write, error",
    [
        (lambda path: write_jsonl(path, _records_then_failure()), RuntimeError),
        (lambda path: atomic_write_bytes(path, "not bytes"), TypeError),
    ],
    ids=["records that raise", "a value that is not bytes"],
)
def test_a_failed_write_over_a_file_keeps_its_old_bytes_and_leaves_no_temp_file(tmp_path, write, error):
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(error):
        write(path)
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_atomic_write_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    umask = os.umask(0o027)
    try:
        def refuse(mask):
            raise AssertionError("os.umask called: it changes the umask of every thread")

        monkeypatch.setattr(os, "umask", refuse)
        atomic_write_bytes(tmp_path / "out.bin", b"payload")
    finally:
        monkeypatch.undo()
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "out.bin").stat().st_mode) == 0o666 & ~0o027


def _report_lines(tmp_path) -> list[str]:
    rows = [MetricRow("baseline", 0.0, 0.5, 0.8, 0.4, 0.1, None), MetricRow("high", 0.6, 0.4, 0.3, 0.9, 0.7, 0.5)]
    (path,) = emit_report(SweepReport("cafe01234567", rows, sweep_flags(rows)), "jsonl", tmp_path, {"seed": 7})
    return path.read_text().splitlines()


@pytest.mark.parametrize(
    "defect, message",
    [
        ("no sweep record", "expected one sweep record, found 0"),
        ("no flags record", "expected one flags record, found 0"),
        ("two sweep records", "expected one sweep record, found 2"),
        ("two flags records", "expected one flags record, found 2"),
        ("flags that disagree with the rows", "the flags record .* disagrees with the rows'"),
    ],
)
def test_report_reader_requires_one_sweep_and_one_agreeing_flags_record(tmp_path, defect, message):
    header, sweep, *rows, flags = _report_lines(tmp_path)
    lines = {
        "no sweep record": [header, *rows, flags],
        "no flags record": [header, sweep, *rows],
        "two sweep records": [header, sweep, *rows, flags, sweep],
        "two flags records": [header, sweep, *rows, flags, flags],
        "flags that disagree with the rows": [header, sweep, *rows, flags.replace('"inverted_u": false', '"inverted_u": true')],
    }[defect]
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=f"{path}: {message}"):
        parse_report_jsonl(path)


def _replace_first(node, field: str, value) -> bool:
    """Set the first *field* found in the JSON value *node*, depth first, to *value*; whether one was found."""
    if isinstance(node, dict):
        if field in node:
            node[field] = value
            return True
        node = list(node.values())
    return isinstance(node, list) and any(_replace_first(child, field, value) for child in node)


@pytest.mark.parametrize("value", ["abc def", [1, 2, 3], {"a": "b"}], ids=["a string", "numbers", "an object"])
@pytest.mark.parametrize(
    "kind, field",
    [
        ("chunks", "tokens"),
        ("chunks", "heading_path"),
        ("enriched", "tokens"),
        *[("corpus", f) for f in ("title", "heading_path", "body", "key_phrase", "statement", "text", "gold_chunk_ids")],
    ],
)
def test_a_field_that_is_not_an_array_of_strings_names_its_line_and_field(tmp_path, small_corpus, kind, field, value):
    path = tmp_path / f"{kind}.jsonl"
    _write(kind, path, small_corpus)
    lines = path.read_text().splitlines()
    lineno = 0
    for lineno, line in enumerate(lines[1:], start=2):  # after the run_config line
        rec = json.loads(line)
        if _replace_first(rec, field, value):
            lines[lineno - 1] = json.dumps(rec)
            break
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: line {lineno}: bad record (ValueError: {field}: expected a JSON array of strings)"
    with pytest.raises(CorpusFormatError, match=re.escape(message)):
        _READERS[kind](path)


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("doc_id", 5, "string"),
        ("typology", ["normative"], "string"),
        ("home_section", "0", "integer"),
        ("home_section", False, "integer"),
        ("query_id", None, "string"),  # in the query block
    ],
)
def test_a_corpus_field_of_the_wrong_json_type_fails_chunk_naming_its_line_and_field(
    tmp_path, capsys, small_corpus, field, value, kind
):
    path = tmp_path / "corpus.jsonl"
    _write("corpus", path, small_corpus)
    lines = path.read_text().splitlines()
    lineno = 0
    for lineno, line in enumerate(lines[1:], start=2):  # after the run_config line
        rec = json.loads(line)
        if _replace_first(rec, field, value):
            lines[lineno - 1] = json.dumps(rec)
            break
    path.write_text("\n".join(lines) + "\n")
    assert main(["chunk", "--corpus", str(path), "--out", str(tmp_path / "chunks.jsonl")]) == EXIT_FORMAT
    message = f"{path}: line {lineno}: bad record (ValueError: {field}: expected a JSON {kind})"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "chunks.jsonl").exists()


def _replace_in_file(path, field: str, value) -> int:
    """Set the first *field* of the JSONL file *path*, after its run_config line, to *value*; its line number."""
    lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines[1:], start=2):
        rec = json.loads(line)
        if _replace_first(rec, field, value):
            lines[lineno - 1] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n")
            return lineno
    raise AssertionError(f"no {field} in {path}")


@pytest.mark.parametrize("value", [{}, "", [1], [["a"]]], ids=["an object", "a string", "numbers", "arrays"])
@pytest.mark.parametrize("field", ["sections", "facts", "queries"])
def test_a_corpus_field_that_is_not_an_array_of_objects_fails_chunk_naming_its_line_and_field(
    tmp_path, capsys, small_corpus, field, value
):
    path = tmp_path / "corpus.jsonl"
    _write("corpus", path, small_corpus)
    lineno = _replace_in_file(path, field, value)
    assert main(["chunk", "--corpus", str(path), "--out", str(tmp_path / "chunks.jsonl")]) == EXIT_FORMAT
    message = f"{path}: line {lineno}: bad record (ValueError: {field}: expected a JSON array of objects)"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "chunks.jsonl").exists()


def _three_row_report(path) -> None:
    """A sweep.jsonl whose rows give an inverted U and a crossing at mean ratio 0.6."""
    rows = [
        MetricRow("baseline", 0.0, 0.3, 0.8, 0.4, 0.1, None),
        MetricRow("medium", 0.3, 0.5, 0.6, 0.5, 0.4, 0.2),
        MetricRow("high", 0.6, 0.4, 0.3, 0.9, 0.7, 0.5),
    ]
    assert sweep_flags(rows) == SweepFlags(True, 0.6)
    (written,) = emit_report(SweepReport("cafe01234567", rows, sweep_flags(rows)), "jsonl", path.parent, {"seed": 7})
    os.replace(written, path)


@pytest.mark.parametrize(
    "kind, field, value, message",
    [
        ("enriched", "cir", "0.3", "cir: expected a JSON number"),
        ("enriched", "cir", True, "cir: expected a JSON number"),
        ("enriched", "strategy", 5, "unknown strategy 5"),
        ("enriched", "strategy", "nonsense", "unknown strategy 'nonsense'"),
        ("report", "ndcg10", "0.5", "ndcg10: expected a JSON number"),
        ("report", "homogenization", True, "homogenization: expected a JSON number"),
        ("report", "wrong_section_share", "0.5", "wrong_section_share: expected a JSON number or null"),
        ("report", "config_digest", 5, "config_digest: expected a JSON string"),
        ("report", "inverted_u", "yes", "inverted_u: expected a JSON boolean"),
        ("report", "curve_cross_cir", "0.6", "curve_cross_cir: expected a JSON number or null"),
    ],
)
def test_an_enriched_or_report_field_of_the_wrong_json_type_fails_naming_its_line_and_field(
    tmp_path, capsys, small_corpus, kind, field, value, message
):
    path, out = tmp_path / f"{kind}.jsonl", tmp_path / "out"
    if kind == "enriched":
        _write(kind, path, small_corpus)
    else:
        _three_row_report(path)
    lineno = _replace_in_file(path, field, value)
    argv = {
        "enriched": ["embed", "--enriched", str(path), "--out", str(out)],
        "report": ["report", "--sweep", str(path), "--format", "csv", "--out-dir", str(out)],
    }[kind]
    assert main(argv) == EXIT_FORMAT
    assert f"{path}: line {lineno}: bad record (ValueError: {message})" in capsys.readouterr().err
    assert not out.exists()


_NOT_JSON = [(float("nan"), "NaN"), (float("inf"), "Infinity"), (float("-inf"), "-Infinity")]


@pytest.mark.parametrize("value, name", _NOT_JSON, ids=[name for _, name in _NOT_JSON])
@pytest.mark.parametrize("kind, field", [("enriched", "cir"), ("report", "homogenization"), ("chunks header", "t_max")])
def test_a_constant_that_is_not_json_fails_naming_its_line(tmp_path, capsys, small_corpus, kind, field, value, name):
    path, out = tmp_path / f"{kind.split()[0]}.jsonl", tmp_path / "out"
    if kind == "report":
        _three_row_report(path)
        lineno = _replace_in_file(path, field, value)  # json.dumps writes the constant by name
        argv = ["report", "--sweep", str(path), "--format", "csv", "--out-dir", str(out)]
    elif kind == "enriched":
        _write(kind, path, small_corpus)
        lineno = _replace_in_file(path, field, value)
        argv = ["embed", "--enriched", str(path), "--out", str(out)]
    else:
        corpus = tmp_path / "corpus.jsonl"
        _write("corpus", corpus, small_corpus)
        _write("chunks", path, small_corpus)
        header, rest = path.read_text().split("\n", 1)
        path.write_text(json.dumps({**json.loads(header), field: value}) + "\n" + rest)
        lineno = 1
        argv = ["inject", "--corpus", str(corpus), "--chunks", str(path), "--strategy", "low", "--out", str(out)]
    assert name in path.read_text()
    assert main(argv) == EXIT_FORMAT
    assert f"error: {path}: line {lineno}: {name} is not JSON\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [value for value, _ in _NOT_JSON], ids=[name for _, name in _NOT_JSON])
@pytest.mark.parametrize("where", ["header", "record"])
def test_write_jsonl_refuses_a_float_that_is_not_finite_and_writes_nothing(tmp_path, value, where):
    header, record = ({"t_max": value}, {"cir": 0.5}) if where == "header" else ({"t_max": 0.5}, {"cir": value})
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_jsonl(tmp_path / "out.jsonl", [{"type": "chunk"}, record], header=header)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", KINDS)
def test_a_run_config_record_after_the_first_line_is_a_format_error(tmp_path, small_corpus, kind):
    path = tmp_path / f"{kind}.jsonl"
    _write(kind, path, small_corpus)
    header = '{"type": "run_config", "seed": 7}'
    lines = [line for line in path.read_text().splitlines() if "run_config" not in line]  # the report has none
    path.write_text("\n".join(["", header, *lines]) + "\n")  # led by a blank line: still the first record
    _READERS[kind](path)
    path.write_text("\n".join([header, *lines[:2], header, *lines[2:]]) + "\n")
    with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: line 4: a run_config record belongs on the first")):
        _READERS[kind](path)


def test_a_report_number_written_as_an_integer_reads_as_its_float(tmp_path):
    path = tmp_path / "sweep.jsonl"
    _three_row_report(path)
    assert main(["report", "--sweep", str(path), "--format", "csv", "--out-dir", str(tmp_path / "float")]) == EXIT_OK
    assert '"mean_cir": 0.0,' in path.read_text()
    _replace_in_file(path, "mean_cir", 0)
    assert '"mean_cir": 0,' in path.read_text()
    assert main(["report", "--sweep", str(path), "--format", "csv", "--out-dir", str(tmp_path / "int")]) == EXIT_OK
    assert (tmp_path / "int" / "sweep.csv").read_bytes() == (tmp_path / "float" / "sweep.csv").read_bytes()
