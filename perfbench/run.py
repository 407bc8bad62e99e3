"""Benchmark of the cirbench package: the strategy sweep, a query loop, the CLI chain.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-ref --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py            # all three workloads, seed 42

Every measured process is a fresh interpreter: the package keeps a
process-wide token-hash cache, so a second sweep in one process would run
warm and measure a different program.

* ``sweep-ref``: one ``run_sweep`` call on the reference corpus (50 docs,
  200 queries, dim 256, chunk target 250, six strategies, t_max 0.35, hash
  seed forked from the corpus seed as the CLI forks it), in new processes
  until ``--seconds`` of sweeping is done and at least six sweeps ran.
* ``query-10x``: two processes each build a ddai index over the 10x corpus
  (500 docs, 2,000 queries), then run a closed loop with one client: embed
  a query, ``search(index, q, 100)``, next query, for half of ``--seconds``
  and at least one pass over the queries.
* ``cli-ref``: six rounds. In each, one process runs gen -> chunk -> inject
  ddai -> embed through ``cirbench.cli.main`` on the reference corpus, then
  a fresh process calls ``query --k 10`` over the corpus's 200 query texts
  for a sixth of ``--seconds`` and at least one pass; each call loads the
  index file. The rounds spread the query calls over the whole run. At 10x
  the calls of one process sped up by a third over their first 30 s and a
  chain took 15 s, so a run could not hold enough comparable samples.

End-to-end metrics (``--trace 0``, last stdout line):

* ``setup_s``: process start to the first timed operation (imports, corpus
  generation, index build where the workload has them; for cli-ref the
  gen -> embed chain that writes the files the query calls read); median
  of the run's processes.
* ``job_s``: the workload's batch job: the sweep, the time for the 2,000
  queries of query-10x, the time for the 200 query calls of cli-ref.
* ``op_p50_ms``: the median latency of one operation: a sweep, a query, a
  ``query`` call.
* ``peak_rss_mb``: ``ru_maxrss`` of the workload's processes; median.

Other tenants of a shared machine slow it down by up to half, for seconds
and sometimes for a whole run, and that noise only ever adds time. On
sweep-ref ``job_s`` and ``op_p50_ms`` are the median of the run's sweeps:
a sweep lasts seconds, so each one averages over fast and slow spells, and
the fastest of six moved more from run to run than their median did. The
loops' operations are short, so there the two metrics take the best of the
run's samples: the lowest median (and the shortest total, scaled to a full
pass) among windows of ``WINDOW_OPS`` consecutive operations, about a
quarter of a second each, which skips the slow spells. A chain of cli-ref
varied from 1.2 to 2.1 s within one run, too much for a gated spread, so
it counts as set-up, whose median is only compared across runs. The plain
medians over every sample and the 95th percentile are printed in the
readable report above the last line, under the names sweep_s, pipeline_s,
query_p50_ms and query_p95_ms, with their units and sample counts.

With ``--trace 1`` the workload runs once more, in one process per kind,
with spans around the package's public functions (see tracing.py), and
the last line carries every per-layer number BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

REFERENCE_SCALE = {"docs": 50, "queries": 200}
SCALES = {
    "sweep-ref": REFERENCE_SCALE,
    "query-10x": {"docs": 500, "queries": 2000},
    "cli-ref": {"docs": 50, "queries": 200, "cli_queries": 200},
}
# Samples per untraced run: sweeps (at least), query-10x processes, and
# cli-ref rounds of one chain process and one query process.
MIN_SWEEPS = 6
QUERY_PROCESSES = 2
CLI_ROUNDS = 6
# Operations per window of a closed loop (see _loop_result): about a quarter
# of a second on the reference machine.
WINDOW_OPS = {"query-10x": 200, "cli-ref": 50}
CHILD_TIMEOUT_S = 160

UNITS = {
    "job_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "query_p50_ms": "ms", "query_p95_ms": "ms",
    "error_rate": "share", "trace.overhead_share": "share", "embedding.tokens_per_s": "1/s",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts one fresh interpreter per measured process and returns its record."""

    def __init__(self, work: str):
        self.work = work
        self.spawned = 0

    def spawn(self, function: str, **kwargs) -> dict:
        """Run ``workloads.<function>(t0=..., **kwargs)`` in a new interpreter."""
        self.spawned += 1
        result = os.path.join(self.work, f"child-{self.spawned}.json")
        spec = {"function": function, "kwargs": kwargs, "result": result, "t0": time.time()}
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--child", json.dumps(spec)]
        try:
            proc = subprocess.run(argv, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{function} process exceeded {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"{function} process exited {proc.returncode}")
        with open(result, encoding="utf-8") as handle:
            record = json.load(handle)
        os.remove(result)
        return record

    def spans(self, workload: str, function: str) -> str:
        return os.path.join(OUT, f"spans-{workload}-{function}.jsonl")


def child_main(spec: dict) -> None:
    sys.path.insert(0, SRC)
    import workloads

    record = getattr(workloads, spec["function"])(t0=spec["t0"], **spec["kwargs"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def recorded_sweep(seed: int, scale: dict) -> dict | None:
    """Rows recorded from the package at the reference scale, if this seed has them."""
    if scale != REFERENCE_SCALE:
        return None
    with open(os.path.join(HERE, "reference_rows.json"), encoding="utf-8") as handle:
        return json.load(handle)["seeds"].get(str(seed))


def oracle_sweep(seed: int, scale: dict) -> dict:
    """Rows recomputed by the benchmark's own implementation of the sweep."""
    import workloads
    from cirbench import corpus, injection

    docs, queries = corpus.generate_corpus(workloads.corpus_config(seed, scale["docs"], scale["queries"]))
    return oracle.sweep_rows(docs, queries, injection.all_strategies(workloads.T_MAX), workloads.DIM,
                             oracle.cli_hash_seed(seed), workloads.CHUNK_TARGET)


def _stat(values: list[float]) -> tuple[float, int]:
    return statistics.median(values), len(values)


def run_sweep_ref(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    scale = SCALES["sweep-ref"]
    args = dict(seed=seed, docs=scale["docs"], queries=scale["queries"],
                spans_path=runner.spans("sweep-ref", "sweep"))
    plain = []
    while len(plain) < (1 if trace else MIN_SWEEPS) or (not trace and sum(r["sweep_s"] for r in plain) < seconds):
        plain.append(runner.spawn("sweep", trace=False, **args))
    records = plain + ([runner.spawn("sweep", trace=True, **args)] if trace else [])
    expected = recorded_sweep(seed, scale) or oracle_sweep(seed, scale)
    sweep_s = [r["sweep_s"] for r in plain]
    out = {
        "attempted": len(records) * (len(expected["rows"]) + 1),
        "failed": sum(oracle.sweep_mismatches(r["sweep"], expected) for r in records),
        "readable": {
            "setup_s": _stat([r["setup_s"] for r in plain]),
            "sweep_s": _stat(sweep_s),
            "peak_rss_mb": _stat([r["peak_rss_mb"] for r in plain]),
        },
        "e2e": {"job_s": statistics.median(sweep_s), "op_p50_ms": statistics.median(sweep_s) * 1e3},
    }
    if trace:
        out["traced"] = records[-1]
        out["traced"]["overhead_share"] = records[-1]["sweep_s"] / statistics.median(sweep_s) - 1.0
    return out


def run_query_10x(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    scale = SCALES["query-10x"]
    n = 1 if trace else QUERY_PROCESSES
    mains = [runner.spawn("query", seed=seed, seconds=seconds / n, trace=trace, check=i == 0,
                          spans_path=runner.spans("query-10x", "query"), **scale) for i in range(n)]
    out = _loop_result(mains, mains, {}, scale["queries"], WINDOW_OPS["query-10x"])
    out["failed"] += _id_mismatches(mains)
    return out


def run_cli_ref(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds of one chain process, then one fresh process of query calls over
    the files it wrote; the rounds spread the query calls over the whole run.

    Only the first query process runs the oracle; the others must print the
    same ids, since every chain writes the same files.
    """
    scale = SCALES["cli-ref"]
    rounds = 1 if trace else CLI_ROUNDS
    work = os.path.join(runner.work, "cli")
    pipelines, queries = [], []
    for i in range(rounds):
        pipelines.append(runner.spawn("cli_pipeline", seed=seed, docs=scale["docs"], queries=scale["queries"],
                                      trace=trace, work=work, spans_path=runner.spans("cli-ref", "cli_pipeline")))
        queries.append(runner.spawn("cli_queries", seed=seed, cli_queries=scale["cli_queries"],
                                    seconds=seconds / rounds, trace=trace, check=i == 0, work=work,
                                    spans_path=runner.spans("cli-ref", "cli_queries")))
    pipeline_s = [p["pipeline_s"] for p in pipelines]
    rss = max(_stat([p["peak_rss_mb"] for p in pipelines]), _stat([q["peak_rss_mb"] for q in queries]))
    setups = [{"setup_s": p["setup_s"] + p["pipeline_s"]} for p in pipelines]
    out = _loop_result(queries, setups, {"pipeline_s": _stat(pipeline_s)}, scale["cli_queries"],
                       WINDOW_OPS["cli-ref"])
    out["attempted"] += sum(p["attempted"] for p in pipelines)
    out["failed"] += _id_mismatches(queries)
    out["readable"].update(peak_rss_mb=rss,
                           **{"cli.default_seed_mismatch": _stat([q["default_seed_mismatch"] for q in queries])})
    if trace:
        out["traced"] = _merge_traced(pipelines[0], queries[0])
    return out


def _merge_traced(*records: dict) -> dict:
    """One traced record from several processes: layer numbers and phase times add up."""
    merged = dict(records[-1])
    layers: dict = {}
    for record in records:
        for name, value in record["layers"].items():
            layers[name] = layers.get(name, 0) + value
    embed_s = layers["embedding.embed_s"]
    layers["embedding.tokens_per_s"] = layers["embedding.tokens"] / embed_s if embed_s else 0.0
    merged["layers"] = layers
    merged["phases"] = {p: v for r in records for p, v in r["phases"].items()}
    return merged


def _id_mismatches(records: list[dict]) -> int:
    """Queries whose ids differ from the first process's; only that one met the oracle."""
    return sum(a != b for r in records[1:] for a, b in zip(r["ids"], records[0]["ids"]))


def _loop_result(mains: list[dict], setups: list[dict], readable: dict, pass_len: int, width: int) -> dict:
    """Result of processes that end in a closed loop over *pass_len* queries,
    cut into windows of *width* consecutive operations."""
    lat = [x for m in mains for x in m["latencies"]]
    width = min(width, pass_len)
    windows = [m["latencies"][i : i + width] for m in mains for i in range(0, len(m["latencies"]) - width + 1, width)]
    out = {
        "attempted": sum(m["attempted"] for m in mains),
        "failed": sum(m["failed"] for m in mains),
        "readable": {
            "setup_s": _stat([r["setup_s"] for r in setups]),
            **readable,
            "query_p50_ms": (statistics.median(lat) * 1e3, len(lat)),
            "query_p95_ms": (statistics.quantiles(lat, n=20, method="inclusive")[18] * 1e3, len(lat)),
            "peak_rss_mb": _stat([m["peak_rss_mb"] for m in mains]),
        },
        "e2e": {
            "job_s": min(sum(w) for w in windows) * pass_len / width,
            "op_p50_ms": min(statistics.median(w) for w in windows) * 1e3,
        },
    }
    if mains[0].get("layers"):
        out["traced"] = mains[0]
    return out


RUNNERS = {"sweep-ref": run_sweep_ref, "query-10x": run_query_10x, "cli-ref": run_cli_ref}


def _benchmark_metrics(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _per_layer(traced: dict) -> dict:
    """Every per-layer number of a traced record, plus the trace's own overhead."""
    return {
        **traced["layers"],
        "trace.overhead_share": traced["overhead_share"],
        "cli.default_seed_mismatch": traced.get("default_seed_mismatch", 0),
        "cli.stage_failures": traced.get("calls_failed", 0),
    }


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _blas_threads() -> int | str:
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _git_sha() -> str:
    """HEAD's commit; "unknown" outside a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the record printed as the last stdout line."""
    work = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    try:
        result = RUNNERS[workload](Runner(work), seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    readable = result["readable"]
    readable["error_rate"] = (result["failed"] / result["attempted"], result["attempted"])
    values = dict(result["e2e"], setup_s=readable["setup_s"][0], peak_rss_mb=readable["peak_rss_mb"][0])
    if trace:
        values = _per_layer(result["traced"])
    wanted = _benchmark_metrics("per_layer" if trace else "end_to_end")
    record = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }
    env = environment(seed)
    _print_report(workload, env, readable, values, result.get("traced"))
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as handle:
        json.dump({"workload": workload, "env": env, "readable": readable, "values": values, "record": record},
                  handle, indent=1)
    return record


def _print_report(workload: str, env: dict, readable: dict, values: dict, traced: dict | None) -> None:
    def line(text: str) -> None:
        print(f"# {workload:<10} {text}")

    line("  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, n) in readable.items():
        line(f"{name:<30} {value:>14.6g} {unit_of(name):<6} n={n}")
    for name, value in values.items():
        line(f"{name:<30} {value:>14.6g} {unit_of(name)}")
    for phase, info in (traced or {}).get("phases", {}).items():
        layers = "  ".join(f"{k}={v:.4f}" for k, v in info["layers"].items())
        line(f"phase {phase!r} self time (s): {layers}; largest layer {max(info['layers'], key=info['layers'].get)}"
             f", largest span {info['top_span']} ({info['top_span_s']:.4f} s)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*RUNNERS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child_main(json.loads(args.child))
        return 0
    if not os.path.isfile(os.path.join(SRC, "cirbench", "__init__.py")):
        print(f"error: no cirbench package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workloads = list(RUNNERS) if args.workload == "all" else [args.workload]
    try:
        records = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        print(json.dumps(records[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{w}/{k}": v for w, r in records.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
