"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": ..., "value": N, "unit": "sec", "queries": {...},
   "sf": ..., "num_cpus": N}

Modes:
  python bench.py             # min-of-N headline: $GRAFT_BENCH_RUNS
                              # (default 2) fresh-process runs at
                              # $RAY_GRAFT_CPUS (default 32); the
                              # fastest run's total is the headline
                              # (contention noise is one-sided, so
                              # min is the comparable statistic) and
                              # per-query minima sit in "query_mins"
  python bench.py --single    # one timed pass in this process (the
                              # worker the other modes spawn)
  python bench.py --scaling   # same job at 8 then 32 cpus in fresh
                              # subprocesses; reports throughputs +
                              # scaling efficiency (N→4N proxy)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# corpus multiplier for the KG headline: the sf tables are small enough
# that Ray's fixed per-stage costs would otherwise dominate and hide
# real behavior. Normal mode: 200x sf0.1 = 1M synthesized pages.
# --scaling uses 1000x (5M pages) so per-CPU work dominates stage
# latency at both parallelism levels.
KG_REPEAT = int(os.environ.get("GRAFT_KG_REPEAT", "200"))
KG_BATCH = int(os.environ.get("GRAFT_KG_BATCH", "4096"))
# 2000 = 10M pages: the round-5 extraction speedup moved the
# fixed-cost crossover — at 5M the 32-cpu leg now finishes in ~35 s
# and startup/scheduling fixed costs read as false inefficiency (0.73
# at 5M vs 0.82 at 10M on the same code, both measured 2026-08-19).
# The representative scale for a 100-TB design is the compute-bound
# regime, so the default follows the code's speed.
SCALING_REPEAT = int(os.environ.get("GRAFT_SCALING_REPEAT", "2000"))

# Headline set: the KG flagship plus the heavy non-KG pipelines.
# GRAFT_BENCH_QUERIES (comma-separated) narrows the set — the scaling
# mode uses it to time just the flagship at both parallelism levels.
BENCH_QUERIES = [
    "kg_triples",
    "doc_minhash_neardup",
    "doc_dedup_exact",
    "knn_bruteforce",
    "embedding_neardup",
    "lineitem_agg",
    "customer_revenue_by_nation",
    "events_daily",
]
if os.environ.get("GRAFT_BENCH_QUERIES"):
    BENCH_QUERIES = os.environ["GRAFT_BENCH_QUERIES"].split(",")


def _consume(res) -> int:
    """Force full execution; return row count."""
    if hasattr(res, "count"):
        return res.count()
    return len(res)


def _corpus_dir(sf_dir: str, repeat: int) -> str:
    tag = os.path.basename(sf_dir.rstrip("/"))
    return f"/tmp/graft_pages_{tag}_x{repeat}"


def ensure_corpus(sf_dir: str, repeat: int) -> str:
    """Materialize the synthetic pages corpus to Parquet once (cached
    across bench runs) so the measured pipeline is read_parquet → KG,
    not the page generator."""
    out = _corpus_dir(sf_dir, repeat)
    marker = os.path.join(out, "_SUCCESS")
    if os.path.exists(marker):
        return out
    from hinbox_ray.sources.pages import pages_dataset

    tmp = out + ".tmp"
    import shutil

    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    pages_dataset(sf_dir, repeat=repeat).write_parquet(
        tmp, compression="zstd", row_group_size=20_000
    )
    os.replace(tmp, out)
    with open(marker, "w") as f:
        f.write("ok")
    return out


def run_bench(sf_dir: str, num_cpus: int) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entrymod

    import ray.data as rd

    from hinbox_ray.pipelines.kg import build_kg

    corpus = ensure_corpus(sf_dir, KG_REPEAT)

    import pyarrow.parquet as _pq

    n_pages_total = _pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")
    ).num_rows * KG_REPEAT
    # above this page count the materialized mention boundary pins
    # enough plasma to force spill (round-4 BASELINE decomposition at
    # 20M pages) — switch to the zstd parquet checkpoint instead
    ckpt_pages = int(os.environ.get("GRAFT_KG_CHECKPOINT_PAGES", "12000000"))

    def kg_from_corpus(_sd):
        # prune at the read: the fused extractor re-derives text from
        # html, so the corpus' reference text column (kept for the
        # byte-identity invariant) would be dead bytes in every block
        from hinbox_ray.sources.reader import read_parquet_clean

        pages = read_parquet_clean(
            corpus,
            columns=["url", "warc_ts", "html", "lang"],
            override_num_blocks=max(64, num_cpus * 4),
        )
        # batch_size: fewer object-store round trips per actor — 2048
        # measured 10.8 → 9.5 s on the extraction stage at 1M pages,
        # 4096 measured 160 → 131-148 s at 20M pages (8192 regresses
        # to 246 s: batch × actor heap starts spilling). Sized for
        # ~2-5 KB synthetic docs — at 100 TB with bigger docs keep
        # batch × doc-size within the actor heap (the library default
        # stays small for that reason).
        return build_kg(
            pages,
            batch_size=KG_BATCH,
            checkpoint_mentions=n_pages_total >= ckpt_pages,
            checkpoint_dir="/tmp/graft_kg_ckpt",
        ).triples

    qs = dict(entrymod.queries())
    qs["kg_triples"] = kg_from_corpus
    timings: dict[str, float] = {}
    rows: dict[str, int] = {}
    total = 0.0
    for name in BENCH_QUERIES:
        t0 = time.perf_counter()
        n = _consume(qs[name](sf_dir))
        dt = round(time.perf_counter() - t0, 3)
        timings[name] = dt
        rows[name] = n
        total += dt

    # docs/sec for the flagship (pages corpus = documents.parquet rows)
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows * KG_REPEAT
    out = {
        "metric": "headline pipelines wall-time (kg_triples + dedup + knn + relational)",
        "value": round(total, 3),
        "unit": "sec",
        "queries": timings,
        "rows": rows,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "kg_docs_per_sec": round(n_docs / timings["kg_triples"], 2)
        if timings.get("kg_triples")
        else None,
    }
    return out


def _settle() -> None:
    # a leg's raylet occasionally outlives its driver; a stray
    # worker from the previous leg contaminates the next timing
    # (measured: a 90 s 32-cpu leg read 162 s with leftovers)
    subprocess.run(["ray", "stop", "--force"], capture_output=True, text=True)
    time.sleep(3.0)


def _run_single_subprocess(sf_dir: str, num_cpus: int, repeat: int) -> dict:
    """One fresh-process `--single` pass; returns its parsed JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--single"],
        env={
            **os.environ,
            "GRAFT_SF_DIR": sf_dir,
            "RAY_GRAFT_CPUS": str(num_cpus),
            "GRAFT_KG_REPEAT": str(repeat),
        },
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.abspath(__file__)),
    )
    line = proc.stdout.strip().splitlines()[-1]
    return json.loads(line)


def run_min_of_n(sf_dir: str, num_cpus: int) -> dict:
    """Min-of-N headline: N fresh-process passes with `ray stop`
    hygiene between. ``value``, ``queries`` and ``kg_docs_per_sec`` are
    those of the fastest pass, so the headline is a total one run
    achieved; each query's minimum over the passes is kept apart under
    ``query_mins`` (their sum is a composite no single run reached)."""
    runs = int(os.environ.get("GRAFT_BENCH_RUNS", "2"))
    outs = []
    for _ in range(runs):
        _settle()
        outs.append(_run_single_subprocess(sf_dir, num_cpus, KG_REPEAT))
    rows = outs[0]["rows"]
    for o in outs[1:]:
        assert o["rows"] == rows, f"row-count drift across runs: {o['rows']} vs {rows}"
    out = dict(min(outs, key=lambda o: o["value"]))
    out["query_mins"] = {
        q: min(o["queries"][q] for o in outs) for q in outs[0]["queries"]
    }
    out["runs"] = runs
    out["per_run_totals"] = [o["value"] for o in outs]
    return out


def run_scaling(sf_dir: str) -> dict:
    """Same job at two parallelism levels in fresh processes (cluster-size
    proxy per BASELINE.md): efficiency = (tp_hi / tp_lo) / (hi / lo)."""
    # GRAFT_SCALING_CPUS="lo,hi" picks the parallelism pair — 4,16
    # gives an N→4N reading where neither leg saturates the single
    # box's memory system (extraction throughput flat-lines at ~16
    # actors, see BASELINE.md round-5 decomposition), which is the
    # honest multi-node proxy at corpus sizes where 32 cpus is
    # membw-bound rather than cpu-bound.
    lo, hi = (
        int(x) for x in os.environ.get("GRAFT_SCALING_CPUS", "8,32").split(",")
    )
    # generate the shared corpus up front at full parallelism so neither
    # timed leg pays for it
    gen = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; sys.path.insert(0, %r); import ray; "
            "ray.init(address='local', num_cpus=%d, include_dashboard=False, logging_level='ERROR'); "
            "import bench; bench.ensure_corpus(%r, %d); ray.shutdown()"
            % (os.path.dirname(os.path.abspath(__file__)), hi, sf_dir, SCALING_REPEAT),
        ],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.abspath(__file__)),
    )

    runs_per_leg = int(os.environ.get("GRAFT_SCALING_RUNS", "2"))
    results = {}
    for n in (lo, hi):
        best = None
        for _ in range(runs_per_leg):
            _settle()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--single"],
                env={
                    **os.environ,
                    "GRAFT_SF_DIR": sf_dir,
                    "RAY_GRAFT_CPUS": str(n),
                    "GRAFT_BENCH_QUERIES": os.environ.get(
                        "GRAFT_BENCH_QUERIES", "kg_triples"
                    ),
                    "GRAFT_KG_REPEAT": str(SCALING_REPEAT),
                },
                capture_output=True,
                text=True,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            )
            line = proc.stdout.strip().splitlines()[-1]
            r = json.loads(line)
            # min wall-time per leg: single-node timing noise is
            # one-sided (contention only ever slows a run down)
            if best is None or r["value"] < best["value"]:
                best = r
        results[n] = best
    tp = {n: 1.0 / results[n]["value"] for n in (lo, hi)}
    eff = (tp[hi] / tp[lo]) / (hi / lo)
    return {
        "metric": "scaling efficiency (proxy: num_cpus %d vs %d, fresh sessions)" % (lo, hi),
        "value": round(eff, 4),
        "unit": "efficiency",
        "low": {"num_cpus": lo, "sec": results[lo]["value"], "queries": results[lo]["queries"]},
        "high": {"num_cpus": hi, "sec": results[hi]["value"], "queries": results[hi]["queries"]},
        "sf": sf_dir,
        "num_cpus": hi,
    }


def main() -> None:
    if "--scaling" in sys.argv:
        out = run_scaling(SF_DIR)
    elif "--single" in sys.argv:
        out = run_bench(SF_DIR, NUM_CPUS)
    else:
        out = run_min_of_n(SF_DIR, NUM_CPUS)
    print(json.dumps(out))
    import ray

    if ray.is_initialized():
        ray.shutdown()


if __name__ == "__main__":
    main()
