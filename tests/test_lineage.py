"""Resume / lineage tests: partial runs resume without duplicating work."""

import json
import os
import shutil

import pytest

from hinbox_ray.sources.pages import write_pages_parquet

N = 160
SHARDS = 4


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages")
    write_pages_parquet(str(d), n=N, num_shards=SHARDS)
    return str(d)


def _triples(out_dir):
    import pyarrow.parquet as pq

    tdir = os.path.join(out_dir, "triples")
    files = [os.path.join(tdir, f) for f in os.listdir(tdir) if f.endswith(".parquet")]
    import pyarrow as pa

    t = pa.concat_tables([pq.read_table(f) for f in files])
    return sorted(
        zip(
            t.column("subj").to_pylist(),
            t.column("pred").to_pylist(),
            t.column("obj").to_pylist(),
        )
    )


def test_full_run_writes_manifests_and_triples(ray_session, corpus, tmp_path):
    from hinbox_ray.state.lineage import (
        load_manifests,
        resolve_from_checkpoint,
        run_extract_with_resume,
    )

    out = str(tmp_path / "run")
    manifests = run_extract_with_resume(corpus, out, concurrency=2, batch_size=64)
    assert len(manifests) == SHARDS
    for rec in manifests.values():
        assert rec["n_docs"] > 0
        assert os.path.isdir(rec["mentions_dir"])
        assert rec["url_min"].startswith("https://")
    res = resolve_from_checkpoint(out, with_profiles=True)
    assert res.triples.count() > 0
    assert os.path.isdir(os.path.join(out, "triples"))
    # manifests reload identically
    assert load_manifests(out).keys() == manifests.keys()
    # G1–G3 counters: merge stats + reflection summary in one doc
    with open(os.path.join(out, "merge_stats.json")) as f:
        stats = json.load(f)
    assert stats["new"] == res.entities.count()
    assert stats["n_profiles"] == res.profiles.count()
    assert stats["total_reflection_attempts"] >= stats["n_profiles"]
    assert stats["avg_reflections"] >= 1.0


def test_resume_skips_done_and_matches_fresh_run(ray_session, corpus, tmp_path):
    from hinbox_ray.state.lineage import (
        load_manifests,
        resolve_from_checkpoint,
        run_extract_with_resume,
    )

    fresh = str(tmp_path / "fresh")
    run_extract_with_resume(corpus, fresh, concurrency=2, batch_size=64)
    resolve_from_checkpoint(fresh)
    expected = _triples(fresh)

    # simulate a crash after 2 of 4 partitions: copy manifests + mentions
    # of the first two, then resume
    part = str(tmp_path / "partial")
    os.makedirs(os.path.join(part, "_lineage"))
    os.makedirs(os.path.join(part, "mentions"))
    done = sorted(load_manifests(fresh))[:2]
    for stem in done:
        rec = json.load(open(os.path.join(fresh, "_lineage", f"{stem}.json")))
        dst_mentions = os.path.join(part, "mentions", f"part-{stem}")
        shutil.copytree(rec["mentions_dir"], dst_mentions)
        rec["mentions_dir"] = dst_mentions
        with open(os.path.join(part, "_lineage", f"{stem}.json"), "w") as f:
            json.dump(rec, f)
    # leave a stale tmp dir (simulated mid-write crash) — must be ignored
    os.makedirs(os.path.join(part, "mentions", "part-zzz.tmp"))

    manifests = run_extract_with_resume(corpus, part, concurrency=2, batch_size=64)
    assert len(manifests) == SHARDS
    resolve_from_checkpoint(part)
    assert _triples(part) == expected


def test_rerun_is_noop_when_complete(ray_session, corpus, tmp_path):
    from hinbox_ray.state.lineage import run_extract_with_resume

    out = str(tmp_path / "run2")
    first = run_extract_with_resume(corpus, out, concurrency=2, batch_size=64)
    mtimes = {
        stem: os.path.getmtime(os.path.join(out, "_lineage", f"{stem}.json"))
        for stem in first
    }
    second = run_extract_with_resume(corpus, out, concurrency=2, batch_size=64)
    assert second.keys() == first.keys()
    for stem in first:
        assert (
            os.path.getmtime(os.path.join(out, "_lineage", f"{stem}.json"))
            == mtimes[stem]
        )


def test_parallel_shard_resume_overlaps_and_matches(ray_session, tmp_path):
    """≥8 shards processed concurrently: execution intervals overlap,
    manifests/outputs identical to the serial loop."""
    import time

    from hinbox_ray.sources.pages import write_pages_parquet
    from hinbox_ray.state import lineage

    pages = tmp_path / "pages8"
    write_pages_parquet(str(pages), n=160, num_shards=8)

    spans = []
    orig = lineage.extract_partition

    def timed(*a, **k):
        t0 = time.monotonic()
        rec = orig(*a, **k)
        spans.append((t0, time.monotonic()))
        return rec

    lineage.extract_partition = timed
    try:
        par = lineage.run_extract_with_resume(
            str(pages), str(tmp_path / "out_par"), concurrency=2,
            max_parallel_shards=4,
        )
    finally:
        lineage.extract_partition = orig

    assert len(par) == 8
    # overlap: some shard started before another finished
    spans.sort()
    overlapped = any(spans[i + 1][0] < spans[i][1] for i in range(len(spans) - 1))
    assert overlapped, spans

    ser = lineage.run_extract_with_resume(
        str(pages), str(tmp_path / "out_ser"), concurrency=2,
        max_parallel_shards=1,
    )
    assert set(par) == set(ser)
    for k in par:
        for field in ("n_docs", "n_mentions", "text_checksum", "n_irrelevant"):
            assert par[k][field] == ser[k][field], (k, field)


def test_resolve_from_checkpoint_sharded_layout(ray_session, corpus, tmp_path):
    """Multi-node resume path (round-2 VERDICT #9): sort_triples='sharded'
    writes triples/shard=N/ partitions, each internally sorted and
    distinct, whose union equals the global-sort run exactly — and no
    stage paid the cluster-wide sort barrier."""
    import pyarrow.parquet as pq

    from hinbox_ray.state.lineage import (
        resolve_from_checkpoint,
        run_extract_with_resume,
    )

    out_g = str(tmp_path / "global")
    out_s = str(tmp_path / "sharded")
    for out in (out_g, out_s):
        run_extract_with_resume(corpus, out, concurrency=2, batch_size=64)
    resolve_from_checkpoint(out_g)
    resolve_from_checkpoint(out_s, sort_triples="sharded")

    tdir = os.path.join(out_s, "triples")
    shard_dirs = sorted(d for d in os.listdir(tdir) if d.startswith("shard="))
    assert len(shard_dirs) > 1
    seen = []
    for d in shard_dirs:
        for f in sorted(os.listdir(os.path.join(tdir, d))):
            t = pq.read_table(os.path.join(tdir, d, f))
            rows = list(
                zip(
                    t.column("subj").to_pylist(),
                    t.column("pred").to_pylist(),
                    t.column("obj").to_pylist(),
                )
            )
            assert rows == sorted(set(rows))  # per-shard sorted + distinct
            seen.extend(rows)
    assert sorted(seen) == _triples(out_g)  # same graph, no global barrier


def test_sharded_sorted_triples_matches_global_sort(ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd

    from hinbox_ray.pipelines.kg import build_kg, sharded_sorted_triples
    from hinbox_ray.sources.pages import generate_pages_table

    res = build_kg(
        rd.from_arrow(generate_pages_table(150)), concurrency=2,
    )
    sharded = sharded_sorted_triples(res.triples, num_shards=8).to_pandas()
    global_sorted = (
        res.triples.to_pandas()
        .sort_values(["subj", "pred", "obj"])
        .reset_index(drop=True)
    )
    # same multiset of triples
    a = sharded[["subj", "pred", "obj"]].sort_values(
        ["subj", "pred", "obj"]
    ).reset_index(drop=True)
    assert a.equals(global_sorted)
    # each shard internally sorted; a subject never spans two shards
    for _, g in sharded.groupby("shard"):
        assert g[["subj", "pred", "obj"]].reset_index(drop=True).equals(
            g.sort_values(["subj", "pred", "obj"])[["subj", "pred", "obj"]]
            .reset_index(drop=True)
        )
    assert (sharded.groupby("subj")["shard"].nunique() == 1).all()


def test_validate_shards_on_resumed_sharded_run(ray_session, corpus, tmp_path):
    """r3 VERDICT #8: the shard audit passes on a genuine resumed sharded
    run and catches sort / duplicate / misassignment corruption."""
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
    import pyarrow as pa
    import pyarrow.parquet as pq
    from validate_shards import validate_shard_dir

    from hinbox_ray.state.lineage import (
        resolve_from_checkpoint,
        run_extract_with_resume,
    )

    out = str(tmp_path / "sharded_run")
    # run, then resume (no-op second pass — the audit's target scenario)
    run_extract_with_resume(corpus, out, concurrency=2, batch_size=64)
    again = run_extract_with_resume(corpus, out, concurrency=2, batch_size=64)
    assert len(again) == SHARDS
    resolve_from_checkpoint(out, sort_triples="sharded")

    tdir = os.path.join(out, "triples")
    rep = validate_shard_dir(tdir)
    assert rep["ok"], rep["errors"]
    assert rep["rows"] > 0 and rep["shards"] > 1

    # corrupt one shard: append a row whose subj belongs elsewhere
    some = sorted(d for d in os.listdir(tdir) if d.startswith("shard="))[0]
    f = [
        os.path.join(tdir, some, x)
        for x in os.listdir(os.path.join(tdir, some))
        if x.endswith(".parquet")
    ][0]
    t = pq.read_table(f)
    bad = pa.table(
        {
            "subj": pa.array(["zzz-foreign-subject"], type=pa.string()),
            "pred": pa.array(["name"], type=pa.string()),
            "obj": pa.array(["x"], type=pa.string()),
        }
    )
    pq.write_table(pa.concat_tables([t.select(["subj", "pred", "obj"]), bad]), f)
    rep2 = validate_shard_dir(tdir)
    assert not rep2["ok"]
    assert any(
        "disjointness" in e or "not sorted" in e for e in rep2["errors"]
    ), rep2["errors"]


@pytest.mark.parametrize("sort_triples", ["global", "sharded"])
def test_resolve_zero_mention_checkpoint(ray_session, tmp_path, sort_triples):
    """A checkpoint holding only an empty mentions file resolves to zero
    triples and zero merge stats, in either layout, and leaves a
    readable triples directory."""
    import pyarrow.parquet as pq

    from hinbox_ray.stages.mentions import MENTIONS_SCHEMA
    from hinbox_ray.state.lineage import resolve_from_checkpoint

    out = str(tmp_path / "run")
    part = os.path.join(out, "mentions", "part-a")
    os.makedirs(part)
    pq.write_table(MENTIONS_SCHEMA.empty_table(), os.path.join(part, "m.parquet"))

    res = resolve_from_checkpoint(
        out, with_profiles=True, sort_triples=sort_triples
    )
    assert res.triples.count() == 0
    assert _triples(out) == []
    with open(os.path.join(out, "merge_stats.json")) as f:
        stats = json.load(f)
    assert stats["total"] == 0 and stats["new"] == 0
