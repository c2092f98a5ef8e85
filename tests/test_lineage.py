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


def _triple_files(out_dir):
    """Rows of each ``triples/`` file under ``out_dir``, in file-name
    order."""
    import pyarrow.parquet as pq

    tdir = os.path.join(out_dir, "triples")
    return [
        list(zip(*(t.column(c).to_pylist() for c in ("subj", "pred", "obj"))))
        for t in (
            pq.read_table(os.path.join(tdir, f))
            for f in sorted(os.listdir(tdir))
            if f.endswith(".parquet")
        )
    ]


def _triples(out_dir):
    return sorted(r for f in _triple_files(out_dir) for r in f)


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
    res, written = resolve_from_checkpoint(out, with_profiles=True)
    assert written["n_triples"] == len(_triples(out)) > 0
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


def test_resume_writes_same_files_as_build_kg(ray_session, corpus, tmp_path):
    """Both entry points resolve through ``resolve_mentions`` and write
    through ``write_kg``: the resume path and ``build_kg`` on the same
    pages write the same number of triple files with the same rows, in
    file-name order."""
    from hinbox_ray.pipelines.kg import build_kg, write_kg
    from hinbox_ray.sources.reader import read_parquet_clean
    from hinbox_ray.state.lineage import (
        resolve_from_checkpoint,
        run_extract_with_resume,
    )

    resumed = str(tmp_path / "resumed")
    run_extract_with_resume(corpus, resumed, concurrency=2, batch_size=64)
    resolve_from_checkpoint(resumed)
    built = str(tmp_path / "built")
    write_kg(build_kg(read_parquet_clean(corpus), concurrency=2), built)

    files = _triple_files(resumed)
    assert len(files) > 1
    assert files == _triple_files(built)


def test_validate_shards_on_resumed_run(
    ray_session, corpus, tmp_path, audit_triples
):
    """r3 VERDICT #8: the range-layout audit passes on a genuine resumed
    run and catches a subject written into two files."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from hinbox_ray.state.lineage import (
        resolve_from_checkpoint,
        run_extract_with_resume,
    )

    out = str(tmp_path / "resumed_run")
    # run, then resume (no-op second pass — the audit's target scenario)
    run_extract_with_resume(corpus, out, concurrency=2, batch_size=64)
    again = run_extract_with_resume(corpus, out, concurrency=2, batch_size=64)
    assert len(again) == SHARDS
    _, written = resolve_from_checkpoint(out)

    tdir = written["triples_dir"]
    rep = audit_triples(tdir)
    assert rep["ok"], rep["errors"]
    assert rep["rows"] == written["n_triples"] > 0 and rep["files"] > 1

    # corrupt the first file: append a row whose subject belongs to a
    # later file, keeping the file itself sorted and distinct
    files = sorted(f for f in os.listdir(tdir) if f.endswith(".parquet"))
    first = os.path.join(tdir, files[0])
    t = pq.read_table(first).select(["subj", "pred", "obj"])
    bad = pa.table(
        {
            "subj": pa.array(["zzz-foreign-subject"], type=pa.string()),
            "pred": pa.array(["name"], type=pa.string()),
            "obj": pa.array(["x"], type=pa.string()),
        }
    )
    pq.write_table(pa.concat_tables([t, bad]), first)
    rep2 = audit_triples(tdir)
    assert not rep2["ok"]
    assert any("not after" in e for e in rep2["errors"]), rep2["errors"]


def test_resolve_zero_mention_checkpoint(ray_session, tmp_path):
    """A checkpoint holding only an empty mentions file resolves to zero
    triples and zero merge stats, and leaves readable triples and
    entities directories."""
    import pyarrow.parquet as pq

    from hinbox_ray.stages.mentions import MENTIONS_SCHEMA
    from hinbox_ray.state.lineage import resolve_from_checkpoint

    out = str(tmp_path / "run")
    part = os.path.join(out, "mentions", "part-a")
    os.makedirs(part)
    pq.write_table(MENTIONS_SCHEMA.empty_table(), os.path.join(part, "m.parquet"))

    res, written = resolve_from_checkpoint(out, with_profiles=True)
    assert res.triples.count() == 0 and written["n_triples"] == 0
    assert _triples(out) == []
    ents = pq.read_table(written["entities_dir"])
    assert ents.num_rows == 0 and "entity_id" in ents.column_names
    with open(os.path.join(out, "merge_stats.json")) as f:
        stats = json.load(f)
    assert stats["total"] == 0 and stats["new"] == 0
