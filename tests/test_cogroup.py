"""Co-group attach correctness (the Dataset.join replacement on the
canonical path — a hash join here silently split entity clusters)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

# 1 block, and 8 or 49 blocks built as a lazy union — the shape a chain
# of unions hands the co-group helpers
BLOCK_COUNTS = (1, 8, 49)


def _blocked(df: pd.DataFrame, n_blocks: int):
    import ray.data as rd

    parts = np.array_split(df, n_blocks)
    if n_blocks == 1:
        return rd.from_pandas(parts)
    half = n_blocks // 2
    return rd.from_pandas(parts[:half]).union(rd.from_pandas(parts[half:]))


def _max_blocks(n_rows: int) -> int:
    from hinbox_ray.stages.cogroup import COALESCE_ROWS

    return -(-n_rows // COALESCE_ROWS)


def _raw_frame(node_ids):
    n = len(node_ids)
    return pd.DataFrame(
        {
            "entity_type": ["people"] * n,
            "name": [f"n{i}" for i in range(n)],
            "attr_type": [""] * n,
            "start_date": [""] * n,
            "end_date": [""] * n,
            "event_type": [""] * n,
            "description": [""] * n,
            "aliases": [""] * n,
            "n_mentions": np.ones(n, dtype=np.int64),
            "first_url": [f"https://x/{i}" for i in range(n)],
            "first_ord": np.zeros(n, dtype=np.int64),
            "first_ts": pd.to_datetime(["2020-01-01"] * n),
            "evidence": [""] * n,
            "node_id": np.array(node_ids, dtype=np.int64),
        }
    )


def test_attach_component_matches_and_defaults(ray_session):
    import ray.data as rd

    from hinbox_ray.stages.cogroup import attach_component

    # 63-bit ids — the range where a dtype drift would corrupt a join
    ids = [(1 << 62) + 5, (1 << 61) + 9, 77, 12345]
    raw = rd.from_pandas(_raw_frame(ids))
    comps = rd.from_pandas(
        pd.DataFrame(
            {
                "node_id": np.array(ids[:2], dtype=np.int64),
                "component": np.array([42, 42], dtype=np.int64),
            }
        )
    )
    out = attach_component(raw, comps).to_pandas()
    got = dict(zip(out.node_id, out.component))
    assert got[ids[0]] == 42 and got[ids[1]] == 42
    # singletons default to their own node id
    assert got[77] == 77 and got[12345] == 12345
    assert len(out) == 4
    # every raw column survives
    assert "evidence" in out.columns and "first_ord" in out.columns

    # same attach from 1, 8 and 49 input blocks per side: equal output,
    # and the exchange sees the sides coalesced by rows
    many = [(1 << 62) + 7 * i for i in range(120)]
    links = pd.DataFrame(
        {
            "node_id": np.array(many[::2], dtype=np.int64),
            "component": np.array(many[::4], dtype=np.int64).repeat(2),
        }
    )
    want = dict(zip(links.node_id, links.component))
    for n in BLOCK_COUNTS:
        res = attach_component(
            _blocked(_raw_frame(many), n), _blocked(links, n)
        ).materialize()
        got = res.to_pandas()
        assert len(got) == len(many)
        assert dict(zip(got.node_id, got.component)) == {
            nid: want.get(nid, nid) for nid in many
        }
        assert res.num_blocks() <= _max_blocks(len(many) + len(links)), n


def test_attach_entity_id_inner_semantics(ray_session):
    import ray.data as rd

    from hinbox_ray.stages.cogroup import attach_entity_id

    mention_nodes = rd.from_pandas(
        pd.DataFrame(
            {
                "node_id": np.array([1, 1, 2, 3], dtype=np.int64),
                "url": ["u1", "u2", "u3", "u4"],
            }
        )
    )
    nmap = rd.from_pandas(
        pd.DataFrame(
            {
                "node_id": np.array([1, 2], dtype=np.int64),
                "entity_id": ["e:a", "e:b"],
            }
        )
    )
    out = attach_entity_id(mention_nodes, nmap).to_pandas()
    pairs = set(zip(out.entity_id, out.url))
    # node 3 has no mapping → dropped (inner); 1 keeps both urls
    assert pairs == {("e:a", "u1"), ("e:a", "u2"), ("e:b", "u3")}


def test_cogroup_exact_across_schemas_keys_and_blocks(ray_session):
    """Sides with different columns co-group exactly: an int64 payload
    >= 2^62 and a bytes payload round-trip bit-exact, an int32 key meets
    its int64 twin (and a large_string key its object twin), a side
    with no rows in a kernel call's block, or none at all, arrives as
    None, typed empty kernel outputs keep their columns and dtypes, and
    1, 8 or 49 input blocks give equal output."""
    import pyarrow as pa
    import ray.data as rd

    from hinbox_ray.stages.cogroup import cogroup

    keys = np.arange(60)
    rng = np.random.default_rng(2)
    left = pd.DataFrame(
        {
            "k": keys.astype(np.int32),
            "big": (np.int64(1) << np.int64(62)) + keys.astype(np.int64),
            # shingle-blob shape: sorted uint64 bytes, NULs included
            "blob": [rng.integers(0, 2**63, k % 5, dtype=np.uint64).tobytes() for k in keys],
        }
    )
    right = pd.DataFrame(
        {"key": keys[::3].astype(np.int64), "name": [f"n{k}" for k in keys[::3]]}
    )

    def kernel(f):
        lf, rf = f["l"], f["r"]
        if lf is None:
            return None
        assert lf["k"].dtype == np.int64  # keys normalised before the kernel
        # right holds every third key, so it has rows in this call iff
        # one of the call's left keys is a multiple of 3
        out = lf.assign(
            r_absent=rf is None,
            r_ok=(rf is None) == bool((lf["k"] % 3 != 0).all()),
        )
        if rf is None:
            return out.assign(name="")
        return out.merge(rf, left_on="k", right_on="key", how="left").drop(
            columns="key"
        ).fillna({"name": ""})

    want = left.assign(k=left["k"].astype(np.int64))
    want["name"] = [f"n{k}" if k % 3 == 0 else "" for k in keys]
    for n in BLOCK_COUNTS:
        got = (
            cogroup(
                {"l": _blocked(left, n), "r": _blocked(right, n)},
                {"l": "k", "r": "key"},
                kernel,
                n_buckets=64,
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert got["big"].dtype == np.int64
        pd.testing.assert_frame_equal(
            got[["k", "big", "blob", "name"]], want, check_dtype=True
        )
        assert got["r_ok"].all()

        # a side with no rows (a first memo run, a join without
        # candidates) arrives as None in every call
        empty_r = _blocked(right.iloc[0:0], n)
        got = (
            cogroup({"l": _blocked(left, n), "r": empty_r}, {"l": "k", "r": "key"}, kernel)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert got["r_absent"].all()
        pd.testing.assert_frame_equal(
            got[["k", "big", "blob", "name"]], want.assign(name=""), check_dtype=True
        )

        # typed empty frames from every call keep columns and dtypes
        typed = pd.DataFrame(
            {
                "k": pd.Series(dtype=np.int64),
                "big": pd.Series(dtype=np.int64),
                "score": pd.Series(dtype=np.float64),
            }
        )
        res = cogroup(
            {"l": _blocked(left, n), "r": _blocked(right, n)},
            {"l": "k", "r": "key"},
            lambda f: typed,
        ).materialize()
        assert res.count() == 0
        assert res.schema().names == ["k", "big", "score"]
        assert res.schema().types == [pa.int64(), pa.int64(), pa.float64()]

    strs = rd.from_arrow(
        pa.table({"s": pa.array(["x", "y", "z"], pa.large_string()), "v": [1, 2, 3]})
    )
    objs = rd.from_pandas(pd.DataFrame({"t": ["x", "z", "w"], "w": [10, 30, 40]}))
    got = cogroup(
        {"a": strs, "b": objs},
        {"a": "s", "b": "t"},
        lambda f: None
        if f["a"] is None or f["b"] is None
        else f["a"].merge(f["b"], left_on="s", right_on="t"),
    ).to_pandas()
    assert sorted(zip(got["s"], got["v"], got["w"])) == [("x", 1, 10), ("z", 3, 30)]


def test_bucketed_map_groups_matches_plain_groupby(ray_session):
    """The bucketed shuffle must be semantically identical to one Ray
    group per key — same groups, same kernel outputs — without one Ray
    group per key; ``bucket_exchange`` on the same 2-column key gives
    the same result from a kernel that groups per block."""
    from hinbox_ray.stages.cogroup import bucket_exchange, bucketed_map_groups

    rng = np.random.default_rng(0)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 60, 700).astype(np.int64),
            "k2": rng.choice(list("abcd"), 700),
            "v": rng.integers(0, 100, 700).astype(np.int64),
        }
    )

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "k": np.array([g["k"].iloc[0]], dtype=np.int64),
                "k2": [str(g["k2"].iloc[0])],
                "s": np.array([int(g["v"].sum())], dtype=np.int64),
                "n": np.array([len(g)], dtype=np.int64),
            }
        )

    want = (
        df.groupby(["k", "k2"], sort=True)
        .apply(kernel, include_groups=True)
        .reset_index(drop=True)
        .sort_values(["k", "k2"])
        .reset_index(drop=True)
    )

    def per_block(g: pd.DataFrame) -> pd.DataFrame:
        # the same result from one call over many (k, k2) keys
        out = g.groupby(["k", "k2"], as_index=False).agg(
            s=("v", "sum"), n=("v", "size")
        )
        return out.astype({"k": np.int64, "k2": str, "s": np.int64, "n": np.int64})

    # output independent of the input's block count; the exchange sees
    # the input coalesced to ceil(rows / COALESCE_ROWS) blocks
    for n in BLOCK_COUNTS:
        for res in (
            bucketed_map_groups(_blocked(df, n), ["k", "k2"], kernel),
            bucket_exchange(_blocked(df, n), ["k", "k2"], per_block),
        ):
            res = res.materialize()
            got = res.to_pandas().sort_values(["k", "k2"]).reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want)
            assert res.num_blocks() <= _max_blocks(len(df)), n


def test_bucketed_drop_duplicates_matches_pandas(ray_session):
    """Exact distributed dedup, whatever the input's block count."""
    from hinbox_ray.stages.cogroup import bucketed_drop_duplicates

    rng = np.random.default_rng(1)
    df = pd.DataFrame(
        {
            "u": rng.integers(0, 30, 700).astype(np.int64),
            "v": rng.integers(0, 30, 700).astype(np.int64),
        }
    )
    want = df.drop_duplicates().sort_values(["u", "v"]).reset_index(drop=True)
    for n in BLOCK_COUNTS:
        res = bucketed_drop_duplicates(_blocked(df, n), ["u", "v"]).materialize()
        got = res.to_pandas().sort_values(["u", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)
        assert res.num_blocks() <= _max_blocks(len(df)), n


def test_kernels_run_once_per_shuffle_block(ray_session):
    """``cogroup`` and ``bucket_exchange`` call their kernel once per
    shuffle output block, not once per bucket: a kernel that returns
    one marker row per call makes no more rows than the result has
    blocks, from 1, 8 or 49 input blocks."""
    from hinbox_ray.stages.cogroup import bucket_exchange, cogroup

    df = pd.DataFrame({"k": np.arange(600, dtype=np.int64)})
    df2 = df.assign(k2=[f"s{i % 7}" for i in range(600)])

    def mark(_):
        return pd.DataFrame({"call": np.ones(1, dtype=np.int64)})

    for n in BLOCK_COUNTS:
        for res in (
            cogroup({"a": _blocked(df, n), "b": _blocked(df.iloc[::2], n)}, "k", mark),
            bucket_exchange(_blocked(df, n), "k", mark),
            bucket_exchange(_blocked(df2, n), ["k", "k2"], mark),
        ):
            res = res.materialize()
            assert 1 <= res.count() <= res.num_blocks(), n


def test_attach_component_63bit_ids_exact(ray_session):
    """Component ids are 63-bit siphashes; the left-attach must stay
    integer-exact (a float64 NaN/fillna path rounds above 2^53 and
    merges unrelated clusters — regression for exactly that)."""
    import ray.data as rd

    from hinbox_ray.stages.cogroup import RAW_COLS, attach_component

    base = np.int64(1) << np.int64(62)
    nids = base + np.array([1025, 1027, 1029], dtype=np.int64)

    raw = pd.DataFrame({c: ["x"] * 3 for c in RAW_COLS if c != "node_id"})
    raw["n_mentions"] = np.int64(1)
    raw["first_ord"] = np.int64(0)
    raw["first_ts"] = pd.Timestamp("2024-01-01")
    raw["node_id"] = nids
    comps = pd.DataFrame(
        {
            # the two linked nodes share a component; third is singleton
            "node_id": nids[:2],
            "component": np.array([nids[0], nids[0]], dtype=np.int64),
        }
    )
    out = (
        attach_component(rd.from_pandas(raw), rd.from_pandas(comps))
        .to_pandas()
        .sort_values("node_id")
        .reset_index(drop=True)
    )
    assert out["component"].dtype == np.int64
    assert out["component"].tolist() == [
        int(nids[0]),
        int(nids[0]),
        int(nids[2]),  # singleton keeps its own 63-bit id, bit-exact
    ]
