"""Connected-components tests (dataset-native star contraction)."""

import numpy as np
import pandas as pd
import pytest


def _cc(edges_df, **kw):
    import ray.data as rd

    from hinbox_ray.stages.cc import connected_components

    return (
        connected_components(rd.from_pandas(edges_df), **kw)
        .to_pandas()
        .sort_values("node_id")
        .reset_index(drop=True)
    )


def _edges(pairs):
    return pd.DataFrame(
        {
            "u": np.array([p[0] for p in pairs], dtype=np.int64),
            "v": np.array([p[1] for p in pairs], dtype=np.int64),
        }
    )


def test_chain_and_triangle(ray_session):
    got = _cc(_edges([(1, 2), (2, 3), (5, 6), (6, 7), (5, 7)]))
    comp = dict(zip(got["node_id"], got["component"]))
    assert comp[1] == comp[2] == comp[3] == 1
    assert comp[5] == comp[6] == comp[7] == 5


def test_long_path_converges(ray_session):
    # a 20-node path exercises multiple contraction rounds
    pairs = [(i, i + 1) for i in range(100, 120)]
    got = _cc(_edges(pairs))
    assert set(got["component"]) == {100}
    assert len(got) == 21


def test_star_with_hot_hub(ray_session):
    pairs = [(50, i) for i in range(51, 90)]
    got = _cc(_edges(pairs))
    assert set(got["component"]) == {50}


def test_empty_edges(ray_session):
    import ray.data as rd

    from hinbox_ray.stages.cc import connected_components

    out = connected_components(rd.from_pandas(_edges([])))
    assert out.count() == 0
    assert {f.name for f in out.schema().base_schema} == {"node_id", "component"}


def test_duplicate_and_reversed_edges(ray_session):
    got = _cc(_edges([(2, 1), (1, 2), (2, 1)]))
    comp = dict(zip(got["node_id"], got["component"]))
    assert comp == {1: 1, 2: 1}


def test_matches_driver_union_find(ray_session):
    import ray.data as rd

    from hinbox_ray.stages.cc import components_driver

    rng = np.random.default_rng(3)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 60, size=(80, 2)) if a != b]
    df = _edges(pairs)
    ds_map = _cc(df)
    drv = components_driver(rd.from_pandas(df))
    # same partition of nodes into components
    got = {int(r.node_id): int(r.component) for r in ds_map.itertuples()}
    assert set(got) == set(drv)
    # canonical min-labels agree
    assert got == drv


def test_dataset_native_path_forced_scale(ray_session, monkeypatch):
    """≥100k edges through the bucketed shuffle rounds (threshold=0)
    must match the driver union-find exactly — pins the scale path the
    flagship relies on above DRIVER_FINISH_EDGES."""
    import ray.data as rd

    from hinbox_ray.stages import cc
    from hinbox_ray.stages.cc import components_driver, connected_components

    monkeypatch.setattr(cc, "DRIVER_FINISH_EDGES", 0)

    rng = np.random.default_rng(11)
    u = rng.integers(0, 80_000, 120_000).astype(np.int64)
    v = rng.integers(0, 80_000, 120_000).astype(np.int64)
    m = u != v
    edges = rd.from_pandas(pd.DataFrame({"u": u[m], "v": v[m]})).materialize()
    comps = connected_components(edges).to_pandas()
    truth = components_driver(edges)
    got = dict(zip(comps.node_id, comps.component))
    assert got == truth
    assert len(got) == len(truth)


def test_dataset_native_path_dense_and_chain(ray_session, monkeypatch):
    """Force the shuffle-round path (threshold=0) on graphs that broke
    the union-accumulating variant: dense random and a long path."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from hinbox_ray.stages import cc
    from hinbox_ray.stages.cc import components_driver, connected_components

    monkeypatch.setattr(cc, "DRIVER_FINISH_EDGES", 0)

    rng = np.random.default_rng(3)
    cases = {
        "dense": (rng.integers(0, 500, 1500), rng.integers(0, 500, 1500)),
        "chain": (np.arange(0, 400), np.arange(1, 401)),
    }
    for name, (u, v) in cases.items():
        m = u != v
        edges = rd.from_pandas(
            pd.DataFrame(
                {"u": u[m].astype(np.int64), "v": v[m].astype(np.int64)}
            )
        )
        comps = connected_components(edges).to_pandas()
        truth = components_driver(edges)
        got = dict(zip(comps.node_id, comps.component))
        assert got == truth, name


def test_driver_finish_hybrid_matches(ray_session, monkeypatch):
    """Early driver finish (rounds until the contracted edge set fits,
    then one union-find pass) must equal both the pure-rounds path and
    the raw-edge driver union-find."""
    import ray.data as rd

    from hinbox_ray.stages import cc
    from hinbox_ray.stages.cc import components_driver, connected_components

    rng = np.random.default_rng(23)
    u = rng.integers(0, 90_000, 140_000).astype(np.int64)
    v = rng.integers(0, 90_000, 140_000).astype(np.int64)
    m = u != v
    edges = rd.from_pandas(pd.DataFrame({"u": u[m], "v": v[m]})).materialize()
    truth = components_driver(edges)
    monkeypatch.setattr(cc, "DRIVER_FINISH_EDGES", 120_000)
    hybrid = connected_components(edges).to_pandas()
    assert dict(zip(hybrid.node_id, hybrid.component)) == truth
    # finish-immediately (huge threshold) also exact
    monkeypatch.setattr(cc, "DRIVER_FINISH_EDGES", 10**9)
    fast = connected_components(edges).to_pandas()
    assert dict(zip(fast.node_id, fast.component)) == truth
