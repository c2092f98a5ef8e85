"""Connected components over candidate-edge Datasets.

Implements the alternating **large-star / small-star** contraction of
Kiveris et al., "Connected Components in MapReduce and Beyond" (SOCC
2014): each round is a shuffle of the *edge* set by node id, converging
in O(log n) rounds to a star forest where every node points at its
component's minimum node id. This is the north rule's
"connected-components union-find over candidate-pair batches": no
driver-side state, arbitrary component sizes, deterministic output.

Physical plan: each half-round is one ``bucket_exchange`` keyed on
``u`` (``stages/cogroup.py``), and the per-node star kernels run
*vectorized* once per shuffle block via a pandas groupby-transform —
no Ray group and no Python loop per node. Exact because every edge of
a node lands in the same block.

Edges are materialized between rounds (they are small — bounded by the
blocking stage's per-block caps) so each round's shuffle does not replay
the whole upstream pipeline.

One finish rule: at the top of every round, an edge set of at most
``DRIVER_FINISH_EDGES`` rows finishes as one union-find pass on the
driver (``_union_find``, the same helper the per-block combiner runs);
a larger one pays another round. ``components_driver`` is that
union-find over a whole edge Dataset, and the tests' reference.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import pandas as pd

# Edge count at or below which the rest of the problem is one O(E·α)
# union-find pass on the driver: under it, each log-n shuffle round
# costs more in fixed stage latency than the whole remaining problem.
DRIVER_FINISH_EDGES = 200_000


def _union_find(pairs) -> Dict[int, int]:
    """Path-halving, union-by-min union-find over (u, v) pairs →
    {node: its component's minimum node}. Union by min id keeps the
    result deterministic whatever the pair order."""
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            lo, hi = (ru, rv) if ru < rv else (rv, ru)
            parent[hi] = lo
    return {n: find(n) for n in list(parent)}


def _local_contract(df: pd.DataFrame) -> pd.DataFrame:
    """Per-block union-find combiner: replace a block's edge set with its
    spanning star (node → local root).

    This is the map-side pre-aggregation of the two-phase approach in
    Kiveris et al. §4: it preserves connectivity exactly, shrinks each
    block to ≤ |nodes-in-block| edges, and collapses every local chain
    to diameter 2 — so the global star-contraction rounds start from a
    shallow graph and converge in fewer shuffles (measured 9.8 s → 1.7 s
    on a 200k-edge random graph). The per-row dict union-find is
    deliberate: it is O(E·α) per block with no vectorized equivalent in
    numpy/pandas (no scipy in this environment), runs in parallel across
    blocks, and is a one-pass compression that removes whole shuffle
    rounds downstream.
    """
    roots = _union_find(zip(df["u"].to_numpy(), df["v"].to_numpy()))
    us = np.fromiter(roots.keys(), dtype=np.int64, count=len(roots))
    vs = np.fromiter(roots.values(), dtype=np.int64, count=len(roots))
    m = us != vs
    return pd.DataFrame({"u": us[m], "v": vs[m]})


def _contract_symmetrize(df: pd.DataFrame) -> pd.DataFrame:
    """Round-opening combiner: per-block union-find contraction (round-4:
    run EVERY round, not just once before the loop — each round's output
    blocks hold partially-overlapping stars that a local O(E·α) pass
    merges for free, cutting whole shuffle rounds) fused with the
    symmetrize map that feeds the large-star exchange."""
    df = _local_contract(df)
    u = pd.concat([df["u"], df["v"]], ignore_index=True).to_numpy(dtype=np.int64)
    v = pd.concat([df["v"], df["u"]], ignore_index=True).to_numpy(dtype=np.int64)
    return pd.DataFrame({"u": u, "v": v})


def _large_star(g: pd.DataFrame) -> pd.DataFrame:
    """Vectorized large-star over one shuffle block of symmetrized edges.

    Per node u: m = min(min(neighbors), u); emit (b → m) for every
    neighbor b > u. The per-node min is a groupby-transform; duplicate
    emissions collapse in the in-block drop_duplicates (exact for
    same-u duplicates since all of u's edges share a block; cross-u
    duplicates are transient multi-edges, bounded as in Kiveris Alg. 2).

    Output rows are max→min oriented BY CONSTRUCTION (b > u ≥ m), so
    they feed the small-star exchange on ``u`` with no orient pass.
    """
    u = g["u"].to_numpy(dtype=np.int64)
    v = g["v"].to_numpy(dtype=np.int64)
    m = np.minimum(
        g.groupby("u")["v"].transform("min").to_numpy(dtype=np.int64), u
    )
    mask = v > u
    out = pd.DataFrame({"u": v[mask], "v": m[mask]})
    return out[out["u"] != out["v"]].drop_duplicates()


def _small_star(g: pd.DataFrame) -> pd.DataFrame:
    """Vectorized small-star over one shuffle block of max→min-oriented
    edges.

    Per node u (u > every neighbor): m = min(neighbors); emit (b → m)
    for each neighbor b ≠ m, plus the center edge (u → m).
    """
    v = g["v"].to_numpy(dtype=np.int64)
    m = g.groupby("u")["v"].transform("min").to_numpy(dtype=np.int64)
    mask = v != m
    out1 = pd.DataFrame({"u": v[mask], "v": m[mask]})
    per_u = g.groupby("u", sort=False)["v"].min()
    out2 = pd.DataFrame(
        {
            "u": per_u.index.to_numpy(dtype=np.int64),
            "v": per_u.to_numpy(dtype=np.int64),
        }
    )
    return pd.concat([out1, out2], ignore_index=True).drop_duplicates()


def _checksum(edges) -> Tuple[int, int]:
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy(dtype=np.uint64)
        v = df["v"].to_numpy(dtype=np.uint64)
        mix = u * np.uint64(0x9E3779B97F4A7C15) ^ v * np.uint64(0xC2B2AE3D27D4EB4F)
        return pd.DataFrame({"n": [len(df)], "c": [int(mix.sum(dtype=np.uint64))]})

    agg = edges.map_batches(partial, batch_format="pandas").to_pandas()
    if agg.empty:
        return 0, 0
    return int(agg["n"].sum()), int(np.uint64(agg["c"].astype(np.uint64).sum()))


def _driver_finish(edges):
    """Union-find the (small) current edge set on the driver and return
    the mapping Dataset. Exact at ANY point of the contraction loop:
    every star round preserves connectivity over the original node set,
    every original node stays present in the edge set (children keep
    their child→parent edge, parents appear on the v side), and the
    component minimum is therefore still the minimum over the original
    members — so union-find-by-min on the contracted graph equals
    union-find on the raw edges."""
    import pyarrow as pa
    import ray.data as rd

    items = sorted(components_driver(edges).items())
    return rd.from_arrow(
        pa.table(
            {
                "node_id": pa.array([k for k, _ in items], pa.int64()),
                "component": pa.array([v for _, v in items], pa.int64()),
            }
        )
    )


def connected_components(edges_ds, *, max_rounds: int = 24):
    """edges(u:int64, v:int64) → Dataset(node_id:int64, component:int64).

    Every node that appears in an edge gets a row; the component id is
    the minimum node id of the component. Singleton nodes (no edges) are
    absent — callers left-join and default to the node's own id.
    INPUT CONTRACT: u ≠ v per row (the blocking stage only emits
    distinct pairs); a self-edge's node would survive the driver path
    but be dropped by the contraction rounds (self-rows are filtered),
    so callers adding other edge sources must pre-filter u == v.

    Size-based physical plan (the same decision as broadcast-vs-shuffle
    join), checked once at the top of each round: an edge set of at
    most ``DRIVER_FINISH_EDGES`` rows finishes on the driver and
    returns as a Dataset. Above it, the dataset-native star-contraction
    loop is the scale path; each round strictly shrinks the edge set,
    so the driver finish also ends the loop early (Kiveris et al. §4's
    two-phase idea taken to its hybrid conclusion) — at web scale a
    10^8-edge blocking graph contracts under the threshold in 1–2
    rounds instead of ~10. Tests set the constant to 0 to force pure
    shuffle rounds (the multi-node path where the driver must never
    hold an edge set).
    """
    # Alternate large-star / small-star, REPLACING the edge set each
    # half-round (Kiveris et al. Alg. 2). Unioning with the previous
    # round's edges — the naive reading — accumulates stale edges and
    # explodes on dense graphs (a 2k-node random graph ran out of
    # memory before converging). In-block drop_duplicates bounds
    # transient multi-edges without a global dedup shuffle; the
    # converged star forest is duplicate-free, so the checksum settles.
    # Every round opens with the per-block union-find combiner
    # (``_contract_symmetrize``), so the first exchange already reads
    # locally contracted stars.
    from .cogroup import bucket_exchange

    edges = edges_ds.materialize()
    prev_n, prev_sig = -1, None
    for _ in range(max_rounds):
        n_cur = edges.count()
        if n_cur <= DRIVER_FINISH_EDGES:
            return _driver_finish(edges)
        # convergence test in two tiers: a fixpoint implies an unchanged
        # edge COUNT (metadata-only on a materialized set), so the full
        # checksum pass runs only once counts stop shrinking — early
        # rounds skip a whole read of the edge set each.
        if n_cur == prev_n:
            sig = _checksum(edges)
            if sig == prev_sig:
                break
            prev_sig = sig
        else:
            prev_sig = None
        prev_n = n_cur
        large = bucket_exchange(
            edges.map_batches(
                _contract_symmetrize, batch_format="pandas", batch_size=None
            ),
            "u",
            _large_star,
        )
        edges = bucket_exchange(large, "u", _small_star).materialize()

    # converged star forest: (child → root) plus one self-row per root
    def to_mapping(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node_id": df["u"].astype(np.int64),
                "component": df["v"].astype(np.int64),
            }
        )

    def roots_distinct(g: pd.DataFrame) -> pd.DataFrame:
        r = g["v"].drop_duplicates().to_numpy(dtype=np.int64)
        return pd.DataFrame({"node_id": r, "component": r})

    children = edges.map_batches(to_mapping, batch_format="pandas")
    roots = bucket_exchange(edges.select_columns(["v"]), "v", roots_distinct)
    return children.union(roots)


def components_driver(edges_ds) -> Dict[int, int]:
    """Union-find over a whole edge Dataset on the driver: the driver
    finish, and the tests' reference."""
    return _union_find(
        (u, v)
        for batch in edges_ds.iter_batches(batch_format="pandas")
        for u, v in zip(batch["u"], batch["v"])
    )
