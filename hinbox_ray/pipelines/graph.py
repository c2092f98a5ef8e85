"""Graph queries over the planted KG and the extracted host graph.

Two building blocks carry every query here:

- ``cogroup`` (``stages/cogroup.py``): every exchange, one or two
  sided, with one vectorized pandas kernel per shuffle block;
- ``pregel``: a fixed number of message-passing rounds over a node
  state table and a directed edge table, two co-groups per round.

Inner algorithms take an edge ``Dataset`` (``(ea, eb)`` undirected
co-mention edges with ea < eb, or ``(src, dst, w)`` directed host
edges); the ``kg_*_planted`` queries build the planted KG once and
feed it in. Node tables key on a ``node`` column. Every exchange uses
``N_BUCKETS`` buckets: the graphs are entity- or host-vocabulary
scale, so few buckets keep the payload rows few.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.cogroup import cogroup

N_BUCKETS = 64


def _map(ds, fn):
    return ds.map_batches(fn, batch_format="pandas")


def _final(ds, cols: dict, sort):
    """Rename/select ``cols`` ({old: new}) and sort on ``sort``."""
    return _map(ds, lambda df: df.rename(columns=cols)[list(cols.values())]).sort(
        sort
    )


def _per_node(state: pd.DataFrame, msgs, col=None, how="sum", fill=0):
    """``msgs[col]`` aggregated per ``node`` (row count if ``col`` is
    None), aligned to ``state``'s rows; ``fill`` where no message
    arrived. Stays int64 throughout (no NaN pass)."""
    if msgs is None:
        return np.full(len(state), fill, dtype=np.int64)
    g = msgs.groupby("node", sort=False)
    agg = g.size() if col is None else g[col].agg(how)
    return agg.reindex(state["node"], fill_value=fill).to_numpy(np.int64)


def _one_side(ds, on, kernel):
    return cogroup({"x": ds}, on, lambda f: kernel(f["x"]), n_buckets=N_BUCKETS)


def strong_edges(com, min_docs: int = 1):
    """Co-mention edges seen in >= ``min_docs`` documents, as (ea, eb).
    Materialized: entity-graph scale, and every algorithm reads it more
    than once."""
    return _map(
        com,
        lambda df: df.loc[df["n_docs"] >= min_docs, ["ea", "eb"]].reset_index(
            drop=True
        ),
    ).materialize()


def both_dirs(edges):
    """Undirected (ea, eb) → directed (src, dst), both directions."""
    return _map(
        edges,
        lambda df: pd.DataFrame(
            {
                "src": pd.concat([df["ea"], df["eb"]], ignore_index=True),
                "dst": pd.concat([df["eb"], df["ea"]], ignore_index=True),
            }
        ),
    )


def degrees(edges):
    """(node, deg) of undirected (ea, eb) edges: per-batch counts, then
    one node co-group sums them."""

    def local(df: pd.DataFrame) -> pd.DataFrame:
        ends = pd.concat([df["ea"], df["eb"]], ignore_index=True)
        return ends.value_counts(sort=False).rename_axis("node").reset_index(
            name="deg"
        )

    return _one_side(
        _map(edges, local),
        "node",
        lambda d: d.groupby("node", as_index=False, sort=False)["deg"].sum(),
    )


def attach(rows, table, col: str, suffix: str = ""):
    """rows ⋈ table on rows[col] == table.node (inner): each row gains
    the table's other columns, renamed with ``suffix``. One co-group;
    the per-block lookup is a vectorized ``get_indexer``."""

    def kernel(f: dict):
        r, t = f["rows"], f["table"]
        if r is None or t is None:
            return None
        t = t.drop_duplicates("node")
        pos = pd.Index(t["node"]).get_indexer(r[col])
        keep = pos >= 0
        out = r[keep].reset_index(drop=True)
        for c in t.columns.drop("node"):
            out[c + suffix] = t[c].to_numpy()[pos[keep]]
        return out

    return cogroup(
        {"rows": rows, "table": table},
        {"rows": col, "table": "node"},
        kernel,
        n_buckets=N_BUCKETS,
    )


def pregel(state, edges, send, update, rounds: int):
    """``rounds`` synchronous message-passing rounds.

    ``state`` has one row per node (key ``node``); ``edges`` are
    directed (``src``, ``dst``, …). Each round is two co-groups:
    the first merges the state onto edges by ``src`` and calls
    ``send(frame)``, which returns (node, msg…) rows addressed to
    their target; the second calls ``update(state_frame, msg_frame)``
    once per shuffle block, with many nodes per call (``msg_frame`` is
    None when no message reached any node of the block), and returns
    the new state frame; ``update`` fills the nodes that got no
    message itself. The state is materialized once per
    round, the superstep barrier: both co-groups of the next round read
    it, and lineage stays linear in ``rounds``. Driver state is zero.
    """

    def scatter(f: dict):
        s, e = f["state"], f["edges"]
        if s is None or e is None:
            return None
        return send(e.merge(s.rename(columns={"node": "src"}), on="src"))

    def gather(f: dict):
        return None if f["state"] is None else update(f["state"], f["msgs"])

    state = state.materialize()
    edges = edges.materialize()
    for _ in range(rounds):
        msgs = cogroup(
            {"state": state, "edges": edges},
            {"state": "node", "edges": "src"},
            scatter,
            n_buckets=N_BUCKETS,
        )
        state = cogroup(
            {"state": state, "msgs": msgs}, "node", gather, n_buckets=N_BUCKETS
        ).materialize()
    return state


# ── planted co-mention graph ─────────────────────────────────────────


def _planted_triples(sf_dir: str):
    from ..sources.planted import planted_pages_dataset
    from .kg import build_kg

    return build_kg(planted_pages_dataset(sf_dir)).triples


def comention(triples):
    """Entity co-mention graph: an edge (ea, eb, n_docs), ea < eb, for
    every entity pair mentioned in the same document.

    Scale plan: two co-groups. The first buckets mentioned_in triples
    by url and self-merges each bucket on url (the per-doc pair
    explode is bounded: entities per doc is a small constant by corpus
    construction — gazetteer sentences carry ≤2 surfaces each, docs
    carry ≤4 sentences), counting pairs per bucket; the second sums
    the counts per pair."""

    def mentions(df: pd.DataFrame) -> pd.DataFrame:
        m = df[df["pred"] == "mentioned_in"]
        return pd.DataFrame({"subj": m["subj"].to_numpy(), "url": m["obj"].to_numpy()})

    def pairs(m: pd.DataFrame) -> pd.DataFrame:
        m = m.drop_duplicates()
        p = m.merge(m, on="url")
        p = p[p["subj_x"] < p["subj_y"]]
        return (
            p.groupby(["subj_x", "subj_y"], as_index=False, sort=False)
            .size()
            .set_axis(["ea", "eb", "n_docs"], axis=1)
        )

    per_url = _one_side(_map(triples, mentions), "url", pairs)
    return _one_side(
        per_url,
        ["ea", "eb"],
        lambda p: p.groupby(["ea", "eb"], as_index=False, sort=False)["n_docs"].sum(),
    )


def degree(triples):
    """Per-subject (n_triples, n_mentions) over the triple output:
    per-block combiner → one native hash aggregate on the
    entity-vocabulary key."""
    from ray.data.aggregate import Sum

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        is_ment = (df["pred"] == "mentioned_in").astype(np.int64)
        return (
            df[["subj"]]
            .assign(is_ment=is_ment)
            .groupby("subj", as_index=False, sort=False)
            .agg(n_triples=("is_ment", "size"), n_mentions=("is_ment", "sum"))
        )

    return (
        _map(triples, combine)
        .groupby("subj")
        .aggregate(
            Sum("n_triples", alias_name="n_triples"),
            Sum("n_mentions", alias_name="n_mentions"),
        )
    )


def pagerank(edges, iters: int = 3):
    """Integer PageRank over undirected edges — the
    iterative-graph-algorithm consumer of the KG output (the shape of
    entity-salience ranking over a web-scale entity graph).

    Exactness contract: ranks are integers scaled by 10^12, damping is
    850/1000, every division is a floor — so the DuckDB oracle unrolls
    the same ``iters`` rounds with ``//`` and matches hash-exactly (the
    k-means-oracle trick applied to a graph recurrence). r0 = S // N;
    r_{t+1}(v) = (150·(S // N)) // 1000 + (850·Σ_{u~v} r_t(u)//deg(u))
    // 1000. Every node has ≥1 neighbor (it appears in an edge), so the
    contribution join is total — no dangling-mass term.

    Scale plan: ``iters`` pregel rounds (send rank//deg along both
    directions of every edge, gather the sums); driver state is two
    scalars (N, the teleport constant).
    """
    scale = 10**12
    deg = degrees(edges).materialize()
    r0 = scale // deg.count()  # node-vocabulary-scale driver scalar
    tele = (150 * r0) // 1000

    def send(f: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": f["dst"], "contrib": f["rank"] // f["deg"]})

    def update(s: pd.DataFrame, m) -> pd.DataFrame:
        return s.assign(rank=tele + (850 * _per_node(s, m, "contrib")) // 1000)

    state = _map(deg, lambda df: df.assign(rank=np.int64(r0)))
    return pregel(state, both_dirs(edges), send, update, iters)


def neighbor_agg(edges, rounds: int = 2):
    """GraphSAGE-mean-style neighbor feature aggregation — the GNN
    message-passing primitive (feature smoothing / Laplacian
    diffusion), a FOURTH recurrence family beside the sum (pagerank),
    deletion (k-core), mode-argmax (labelprop) and min-frontier (BFS)
    kernels: each round averages a node's own feature with the mean of
    its neighbors' features.

    Exactness contract: the seed feature is the node degree and the
    recurrence is f_{t+1}(v) = (f_t(v) + (Σ_{u~v} f_t(u)) // deg(v))
    // 2 in pure int64 floors, so the DuckDB oracle unrolls the same
    ``rounds`` rounds and matches hash-exactly. Every node in the edge
    table has deg >= 1, so the neighbor-sum join is total.

    Returns (node, deg, f0, …, f_rounds) — the full smoothing
    trajectory, so the hash pins every round, not just the fixpoint.

    Scale plan: ``rounds`` pregel rounds; the f0..f_t history rides in
    the node state as int64 columns (entity-vocabulary scale), driver
    state is zero.
    """

    def last(df: pd.DataFrame) -> str:
        return f"f{sum(c.startswith('f') for c in df.columns) - 1}"

    def send(f: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": f["dst"], "val": f[last(f)]})

    def update(s: pd.DataFrame, m) -> pd.DataFrame:
        f_t = last(s)
        nxt = (s[f_t] + _per_node(s, m, "val") // s["deg"]) // 2
        return s.assign(**{f"f{int(f_t[1:]) + 1}": nxt})

    state = _map(degrees(edges), lambda df: df.assign(f0=df["deg"]))
    return pregel(state, both_dirs(edges), send, update, rounds)


def _name_ids(names: pd.Series) -> np.ndarray:
    """63-bit int64 node ids for entity names (pandas' fixed-key
    siphash, stable across processes)."""
    h = pd.util.hash_pandas_object(names, index=False).to_numpy()
    return (h >> np.uint64(1)).astype(np.int64)


def components(edges):
    """Connected components of undirected edges, driving the SAME
    star-contraction CC stage the entity-resolution path uses
    (stages/cc.py). Returns (subj, component_rep) — component_rep is
    the lexicographically smallest entity name in the component,
    elected inside a per-component co-group kernel (never collected
    driver-side).

    Scale plan: entity names map to int64 ids for the CC stage; the
    name attach (node co-group) and the rep election (component
    co-group) keep component maps off the driver, which matters when
    they reach corpus scale (the CC stage's early-driver-finish hybrid
    handles the small case automatically).
    """
    from ..stages.cc import connected_components

    def int_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"u": _name_ids(df["ea"]), "v": _name_ids(df["eb"])})

    comps = connected_components(_map(edges, int_edges))

    def names(df: pd.DataFrame) -> pd.DataFrame:
        n = pd.concat([df["ea"], df["eb"]], ignore_index=True).drop_duplicates()
        return pd.DataFrame({"node": _name_ids(n), "name": n.to_numpy()})

    named = attach(comps, _map(edges, names), "node_id")

    def elect(g: pd.DataFrame) -> pd.DataFrame:
        rep = g.groupby("component")["name"].transform("min")
        return pd.DataFrame({"subj": g["name"], "component_rep": rep})

    return _one_side(named, "component", elect)


def _wedges(adj):
    """Directed (src, dst) → one (lo, hi, wit=src) row per pair of
    out-neighbors lo < hi of each source: a per-bucket self-merge."""

    def kernel(a: pd.DataFrame) -> pd.DataFrame:
        w = a.merge(a, on="src")
        w = w[w["dst_x"] < w["dst_y"]]
        return pd.DataFrame({"lo": w["dst_x"], "hi": w["dst_y"], "wit": w["src"]})

    return _one_side(adj, "src", kernel)


def triangles(edges):
    """Per-node triangle counts, implemented as the canonical
    degree-ordered wedge-check (Cohen's MapReduce triangle algorithm /
    Suri & Vassilvitskii, WWW'11): orient every edge from its
    lower-(degree, name) endpoint to the higher one, generate
    out-neighbor wedges per source, and close each wedge against the
    undirected edge set. Returns (node, deg, n_triangles) for every
    node, zeros included.

    Scale plan: degree orientation bounds per-source out-degree by
    O(sqrt(m)) on skewed graphs, so the wedge explosion is O(m^1.5)
    total — the standard bound. Degrees, the two degree attaches, the
    per-source wedge self-merge, the closure check (wedges co-grouped
    with edges on the pair key) and the per-node count are co-groups;
    edges never materialize driver-side, and driver state is zero.
    """
    deg = degrees(edges).materialize()
    both = attach(attach(edges, deg, "ea", "_a"), deg, "eb", "_b")

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        a_first = (df["deg_a"] <= df["deg_b"]).to_numpy()  # ea < eb already
        return pd.DataFrame(
            {
                "src": np.where(a_first, df["ea"], df["eb"]),
                "dst": np.where(a_first, df["eb"], df["ea"]),
            }
        )

    wed = _wedges(_map(both, orient))

    # wedge (lo, hi) is a triangle iff the undirected edge (lo, hi)
    # exists — both are in ea<eb string order by construction
    def close(f: dict):
        w, e = f["w"], f["e"]
        if w is None or e is None:
            return None
        t = w.merge(e.set_axis(["lo", "hi"], axis=1), on=["lo", "hi"])
        return pd.DataFrame({"node": pd.concat([t["lo"], t["hi"], t["wit"]])})

    inc = cogroup(
        {"w": wed, "e": edges},
        {"w": ["lo", "hi"], "e": ["ea", "eb"]},
        close,
        n_buckets=N_BUCKETS,
    )
    return cogroup(
        {"deg": deg, "inc": inc},
        "node",
        lambda f: None
        if f["deg"] is None
        else f["deg"].assign(n_triangles=_per_node(f["deg"], f["inc"])),
        n_buckets=N_BUCKETS,
    )


def clustcoef(edges):
    """Local clustering coefficient of every node — the per-node
    cohesion feature (how close a node's neighborhood is to a clique),
    integer-e6: ``cc_e6 = (2e6 * n_triangles) // (deg * (deg - 1))``,
    0 when deg < 2. A vectorized map over ``triangles``' (node, deg,
    n_triangles) rows; it inherits the O(m^1.5) wedge bound and zero
    driver state."""

    def coef(df: pd.DataFrame) -> pd.DataFrame:
        d = df["deg"].to_numpy(np.int64)
        tri = df["n_triangles"].to_numpy(np.int64)
        cc = (2_000_000 * tri) // np.maximum(d * (d - 1), 1)
        return df.assign(clustcoef_e6=np.where(d >= 2, cc, 0))

    return _map(triangles(edges), coef)


def kcore(edges, k: int = 4, rounds: int = 5):
    """k-core decomposition — the degeneracy/cohesion primitive over
    the KG output, completing the graph-consumer family
    (degree → pagerank → components → triangles → k-core). Classic
    iterative peeling: repeatedly delete nodes of degree < ``k`` until
    a fixpoint; a node is in the k-core iff it survives.

    Exactness contract: exactly ``rounds`` peel rounds run (the DuckDB
    oracle unrolls the same rounds as chained CTEs — the
    pagerank-oracle trick applied to a deletion recurrence). On the
    planted graph at (min_docs=6, k=4) the peel cascades for 3 rounds
    (23 nodes → a 5-node core; each round's deletions drop new nodes
    below k, so the ITERATION is actually exercised) and rounds=5
    leaves 2 rounds of fixpoint margin; the fixpoint is pinned
    independently in tests against a peel-until-stable loop.

    Returns (node, deg) with deg = the node's degree among the edges
    left after ``rounds`` peels (0 once deleted).

    Scale plan: one pregel round per peel. An edge survives a round iff
    both endpoints had degree >= k, so a node's next degree is the
    number of messages from neighbours with deg >= k, or 0 if its own
    deg < k; the edge table itself is never rewritten. Driver state is
    zero; deletions never collect driver-side.
    """

    def send(f: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": f.loc[f["deg"] >= k, "dst"]})

    def update(s: pd.DataFrame, m) -> pd.DataFrame:
        return s.assign(deg=np.where(s["deg"] >= k, _per_node(s, m), 0))

    return pregel(degrees(edges), both_dirs(edges), send, update, rounds)


def linkpred(edges):
    """Common-neighbor link prediction — the KG-completion primitive:
    for every NON-adjacent entity pair with at least one common
    neighbor, emit the common-neighbor count and the integer-e6
    Jaccard of the two neighborhoods,
    ``jac_e6 = (10^6·cn) // (deg_a + deg_b − cn)`` — the classic
    missing-edge suggestion score. Returns (ea, eb, cn, jac_e6), ea < eb.

    Scale plan: wedge generation is per-node over the FULL neighbor
    list (unlike the triangle count, the degree-orientation trick
    does not apply — every common neighbor must witness the pair), so
    the cost is Σ deg² and hub nodes dominate; at web scale this
    wants the standard hub cap / neighbor sampling, and the wedge
    self-merge is one per-bucket kernel, so such a cap is one line.
    Counting + the edge anti-join fuse into ONE pair-key co-group; the
    two degree attaches are node co-groups. Zero driver state.
    """

    def count_nonedge(f: dict):
        w, e = f["w"], f["e"]
        if w is None:
            return None
        cn = w.groupby(["lo", "hi"], as_index=False, sort=False).size()
        if e is not None:
            cn = cn.merge(
                e.set_axis(["lo", "hi"], axis=1), how="left", indicator=True
            )
            cn = cn[cn.pop("_merge") == "left_only"]
        return cn.rename(columns={"size": "cn"})

    pairs = cogroup(
        {"w": _wedges(both_dirs(edges)), "e": edges},
        {"w": ["lo", "hi"], "e": ["ea", "eb"]},
        count_nonedge,
        n_buckets=N_BUCKETS,
    )
    deg = degrees(edges).materialize()
    scored = attach(attach(pairs, deg, "lo", "_lo"), deg, "hi", "_hi")

    def jaccard(df: pd.DataFrame) -> pd.DataFrame:
        cn = df["cn"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "ea": df["lo"],
                "eb": df["hi"],
                "cn": cn,
                "jac_e6": (10**6 * cn) // (df["deg_lo"] + df["deg_hi"] - cn),
            }
        )

    return _map(scored, jaccard)


def bfs_depth(edges, rounds: int = 7):
    """BFS shortest-path depths from the lexicographically smallest
    node — the DISTANCE primitive, and a third Pregel kernel family:
    monotone min-frontier expansion (vs the sum, deletion and
    mode-argmax recurrences).

    Exactness contract: exactly ``rounds`` frontier rounds run; the
    DuckDB oracle re-derives depths with a depth-bounded recursive CTE
    + min(d) — equivalent whenever rounds >= eccentricity, which holds
    with margin (planted eccentricity 5 at min_docs=6, depths spread
    0–5 so the propagation cascades through every round; rounds=7).
    Unreached nodes keep depth −1 (none on the planted graph — the
    branch exists for disconnected inputs). Returns (node, depth).

    Scale plan: ``rounds`` pregel rounds; reached nodes send depth+1
    along their out-edges and each node keeps min(own, candidates).
    Driver state is one scalar, the source name (``Dataset.min`` over
    the node-vocabulary-scale table).
    """
    nodes = degrees(edges).materialize()
    source = nodes.min("node")

    def send(f: pd.DataFrame) -> pd.DataFrame:
        f = f[f["depth"] >= 0]
        return pd.DataFrame({"node": f["dst"], "depth": f["depth"] + 1})

    def update(s: pd.DataFrame, m) -> pd.DataFrame:
        d = s["depth"].to_numpy(np.int64)
        cand = _per_node(s, m, "depth", "min", fill=-1)
        better = (d < 0) | ((cand >= 0) & (cand < d))
        return s.assign(depth=np.where(better, cand, d))

    state = _map(
        nodes,
        lambda df: pd.DataFrame(
            {"node": df["node"], "depth": np.where(df["node"] == source, 0, -1)}
        ),
    )
    return pregel(state, both_dirs(edges), send, update, rounds)


def labelprop(edges, rounds: int = 7):
    """Synchronous label-propagation communities — a different kernel
    family from the others: per-node MODE-ARGMAX over neighbor labels
    (count per label, max count, min label as the deterministic
    tie-break) instead of the sum (pagerank/degree) or deletion
    (k-core) recurrences. Labels start as the node's own name.

    Exactness contract: exactly ``rounds`` synchronous rounds run; the
    DuckDB oracle unrolls the same recurrence (count → row_number over
    (c DESC, lbl) → rn=1) as MATERIALIZED CTEs. On the planted graph
    at min_docs=6 the propagation cascades for 5 rounds (23 singleton
    labels → 2 communities) and rounds=7 leaves 2 rounds of fixpoint
    margin; cascade + fixpoint are pinned in tests against an
    independent synchronous-LPA loop.

    Returns (node, lbl), lbl = the fixpoint label (an entity name,
    min-tie-broken so it is a canonical member).

    Scale plan: ``rounds`` pregel rounds (send each node's label along
    its out-edges, take the neighbor-label mode per node, vectorized
    as one count + sort per bucket). Driver state is zero.
    """

    def send(f: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": f["dst"], "lbl": f["lbl"]})

    def update(s: pd.DataFrame, m) -> pd.DataFrame:
        if m is None:
            return s
        c = m.groupby(["node", "lbl"], as_index=False, sort=False).size()
        top = c.sort_values(
            ["node", "size", "lbl"], ascending=[True, False, True]
        ).drop_duplicates("node")
        new = top.set_index("node")["lbl"].reindex(s["node"]).to_numpy()
        unheard = pd.isna(new)
        new[unheard] = s["lbl"].to_numpy()[unheard]
        return s.assign(lbl=new)

    state = _map(degrees(edges), lambda df: df[["node"]].assign(lbl=df["node"]))
    return pregel(state, both_dirs(edges), send, update, rounds)


def modularity(edges, labels):
    """Newman modularity decomposition of a node partition ``labels``
    (node, lbl) over undirected edges — the clustering QUALITY metric
    (how much denser inside communities than a random graph with the
    same degrees), the standard acceptance gate on any community
    detection before it ships.

    Exactness contract (integer, e9): per community c,
    q_e9 = (10⁹·e_c) // m − (10⁹·d_c²) // (4·m²) with e_c = intra-
    community edge count, d_c = degree sum, m = total undirected edges
    — two separate floors, computed with arbitrary-precision Python
    ints on the Ray side and HUGEINT products in the DuckDB oracle
    (10⁹·d_c² overflows int64 once m exceeds ~1500; the strong entity
    graph is vocabulary-scale so HUGEINT covers any real corpus).

    Returns (community, n_nodes, intra_edges, deg_sum, q_e9); Σ q_e9 is
    the graph's modularity on the e9 grid.

    Scale plan: two node co-groups attach each endpoint's label to the
    edge table, then one community co-group rolls up edge-end and node
    rows; m is one driver scalar. Everything shuffled is edge- or
    community-scale.
    """
    m = edges.count()  # entity-graph-scale driver scalar
    ends = attach(attach(edges, labels, "ea", "_a"), labels, "eb", "_b")

    def end_rows(df: pd.DataFrame) -> pd.DataFrame:
        intra = (df["lbl_a"] == df["lbl_b"]).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "community": pd.concat([df["lbl_a"], df["lbl_b"]], ignore_index=True),
                "n_nodes": 0,
                "intra_edges": np.r_[intra, np.zeros_like(intra)],
                "deg_sum": 1,
            }
        )

    def node_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"community": df["lbl"], "n_nodes": 1, "intra_edges": 0, "deg_sum": 0}
        )

    def rollup(f: dict) -> pd.DataFrame:
        g = (
            pd.concat([x for x in f.values() if x is not None])
            .groupby("community", as_index=False, sort=False)
            .sum()
        )
        e, d = g["intra_edges"].astype(object), g["deg_sum"].astype(object)
        q = (10**9 * e) // m - (10**9 * d * d) // (4 * m * m)
        return g.assign(q_e9=q.astype(np.int64))

    return cogroup(
        {"ends": _map(ends, end_rows), "nodes": _map(labels, node_rows)},
        "community",
        rollup,
        n_buckets=N_BUCKETS,
    )


# ── extracted host graph ─────────────────────────────────────────────


def hostgraph(pages):
    """Host-level hyperlink graph (src, dst, w) of a linked-pages
    dataset: every page's anchors tokenized with the stdlib HTML
    tokenizer (``functions/links.py``), each target normalized to its
    host, per-block host-pair counts, then one pair-key co-group sums
    them. Anchors per page are bounded (a real crawl caps outlinks per
    page), so the exchange is host-vocabulary scale. No driver state."""
    import collections

    from ..functions.links import extract_hrefs, url_host

    def edges_local(df: pd.DataFrame) -> pd.DataFrame:
        cnt: collections.Counter = collections.Counter()
        for src_url, html in zip(df["url"], df["html"]):
            src = url_host(src_url)
            if src is None:
                continue
            for href in extract_hrefs(html):
                dst = url_host(href)
                if dst is not None:
                    cnt[(src, dst)] += 1
        return pd.DataFrame(
            [(s, d, n) for (s, d), n in cnt.items()], columns=["src", "dst", "w"]
        ).astype({"w": np.int64})

    return _one_side(
        _map(pages, edges_local),
        ["src", "dst"],
        lambda e: e.groupby(["src", "dst"], as_index=False, sort=False)["w"].sum(),
    )


def _host_nodes(hg):
    """(node, outw) for every host, outw = Σ out-weights (0 for sinks)."""

    def ends(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": pd.concat([df["src"], df["dst"]], ignore_index=True),
                "outw": np.r_[df["w"].to_numpy(np.int64), np.zeros(len(df), np.int64)],
            }
        )

    return _one_side(
        _map(hg, ends),
        "node",
        lambda n: n.groupby("node", as_index=False, sort=False)["outw"].sum(),
    ).materialize()


def hostrank(hg, iters: int = 3):
    """Weighted directed PageRank over a host graph (src, dst, w) — the
    rank consumer that completes the web-graph story (extract anchors →
    host graph → host authority; crawl-frontier ordering is exactly
    this). Unlike ``pagerank`` (undirected, unweighted co-mention),
    edges are directed with anchor-count weights. Returns (node, outw,
    rank).

    Exactness contract (integer, e12): r0 = S // N over ALL hosts;
    per-unit share = r_t(u) // W_u (W_u = Σ out-weights), scatter w_e ×
    share along each edge, r_{t+1}(v) = tele + (850·Σ)//1000 with tele
    = (150·(S//N))//1000. Hosts with no out-links keep their mass out
    of circulation (standard dangling-mass drop; the oracle does the
    same); hosts with no in-links gather 0 (LEFT-JOIN semantics — the
    update sees their state row only). The DuckDB oracle re-derives the
    host edges from the md5 plant plan and unrolls the same ``iters``
    rounds with ``//``.

    Scale plan: the host graph is vocabulary-scale (hosts ≪ pages —
    ~10^8 hosts for 10^12 pages), so pregel materializes it once;
    ``iters`` pregel rounds; driver state is two scalars (N, tele).
    """
    scale = 10**12
    nodes = _host_nodes(hg)
    r0 = scale // nodes.count()  # host-vocabulary-scale driver scalar
    tele = (150 * r0) // 1000

    def send(f: pd.DataFrame) -> pd.DataFrame:
        f = f[f["outw"] > 0]  # dangling host: mass drops
        share = f["rank"] // f["outw"]
        return pd.DataFrame({"node": f["dst"], "contrib": f["w"] * share})

    def update(s: pd.DataFrame, m) -> pd.DataFrame:
        return s.assign(rank=tele + (850 * _per_node(s, m, "contrib")) // 1000)

    state = _map(nodes, lambda df: df.assign(rank=np.int64(r0)))
    return pregel(state, hg, send, update, iters)


def hits(hg, rounds: int = 2):
    """HITS hubs & authorities (Kleinberg 1999) over a host graph (src,
    dst, w) — the MUTUAL-recursion kernel family (two coupled score
    vectors alternating a→h→a), distinct from the single-vector
    recurrences (pagerank/hostrank sums, k-core deletion, labelprop
    mode, BFS min, neighbor-agg mean): auth(v) = Σ_{u→v} w·hub(u),
    hub(u) = Σ_{u→v} w·auth(v), each L1-normalized to the e6 grid
    after every half-step. Returns (node, hub, auth).

    Exactness contract (integer, e6): hub₀ = 10⁶ // N over all hosts;
    raw scores are exact int64 sums; normalization is
    x' = (10⁶ · x_raw) // Σ x_raw computed in arbitrary-precision
    Python ints (the oracle uses HUGEINT for the same product — int64
    would overflow the 10⁶·raw product beyond ~10⁶-page corpora).
    Hosts with no in-links get auth 0, no out-links get hub 0 (total
    LEFT-join semantics both sides). The DuckDB oracle re-derives the
    host edges from the md5 plant plan and unrolls the same ``rounds``
    rounds, so the driver value-hashes both final vectors.

    Scale plan: each half-step is one pregel round (auth along the
    edges, hub along the reversed edges) plus ONE driver scalar, the
    normalizer Σ over the host-vocabulary score table — never
    corpus-scale. 2 rounds = 8 co-groups + 4 scalar reduces.
    """
    scale = 10**6
    nodes = _host_nodes(hg)
    s0 = scale // nodes.count()
    rev = _map(hg, lambda df: df.rename(columns={"src": "dst", "dst": "src"}))
    rev = rev.materialize()

    def half_step(state, edges, src_col: str, dst_col: str):
        def send(f: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"node": f["dst"], "v": f["w"] * f[src_col]})

        def update(s: pd.DataFrame, m) -> pd.DataFrame:
            return s.assign(**{dst_col: _per_node(s, m, "v")})

        raw = pregel(state, edges, send, update, 1)
        total = int(raw.sum(dst_col) or 0)

        def normalize(df: pd.DataFrame) -> pd.DataFrame:
            x = (df[dst_col].astype(object) * scale) // total if total else 0
            return df.assign(**{dst_col: np.asarray(x, dtype=np.int64)})

        return _map(raw, normalize)

    seed = {"hub": np.int64(s0), "auth": np.int64(0)}
    state = _map(nodes, lambda df: df[["node"]].assign(**seed))
    for _ in range(rounds):
        state = half_step(state, hg, "hub", "auth")
        state = half_step(state, rev, "auth", "hub")
    return state


# ── queries (``__ray_entry__.queries()``) ────────────────────────────


def kg_comention_planted(sf_dir: str):
    """Entity co-mention graph over the planted flagship output. The
    oracle self-joins the ground-truth mentioned_in derivation."""
    return comention(_planted_triples(sf_dir)).sort(["ea", "eb"])


def kg_degree_planted(sf_dir: str):
    """Per-entity degree stats over the planted flagship graph — the
    KG-analytics consumer of the triple output (total triples and
    mentioned_in edges per subject); the oracle wraps the planted
    ground-truth SQL derivation as a subquery, so the whole pipeline →
    graph → analytics path is value-hash-checked."""
    return degree(_planted_triples(sf_dir)).sort("subj")


def _planted_edges(sf_dir: str, min_docs: int = 1):
    return strong_edges(comention(_planted_triples(sf_dir)), min_docs)


def kg_pagerank_planted(sf_dir: str, iters: int = 3):
    """``pagerank`` over the whole planted co-mention graph:
    (subj, pagerank_e12)."""
    return _final(
        pagerank(_planted_edges(sf_dir), iters),
        {"node": "subj", "rank": "pagerank_e12"},
        "subj",
    )


def kg_neighbor_agg_planted(sf_dir: str, min_docs: int = 4, rounds: int = 2):
    """``neighbor_agg`` over the strong co-mention graph (edges seen in
    >= ``min_docs`` documents): (subj, f0, …, f_rounds)."""
    cols = {"node": "subj", **{f"f{t}": f"f{t}" for t in range(rounds + 1)}}
    return _final(neighbor_agg(_planted_edges(sf_dir, min_docs), rounds), cols, "subj")


def kg_components_planted(sf_dir: str, min_docs: int = 8):
    """``components`` of the strong co-mention graph, value-checked
    against an independent recursive-CTE transitive closure in DuckDB.
    At the planted corpus's threshold the graph splits into 4
    non-trivial communities, so the check is not vacuous."""
    return components(_planted_edges(sf_dir, min_docs)).sort("subj")


def kg_triangles_planted(sf_dir: str, min_docs: int = 4):
    """``triangles`` of the strong co-mention graph: (subj,
    n_triangles), zeros included. At ``min_docs=4`` the planted graph
    keeps 166 triangles over a sparse subgraph, so the check is
    non-vacuous and most wedges do NOT close (the closure join is
    actually exercised). The DuckDB oracle recomputes the triangle set
    via an independent three-way self-join."""
    return _final(
        triangles(_planted_edges(sf_dir, min_docs)),
        {"node": "subj", "n_triangles": "n_triangles"},
        "subj",
    )


def kg_clustcoef_planted(sf_dir: str, min_docs: int = 4):
    """``clustcoef`` of the strong co-mention graph: (subj, deg,
    n_triangles, clustcoef_e6). The DuckDB oracle recomputes triangles
    via an independent three-way self-join and the coefficient with
    the same floor arithmetic."""
    cols = {"node": "subj", "deg": "deg", "n_triangles": "n_triangles"}
    return _final(
        clustcoef(_planted_edges(sf_dir, min_docs)),
        {**cols, "clustcoef_e6": "clustcoef_e6"},
        "subj",
    )


def kg_kcore_planted(sf_dir: str, min_docs: int = 6, k: int = 4, rounds: int = 5):
    """``kcore`` of the strong co-mention graph: (subj, in_core,
    deg_in_core) for every node."""

    def flags(df: pd.DataFrame) -> pd.DataFrame:
        d = df["deg"].to_numpy(np.int64)
        return pd.DataFrame(
            {"subj": df["node"], "in_core": (d > 0).astype(np.int64), "deg_in_core": d}
        )

    return _map(kcore(_planted_edges(sf_dir, min_docs), k, rounds), flags).sort("subj")


def kg_linkpred_planted(sf_dir: str, min_docs: int = 4):
    """``linkpred`` over the strong co-mention graph. At min_docs=4 the
    planted graph yields 142 predicted non-edges out of 244 wedge
    pairs, so the existing-edge anti-join is genuinely exercised. The
    DuckDB oracle re-derives the same scores by an independent wedge
    self-join + NOT EXISTS anti-join."""
    return linkpred(_planted_edges(sf_dir, min_docs)).sort(["ea", "eb"])


def kg_bfs_depth_planted(sf_dir: str, min_docs: int = 6, rounds: int = 7):
    """``bfs_depth`` over the strong co-mention graph: (subj, depth)."""
    return _final(
        bfs_depth(_planted_edges(sf_dir, min_docs), rounds),
        {"node": "subj", "depth": "depth"},
        "subj",
    )


def kg_labelprop_planted(sf_dir: str, min_docs: int = 6, rounds: int = 7):
    """``labelprop`` over the strong co-mention graph: (subj,
    community)."""
    return _final(
        labelprop(_planted_edges(sf_dir, min_docs), rounds),
        {"node": "subj", "lbl": "community"},
        "subj",
    )


def kg_modularity_planted(sf_dir: str, min_docs: int = 6):
    """``modularity`` of the ``labelprop`` communities over the same
    strong edges (the planted KG is built once). The oracle re-runs the
    full 7-round labelprop unroll, so the composed pipeline
    (communities → per-community edge/degree rollups → Q) is
    value-hash-checked end to end."""
    edges = _planted_edges(sf_dir, min_docs)
    return modularity(edges, labelprop(edges)).sort("community")


def kg_hostgraph_planted(sf_dir: str):
    """``hostgraph`` over the md5-planted linked corpus: (src_host,
    dst_host, n_links). The Ray side does the REAL work (attribute
    quoting and ``&amp;`` entity decoding are exercised on every href);
    the DuckDB oracle never parses HTML: it re-derives each page's
    outlink targets from the md5 plant plan
    (``sources/planted.py:hostgraph_oracle_sql``), so a missed anchor,
    a broken entity decode or a bad host parse changes the value hash.
    """
    return _final(
        _planted_hostgraph(sf_dir),
        {"src": "src_host", "dst": "dst_host", "w": "n_links"},
        ["src_host", "dst_host"],
    )


def _planted_hostgraph(sf_dir: str):
    from ..sources.planted import linked_pages_dataset

    return hostgraph(linked_pages_dataset(sf_dir)).materialize()


def kg_hostrank_planted(sf_dir: str, iters: int = 3):
    """``hostrank`` over the REAL extracted planted host graph: (host,
    hostrank_e12)."""
    return _final(
        hostrank(_planted_hostgraph(sf_dir), iters),
        {"node": "host", "rank": "hostrank_e12"},
        "host",
    )


def kg_hits_planted(sf_dir: str, rounds: int = 2):
    """``hits`` over the REAL extracted planted host graph: (host,
    auth_e6, hub_e6)."""
    return _final(
        hits(_planted_hostgraph(sf_dir), rounds),
        {"node": "host", "auth": "auth_e6", "hub": "hub_e6"},
        "host",
    )
