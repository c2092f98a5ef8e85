"""Cross-op invariants for the round-5 sketch/sample operators —
properties the oracle equality cannot express (they relate TWO ops or
an op to ground truth)."""

from __future__ import annotations

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def test_bloom_flags_superset_of_exact(ray_session):
    """Bloom decontamination must never miss a truly contaminated doc
    (one-sided false positives only)."""
    from hinbox_ray.pipelines.textops import (
        doc_bloom_decontaminate,
        doc_decontaminate,
    )

    exact = doc_decontaminate(SF).to_pandas().set_index("doc_id")
    bloom = doc_bloom_decontaminate(SF).to_pandas().set_index("doc_id")
    assert (exact.index == bloom.index).all()
    # same gram universe
    assert (exact["n_grams"] == bloom["n_grams"]).all()
    # every exact hit is a bloom hit; bloom may only over-count
    assert (bloom["n_bloom_hits"] >= exact["n_hits"]).all()
    assert (bloom["flagged"] >= exact["contaminated"]).all()
    # non-vacuous: there is real contamination in the fixture
    assert exact["contaminated"].sum() > 0


def test_cms_estimates_overcount_true_frequencies(ray_session):
    """CMS estimates are >= the true term counts, and exact when no
    other term collides in all d rows (spot-checked via the inverted
    index's exact total_tf)."""
    from hinbox_ray.pipelines.textops import doc_inverted_index, doc_term_cms

    inv = doc_inverted_index(SF).to_pandas().set_index("term")
    cms = doc_term_cms(SF).to_pandas().set_index("term")
    truth = inv["total_tf"]
    for term, est in cms["est_cnt"].items():
        assert est >= truth[term], (term, est, truth[term])
    # heavy hitters really are heavy: every kept term's TRUE count is
    # within the sketch's additive error of the threshold; in a
    # low-collision fixture the estimates are near-exact
    assert (cms["est_cnt"].to_numpy() >= 0).all()
    assert len(cms) > 0


def test_reservoir_sample_is_k_smallest_hashes(ray_session):
    from hinbox_ray.pipelines.textops import _sample_hash, doc_reservoir_sample
    import pyarrow.parquet as pq

    ids = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
        .to_pandas()["doc_id"]
        .to_numpy()
    )
    hs = _sample_hash(ids)
    order = np.lexsort((ids, hs))
    want = set(ids[order[:100]].tolist())
    got = doc_reservoir_sample(SF).to_pandas()
    assert set(got["doc_id"].tolist()) == want
    assert len(got) == min(100, len(ids))
    # smp_h column is the real sampling key
    assert (got["smp_h"].to_numpy() == _sample_hash(got["doc_id"].to_numpy())).all()


def test_stratified_sample_covers_every_source(ray_session):
    import pyarrow.parquet as pq

    from hinbox_ray.pipelines.textops import doc_stratified_sample

    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "source"]
    ).to_pandas()
    got = doc_stratified_sample(SF).to_pandas()
    per_src = got.groupby("source").size()
    for src, grp in docs.groupby("source"):
        assert per_src.get(src, 0) == min(20, len(grp))
    # disjoint strata, no duplicate docs
    assert got["doc_id"].is_unique


def test_pagerank_mass_and_order(ray_session):
    """Total rank mass stays within integer-floor loss of the scale,
    and the planted hub entities outrank the leaves."""
    import __ray_entry__ as E

    pr = E.queries()["kg_pagerank_planted"](SF).to_pandas()
    n = len(pr)
    assert n > 0
    total = int(pr["pagerank_e12"].sum())
    # each of the 2 floor divisions per node/iteration loses < 1000
    # rank units; 3 iterations x n nodes bounds the leak
    assert 0 < total <= 10**12
    assert total >= 10**12 - 10**12 // 10  # within 10% of full mass
    assert pr["pagerank_e12"].min() > 0


def test_components_split_is_nontrivial(ray_session):
    """The strong-comention threshold must actually split the planted
    graph (4 communities / 22 nodes), and every representative is a
    member of its own component."""
    import __ray_entry__ as E

    got = E.queries()["kg_components_planted"](SF).to_pandas()
    assert len(got) == 22
    assert got["component_rep"].nunique() == 4
    assert set(got["component_rep"]) <= set(got["subj"])
    # the rep really is the lexicographic min of its members
    for rep, grp in got.groupby("component_rep"):
        assert grp["subj"].min() == rep


def test_triangle_counts_match_bruteforce(ray_session):
    """kg_triangles_planted (degree-ordered wedge-check) vs a
    driver-side brute-force triangle enumeration over the SAME strong
    co-mention edges — independent of both the Ray plumbing and the
    SQL oracle's three-way join."""
    from itertools import combinations

    import __ray_entry__ as E

    com = E.queries()["kg_comention_planted"](SF).to_pandas()
    strong = com[com["n_docs"] >= 4]
    adj: dict = {}
    for a, b in zip(strong["ea"], strong["eb"]):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    truth = {n: 0 for n in adj}
    for a, b, c in combinations(sorted(adj), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            truth[a] += 1
            truth[b] += 1
            truth[c] += 1

    got = E.queries()["kg_triangles_planted"](SF).to_pandas()
    assert len(got) == len(truth)
    for subj, n in zip(got["subj"], got["n_triangles"]):
        assert n == truth[subj], (subj, n, truth[subj])
    # non-vacuous: the planted graph keeps real triangles at this cut
    assert sum(truth.values()) > 0
    # handshake invariant: the global count is sum/3, an integer
    assert sum(truth.values()) % 3 == 0


def _edge_case_corpus(sf_dir: str) -> pd.DataFrame:
    """Documents that stress the per-bucket join kernels, written as
    16 parquet files so the read yields many blocks: every set shares
    the shingle "common shared gram"; docs 1-3 have equal set sizes
    (8), so their candidate order rests on doc_id alone, and each pair
    of them shares 6 of 10 shingles — exactly at 100*i == 60*u."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    base = "common shared gram p q r s t"
    texts = [f"{base} {x}1 {x}2" for x in "abc"]
    texts.append("common shared gram p q r s x1 x2 x3")  # 5/11: below
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(40)]
    for _ in range(60):
        tail = " ".join(rng.choice(words, int(rng.integers(2, 9))))
        texts.append(f"common shared gram {tail}")
    docs = pd.DataFrame(
        {"doc_id": np.arange(1, len(texts) + 1, dtype=np.int64), "text": texts}
    )
    out = os.path.join(sf_dir, "documents.parquet")
    os.makedirs(out)
    for i, part in enumerate(np.array_split(docs, 16)):
        pq.write_table(
            pa.Table.from_pandas(part, preserve_index=False),
            os.path.join(out, f"part-{i:02d}.parquet"),
        )
    return docs


def test_jaccard_join_exact_vs_bruteforce(ray_session, tmp_path):
    """doc_jaccard_join (prefix-filter candidates + verify) finds
    EXACTLY the pairs a quadratic all-pairs scan finds — the prefix
    filter must be lossless at the threshold. Runs on the fixture and
    on a many-block edge-case corpus (``_edge_case_corpus``)."""
    import pyarrow.parquet as pq

    from hinbox_ray.pipelines.textops import _shingle_hashes, doc_jaccard_join
    from hinbox_ray.sources.reader import read_parquet_clean

    edge_sf = str(tmp_path)
    edge_docs = _edge_case_corpus(edge_sf)
    assert read_parquet_clean(
        f"{edge_sf}/documents.parquet"
    ).materialize().num_blocks() >= 8

    for sf in (SF, edge_sf):
        docs = pq.read_table(
            f"{sf}/documents.parquet", columns=["doc_id", "text"]
        ).to_pandas()
        sets = {
            int(d): set(_shingle_hashes(t).tolist())
            for d, t in zip(docs["doc_id"], docs["text"])
            if len(_shingle_hashes(t))
        }
        ids = sorted(sets)
        truth = {}
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                inter = len(sets[a] & sets[b])
                union = len(sets[a]) + len(sets[b]) - inter
                if 100 * inter >= 60 * union:
                    truth[(a, b)] = (
                        inter,
                        len(sets[a]),
                        len(sets[b]),
                        (2_000_000 * inter + union) // (2 * union),
                    )

        got = doc_jaccard_join(sf).to_pandas()
        pairs = {
            (int(r.doc_a), int(r.doc_b)): (
                int(r.n_inter),
                int(r.size_a),
                int(r.size_b),
                int(r.jac_e6),
            )
            for r in got.itertuples()
        }
        assert pairs == truth, sf
        assert len(truth) > 0  # non-vacuous

    # the edge cases hold as built
    assert len(edge_docs) == len(sets)
    assert set.intersection(*sets.values())  # one shingle in every set
    for pair in [(1, 2), (1, 3), (2, 3)]:
        assert truth[pair] == (6, 8, 8, 600_000)  # 100*6 == 60*10
    assert (1, 4) not in truth


def test_jaccard_queries_with_no_similar_pair_return_no_rows(ray_session, tmp_path):
    """Three docs with disjoint shingle sets: the prefix-filter join and
    the sampled grid path (one doc per block) return 0 rows, no error —
    their co-groups and final sorts see empty blocks only."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from hinbox_ray.pipelines.textops import doc_jaccard_join, doc_jaccard_sample

    texts = ["alpha beta gamma delta", "one two three four", "red green blue cyan"]
    pq.write_table(
        pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()), "text": texts}),
        f"{tmp_path}/documents.parquet",
    )
    assert doc_jaccard_join(str(tmp_path)).materialize().count() == 0
    sample = doc_jaccard_sample(str(tmp_path), modulo=1, rows_per_block=1)
    assert sample.materialize().count() == 0


def test_source_percentiles_match_numpy(ray_session):
    """corpus_source_percentiles vs a numpy sort per source — pins the
    ceil(q*n)-1 quantile_disc convention independently of DuckDB."""
    import pyarrow.parquet as pq

    from hinbox_ray.pipelines.textops import corpus_source_percentiles

    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["source", "n_chars"]
    ).to_pandas()
    got = corpus_source_percentiles(SF).to_pandas()
    assert len(got) == docs["source"].nunique() * 3
    for r in got.itertuples():
        vals = np.sort(
            docs.loc[docs["source"] == r.source, "n_chars"].to_numpy()
        )
        rank = max(0, min(len(vals) - 1, -(-r.pct * len(vals) // 100) - 1))
        assert r.n_chars_pct == vals[rank], (r.source, r.pct)


def test_kcore_matches_peel_to_fixpoint(ray_session):
    """kg_kcore_planted (5 fixed peel rounds) vs an independent
    peel-until-stable loop over the SAME strong co-mention edges —
    proves the fixed-round unroll reaches the true fixpoint AND that
    the peel actually cascades (>= 2 removal rounds) so the iteration
    is non-vacuous."""
    import __ray_entry__ as E

    com = E.queries()["kg_comention_planted"](SF).to_pandas()
    strong = com[com["n_docs"] >= 6]
    edges = set(zip(strong["ea"], strong["eb"]))
    nodes0 = {x for e in edges for x in e}
    removal_rounds = 0
    while True:
        deg: dict = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        rm = {n for n, d in deg.items() if d < 4}
        if not rm:
            break
        edges = {(a, b) for a, b in edges if a not in rm and b not in rm}
        removal_rounds += 1
    assert removal_rounds >= 2  # the iteration is exercised
    assert removal_rounds <= 5  # the fixed-round unroll reaches fixpoint
    deg = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1

    got = E.queries()["kg_kcore_planted"](SF).to_pandas()
    assert len(got) == len(nodes0)
    assert set(got.loc[got["in_core"] == 1, "subj"]) == set(deg)
    assert 0 < len(deg) < len(nodes0)  # non-trivial core
    for r in got.itertuples():
        assert r.deg_in_core == deg.get(r.subj, 0), (r.subj, r.deg_in_core)
        if r.in_core:
            assert r.deg_in_core >= 4  # k-core degree invariant


def test_labelprop_matches_sync_sim(ray_session):
    """kg_labelprop_planted (7 fixed synchronous rounds) vs an
    independent synchronous-LPA loop over the SAME strong co-mention
    edges — pins the mode-argmax tie-break, proves the fixed-round
    unroll reaches the fixpoint, and that the propagation actually
    cascades (>= 3 rounds of label changes) into a non-trivial
    partition (more than one community, fewer than n)."""
    from collections import Counter, defaultdict

    import __ray_entry__ as E

    com = E.queries()["kg_comention_planted"](SF).to_pandas()
    strong = com[com["n_docs"] >= 6]
    adj = defaultdict(list)
    for a, b in zip(strong["ea"], strong["eb"]):
        adj[a].append(b)
        adj[b].append(a)
    nodes = sorted(adj)
    lab = {n: n for n in nodes}
    rounds_changed = 0
    for _ in range(7):
        cnt = {
            v: Counter(lab[u] for u in adj[v]) for v in nodes
        }
        new = {
            v: min(l for l, c in cnt[v].items() if c == max(cnt[v].values()))
            for v in nodes
        }
        if any(new[v] != lab[v] for v in nodes):
            rounds_changed += 1
        stable = all(new[v] == lab[v] for v in nodes)
        lab = new
    assert rounds_changed >= 3  # the iteration is exercised
    assert stable  # 7 rounds reach the fixpoint

    got = E.queries()["kg_labelprop_planted"](SF).to_pandas()
    assert len(got) == len(nodes)
    for r in got.itertuples():
        assert r.community == lab[r.subj], (r.subj, r.community)
    n_comm = got["community"].nunique()
    assert 1 < n_comm < len(nodes)  # non-trivial partition


def test_linkpred_matches_bruteforce(ray_session):
    """kg_linkpred_planted vs a driver-side brute-force: common
    neighbors of every non-adjacent pair over the SAME strong edges —
    independent of both the Ray wedge plumbing and the SQL self-join."""
    from collections import defaultdict

    import __ray_entry__ as E

    com = E.queries()["kg_comention_planted"](SF).to_pandas()
    strong = com[com["n_docs"] >= 4]
    edges = set(zip(strong["ea"], strong["eb"]))
    adj = defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    truth = {}
    nodes = sorted(adj)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if (a, b) in edges:
                continue
            cn = len(adj[a] & adj[b])
            if cn:
                jac = (10**6 * cn) // (len(adj[a]) + len(adj[b]) - cn)
                truth[(a, b)] = (cn, jac)

    got = E.queries()["kg_linkpred_planted"](SF).to_pandas()
    assert len(got) == len(truth) > 0
    for r in got.itertuples():
        assert (r.cn, r.jac_e6) == truth[(r.ea, r.eb)], (r.ea, r.eb)
    # the anti-join is exercised: some wedge pairs ARE existing edges
    assert any(len(adj[a] & adj[b]) > 0 for a, b in edges)


def test_bfs_depth_matches_python_bfs(ray_session):
    """kg_bfs_depth_planted (7 fixed min-frontier rounds) vs a plain
    queue BFS over the SAME strong edges — pins the depths, proves
    rounds >= eccentricity (with the cascade actually deep: ecc >= 3),
    and that the source is the lexicographic min node."""
    from collections import defaultdict, deque

    import __ray_entry__ as E

    com = E.queries()["kg_comention_planted"](SF).to_pandas()
    strong = com[com["n_docs"] >= 6]
    adj = defaultdict(set)
    for a, b in zip(strong["ea"], strong["eb"]):
        adj[a].add(b)
        adj[b].add(a)
    src = min(adj)
    depth = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                q.append(v)
    ecc = max(depth.values())
    assert 3 <= ecc <= 7  # deep cascade, within the fixed rounds

    got = E.queries()["kg_bfs_depth_planted"](SF).to_pandas()
    assert len(got) == len(adj)
    for r in got.itertuples():
        assert r.depth == depth.get(r.subj, -1), (r.subj, r.depth)
    assert int(got.loc[got["subj"] == src, "depth"].iloc[0]) == 0


def test_priority_sample_is_topk_and_weight_sensitive(ray_session):
    import hashlib

    import pyarrow.parquet as pq

    from hinbox_ray.pipelines.textops import doc_priority_sample

    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    w = docs["text"].map(lambda t: len(t.split()) + 1).to_numpy(np.int64)
    u32 = np.fromiter(
        (
            int.from_bytes(
                hashlib.md5(f"ps:{int(d)}".encode()).digest()[8:], "little"
            )
            >> 32
            for d in docs["doc_id"]
        ),
        dtype=np.int64,
        count=len(docs),
    )
    q = (w << np.int64(32)) // (u32 + 1)
    order = np.lexsort((docs["doc_id"].to_numpy(), -q))
    want = docs["doc_id"].to_numpy()[order[:100]]
    got = doc_priority_sample(SF).to_pandas()
    # exact top-k of the independently recomputed priorities, in order
    assert got["doc_id"].tolist() == want.tolist()
    assert (got["priority"].to_numpy() == q[order[:100]]).all()
    # weighted inclusion: the sample's mean weight must exceed the
    # corpus mean (longer docs are proportionally more likely) — the
    # property that distinguishes this from the uniform reservoir
    assert got["weight"].mean() > w.mean()


def test_neighbor_agg_matches_python_sim(ray_session):
    """kg_neighbor_agg_planted (2 mean-smoothing rounds) vs an
    independent dict-based simulation of the same floor recurrence —
    pins every round of the trajectory and that smoothing actually
    moves values (f1 != f0 somewhere, so the rounds are non-vacuous)."""
    from collections import defaultdict

    import __ray_entry__ as E

    com = E.queries()["kg_comention_planted"](SF).to_pandas()
    strong = com[com["n_docs"] >= 4]
    adj = defaultdict(set)
    for a, b in zip(strong["ea"], strong["eb"]):
        adj[a].add(b)
        adj[b].add(a)
    f = {v: len(adj[v]) for v in adj}
    hist = {v: [f[v]] for v in adj}
    for _ in range(2):
        nf = {
            v: (f[v] + sum(f[u] for u in adj[v]) // len(adj[v])) // 2
            for v in adj
        }
        f = nf
        for v in adj:
            hist[v].append(f[v])

    got = E.queries()["kg_neighbor_agg_planted"](SF).to_pandas()
    assert len(got) == len(adj)
    for r in got.itertuples():
        assert [r.f0, r.f1, r.f2] == hist[r.subj], (r.subj,)
    assert (got["f1"] != got["f0"]).any()
    assert (got["f2"] != got["f1"]).any()


def test_modularity_matches_python_recompute(ray_session):
    """kg_modularity_planted vs a direct Python recompute of Newman Q
    from the SAME strong edges and an independent sync-LPA partition —
    pins the per-community rollups and the floor arithmetic, plus the
    mass invariants (Σ n_nodes = |V|, Σ deg_sum = 2m, Σ intra <= m) and
    that the labelprop partition actually scores positive modularity."""
    from collections import Counter, defaultdict

    import __ray_entry__ as E

    com = E.queries()["kg_comention_planted"](SF).to_pandas()
    strong = com[com["n_docs"] >= 6]
    edges = list(zip(strong["ea"], strong["eb"]))
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    nodes = sorted(adj)
    lab = {n: n for n in nodes}
    for _ in range(7):
        cnt = {v: Counter(lab[u] for u in adj[v]) for v in nodes}
        lab = {
            v: min(l for l, c in cnt[v].items() if c == max(cnt[v].values()))
            for v in nodes
        }
    m = len(edges)
    intra = Counter(lab[a] for a, b in edges if lab[a] == lab[b])
    deg_sum = Counter()
    n_nodes = Counter()
    for v in nodes:
        deg_sum[lab[v]] += len(adj[v])
        n_nodes[lab[v]] += 1
    want = {
        c: (
            n_nodes[c],
            intra.get(c, 0),
            deg_sum[c],
            (10**9 * intra.get(c, 0)) // m
            - (10**9 * deg_sum[c] * deg_sum[c]) // (4 * m * m),
        )
        for c in n_nodes
    }

    got = E.queries()["kg_modularity_planted"](SF).to_pandas()
    assert {
        r.community: (r.n_nodes, r.intra_edges, r.deg_sum, r.q_e9)
        for r in got.itertuples()
    } == want
    assert int(got["n_nodes"].sum()) == len(nodes)
    assert int(got["deg_sum"].sum()) == 2 * m
    assert int(got["intra_edges"].sum()) <= m
    assert int(got["q_e9"].sum()) > 0  # a real community structure
