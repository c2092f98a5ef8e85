"""Actor pools for stateful stages only.

Each map operator in a Dataset's logical plan carries its compute
strategy. A stage whose ``__init__`` builds nothing runs as tasks, so a
query made only of such stages starts no actor process. The pair
verifier builds its memo lazily and runs as tasks too, so ``build_kg``
starts one actor pool: the mention extractor (a compiled lexicon per
actor).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd
from ray.data._internal.compute import ActorPoolStrategy
from ray.data._internal.logical.operators.map_operator import AbstractMap

SF = "/root/testdata/sf0.001"


def _actor_maps(ds) -> list:
    """Names of the actor-pool map operators in ``ds``'s logical plan."""
    out, stack, seen = [], [ds._logical_plan.dag], set()
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        if isinstance(op, AbstractMap) and isinstance(op._compute, ActorPoolStrategy):
            out.append(op.name)
        stack.extend(op.input_dependencies)
    return out


def test_stateless_stages_start_no_actor_pool(ray_session):
    from hinbox_ray.pipelines.textops import _minhash_signatures
    from hinbox_ray.stages.multimodal import (
        multimodal_audio_stats,
        multimodal_features,
        multimodal_frame_sample,
    )

    for ds in (
        _minhash_signatures(SF),
        multimodal_features(SF),
        multimodal_audio_stats(SF),
        multimodal_frame_sample(SF),
    ):
        assert _actor_maps(ds) == []


def test_mention_extractor_is_an_actor_pool(ray_session):
    from hinbox_ray.stages.mentions import extract_mentions

    docs = rd.from_arrow(
        pa.table(
            {
                "url": ["https://ex.org/0"],
                "warc_ts": pa.array([None], type=pa.timestamp("us")),
                "text": ["Carol Rosenberg reported from Guantanamo Bay."],
            }
        )
    )
    assert len(_actor_maps(extract_mentions(docs, concurrency=1))) == 1


def test_pair_verifier_runs_as_tasks(ray_session):
    """The verifier maps an instance, not a class: no actor pool of its
    own, and Ray fuses it into the pair-dedup exchange's output tasks."""
    from hinbox_ray.stages.cogroup import bucketed_drop_duplicates
    from hinbox_ray.stages.verify import MATCH, verify_pairs

    pairs = rd.from_arrow(
        pa.table(
            {
                "u": [1],
                "v": [2],
                "entity_type": ["organizations"],
                "name_u": ["Department of Defense"],
                "name_v": ["DoD"],
                "start_date_u": [""],
                "start_date_v": [""],
                "aliases_u": [""],
                "aliases_v": [""],
            }
        )
    )
    assert _actor_maps(verify_pairs(pairs)) == []
    verdicts = verify_pairs(bucketed_drop_duplicates(pairs, ["u", "v"]))
    verdicts = verdicts.materialize()
    assert verdicts.take_all()[0]["verdict"] == MATCH
    assert "MapBatches(run)->MapBatches(PairVerifier)" in verdicts.stats()
