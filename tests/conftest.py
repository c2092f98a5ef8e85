"""Shared fixtures: ONE Ray session per pytest run."""

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def audit_triples():
    """The range-layout audit of a written ``triples/`` directory,
    ``scripts/validate_shards.validate_triples_dir``."""
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
    from validate_shards import validate_triples_dir

    return validate_triples_dir
