"""Deterministic hashing kernels: content hashes, entity ids, seeded
per-row pseudo-randomness, and hashed character-n-gram embeddings.

Everything here is a pure function of its inputs (no wall clock, no RNG
state), so re-runs and distributed re-executions are idempotent — the
property the reference gets from its content-addressed caches
(/root/reference/src/utils/cache_utils.py:77-92,
src/utils/extraction_cache.py:88-111) and that our lineage manifests
rely on.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

import numpy as np

_U64 = np.uint64


def sha256_hex(text: str) -> str:
    """Content hash of a text (lineage + cache keys)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def entity_id(entity_type: str, canonical_key: str) -> str:
    """Deterministic entity id: both the engine and the oracle agree on it.

    The reference's entity identity is its dict key (name / (name,type) /
    (title,start_date), src/engine/mergers.py:114-139); the triple view
    hashes (entity_type, canonical key) so ids are stable across engines.
    """
    h = hashlib.sha256(f"{entity_type}\x1f{canonical_key}".encode("utf-8")).hexdigest()
    return f"e:{entity_type[:3]}:{h[:16]}"


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 — deterministic per-row pseudo-randomness.

    Used by the synthetic page generator (seeded by doc_id) and by key
    salting. Public-domain algorithm (Steele et al., "Fast splittable
    pseudorandom number generators").
    """
    x = x.astype(_U64, copy=True)
    x += _U64(0x9E3779B97F4A7C15)
    z = x
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def hash_str_u64(values: Sequence[str], seed: int = 0) -> np.ndarray:
    """Deterministic 64-bit hash per string (stable across processes,
    unlike Python's salted ``hash``)."""
    out = np.empty(len(values), dtype=_U64)
    seed_bytes = seed.to_bytes(8, "little")
    for i, v in enumerate(values):
        d = hashlib.blake2b(
            v.encode("utf-8"), digest_size=8, key=seed_bytes
        ).digest()
        out[i] = int.from_bytes(d, "little")
    return out


def char_ngrams(text: str, n: int = 3) -> List[str]:
    """Character n-grams of a padded string ("$name$" style shingles)."""
    padded = f"\x02{text}\x03"
    if len(padded) <= n:
        return [padded]
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


def ngram_embedding(
    text: str, dim: int = 64, n: int = 3, dtype=np.float32
) -> np.ndarray:
    """Hashed char-n-gram embedding, L2-normalized.

    The engine's deterministic stand-in for the reference's sentence
    embeddings (/root/reference/src/utils/embeddings/manager.py): a pure
    function of the text, so the Ray pipeline and the driver-side oracle
    compute identical vectors. Captures surface similarity (good for
    transliteration variants) which is exactly what the merge cosine gate
    needs in the deterministic test world.
    """
    vec = np.zeros(dim, dtype=np.float64)
    for g in char_ngrams(text, n):
        d = hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(d, "little")
        idx = h % dim
        sign = 1.0 if (h >> 32) & 1 else -1.0
        vec[idx] += sign
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec.astype(dtype)


def md5_ngram_embedding(
    text: str, dim: int = 64, n: int = 3, dtype=np.float32
) -> np.ndarray:
    """Hashed char-n-gram SIGNED-COUNT vector, md5-based and
    UNnormalized — the oracle-expressible sibling of
    ``ngram_embedding`` (round-4: gives ``doc_embed`` an exact DuckDB
    oracle).

    Token hash = md5 bytes [8:16] little-endian == DuckDB
    ``md5_number_lower(gram)``; bucket = h % dim; sign = bit 32.
    Unnormalized integer counts (stored as float32) make every derived
    invariant (l2sq, weighted sum) exact integer arithmetic on both
    engines; cosine consumers are scale-invariant anyway."""
    vec = np.zeros(dim, dtype=np.float64)
    for g in char_ngrams(text, n):
        h = int.from_bytes(hashlib.md5(g.encode("utf-8")).digest()[8:], "little")
        vec[h % dim] += 1.0 if (h >> 32) & 1 else -1.0
    return vec.astype(dtype)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0.0 when either is zero)."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
