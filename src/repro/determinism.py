"""Seeded randomness helpers — the single sanctioned RNG constructor.

Every stochastic component in the simulator (loss processes, coefficient
seeds, video source jitter, baseline repair seeds) must draw from a
generator derived from an explicit integer seed, so that a benchmark run
is a pure function of its configuration.  The repo linter
(``tools/lint`` rule ``no-raw-rng``) flags direct ``random.Random(...)``
construction inside ``src/repro/`` and points here.

``seeded_rng(seed)`` with no components is byte-for-byte equivalent to
``random.Random(seed)`` — existing golden test expectations keep their
exact streams.  Passing components derives an independent sub-stream
(e.g. ``seeded_rng(cfg.seed, "uplink", path_id)``) so two consumers of
the same configured seed do not accidentally share one sequence.

The other half of determinism is *checking* it: :func:`digest` is the
one canonical content hash (sha256 of compact sorted JSON with every
float rendered by ``float.hex()``) behind stream, soak and fleet
digests, so "same behaviour" means the same thing everywhere.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from typing import Any

__all__ = ["seeded_rng", "hex_floats", "digest"]


def derive_seed(seed: int, *components) -> int:
    """Mix ``components`` into ``seed``, returning a derived integer seed.

    Deterministic across processes and platforms (crc32, not ``hash()``).
    With no components the seed is returned unchanged.
    """
    derived = seed
    for comp in components:
        tag = zlib.crc32(repr(comp).encode("utf-8"))
        derived = (derived * 0x9E3779B1 + tag) & 0xFFFFFFFFFFFFFFFF
    return derived


def seeded_rng(seed: int, *components) -> random.Random:
    """Return a ``random.Random`` seeded from ``seed`` (+ sub-stream tags).

    The one place in ``src/repro/`` allowed to construct the generator
    directly; callers get determinism and the linter gets a single
    whitelisted site.
    """
    return random.Random(derive_seed(seed, *components))  # lint: disable=no-raw-rng -- this helper IS the sanctioned constructor


def hex_floats(value: Any) -> Any:
    """Recursively replace floats with ``float.hex()`` strings.

    Canonicalises a JSON-able document for digesting: hex rendering is
    bit-exact both ways, so two documents digest equal iff every float
    in them is the *same double*, not merely printed alike.
    """
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hex_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hex_floats(v) for v in value]
    return value


def digest(doc: Any) -> str:
    """sha256 over the canonical JSON form of a JSON-able document."""
    text = json.dumps(hex_floats(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
