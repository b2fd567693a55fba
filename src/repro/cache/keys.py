"""Content-addressed key derivation for the result cache.

A cache entry is addressed by the triple

    (game fingerprint, solver name, canonical solve parameters)

hashed into a single hex key.  Every component is content-derived:

* the **game fingerprint** is :func:`game_sha256` (re-exported from
  :mod:`repro.obs.ledger`), the sha256 of the canonical
  :func:`repro.core.serialize.game_to_json` document — the same hash the
  provenance ledger records, so ledger records and cache entries for one
  game carry one identity.  Weighted games serialize their weight
  vector, so two games differing only in weights never share a key;
* the **solver name** is the ledger entry-point string
  (``equilibria.solve``, ``solvers.double_oracle``, ...);
* the **params** dict is reduced to canonical JSON by
  :func:`repro.obs.ledger.canonical_json` — key-sorted, hash-seed
  independent, rejecting anything without a deterministic encoding, so
  semantically equal parameter sets always derive the same key.

Nothing here touches the store: key derivation is pure, and the solvers
only pay for it when the cache is enabled.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

from repro.obs import metrics
from repro.obs.ledger import canonical_json, game_sha256

__all__ = ["game_sha256", "params_json", "cache_key"]


def params_json(params: Dict[str, Any]) -> str:
    """Canonical JSON text of a solver's parameter dict.

    Raises ``TypeError`` if a parameter has no canonical encoding — a
    solver passing an exotic object as a cache parameter is a bug, not
    something to stringify into a near-miss key.
    """
    return canonical_json(params)


def cache_key(fingerprint: str, solver: str, params_text: str) -> str:
    """The store key for ``(game fingerprint, solver, canonical params)``.

    The three components are length-prefixed before hashing so no pair of
    distinct triples can collide by concatenation ambiguity.
    """
    with metrics.timer("cache.key.seconds"):
        h = hashlib.sha256()
        for part in (fingerprint, solver, params_text):
            data = part.encode("utf-8")
            h.update(str(len(data)).encode("ascii"))
            h.update(b":")
            h.update(data)
        return h.hexdigest()
