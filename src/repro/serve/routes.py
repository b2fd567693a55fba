"""Endpoint registry for the solve service: validate, probe, run, record.

Each endpoint is an :class:`EndpointSpec` tying a URL name to a runner
over the library entry points, reusing the canonical result codecs so a
served response body is exactly the stored/replayed cache document
wrapped in the ``repro.serve/response/v1`` envelope.

The request lifecycle is deliberately ordered:

1. **validate** (:func:`repro.serve.schemas.parse_request`) — nothing
   invalid ever reaches a worker, mints a cache key or writes a ledger
   record;
2. **probe** the result cache with the validated params, which are the
   library entry point's keyword arguments name for name — the same
   dictionary the in-process solver probes with.  Hits are decoded and
   served inline (no worker slot), recorded with ``cache_hit=True``;
3. **run** on a worker thread, wrapped in a ``serve.<endpoint>`` ledger
   run (which publishes ``run.start`` / ``run.end`` on the event bus)
   nested around the solver's own record.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, NamedTuple, Optional

import repro.cache as result_cache
from repro.core.game import GameError, TupleGame
from repro.core.serialize import solve_result_to_json
from repro.equilibria import NoEquilibriumFoundError, solve_game
from repro.obs import get_logger, metrics, tracing
from repro.obs import ledger as obs_ledger
from repro.solvers.double_oracle import (
    double_oracle,
    double_oracle_result_to_json,
)
from repro.solvers.fictitious_play import (
    fictitious_play,
    fictitious_play_result_to_json,
)
from repro.solvers.ranges import (
    StrategyRanges,
    attacker_vertex_ranges,
    defender_edge_ranges,
)
from repro.serve.schemas import (
    RESPONSE_SCHEMA,
    RequestError,
    parse_request,
)

__all__ = ["ENDPOINTS", "EndpointSpec", "PreparedRequest", "prepare"]

_log = get_logger("repro.serve.routes")


def _solve_payload(game: TupleGame, params: Dict[str, Any]) -> Any:
    result = solve_game(game, **params)
    return json.loads(solve_result_to_json(result))


def _double_oracle_payload(game: TupleGame, params: Dict[str, Any]) -> Any:
    result = double_oracle(game, **params)
    return json.loads(double_oracle_result_to_json(result))


def _fictitious_play_payload(game: TupleGame, params: Dict[str, Any]) -> Any:
    result = fictitious_play(game, **params)
    return json.loads(fictitious_play_result_to_json(result))


def _ranges_doc(ranges: StrategyRanges) -> Dict[str, Any]:
    ordered = sorted(ranges.ranges.items(),
                     key=lambda item: ranges.sort_key(item[0]))

    def as_json(key: Any) -> Any:
        return list(key) if isinstance(key, tuple) else key

    return {
        "value": ranges.value,
        "ranges": [[as_json(key), low, high] for key, (low, high) in ordered],
        "required": [as_json(key) for key in ranges.required()],
        "usable": [as_json(key) for key in ranges.usable()],
    }


def _ranges_payload(game: TupleGame, params: Dict[str, Any]) -> Any:
    payload: Dict[str, Any] = {}
    if params["side"] in ("attacker", "both"):
        payload["attacker"] = _ranges_doc(
            attacker_vertex_ranges(game, tuple_limit=params["tuple_limit"])
        )
    if params["side"] in ("defender", "both"):
        payload["defender"] = _ranges_doc(
            defender_edge_ranges(game, tuple_limit=params["tuple_limit"])
        )
    return payload


class EndpointSpec(NamedTuple):
    """One POST endpoint: its runner plus its cache identity.

    ``cache_solver`` names the probe the library entry point performs
    internally; the validated params are that entry point's keyword
    arguments, so probing with them lets the service answer repeat
    requests without occupying a worker.  Endpoints whose library calls
    do not cache (``/ranges``) set ``cache_solver=None``.
    """

    name: str
    runner: Callable[[TupleGame, Dict[str, Any]], Any]
    cache_solver: Optional[str] = None


#: URL name (without the leading slash) -> spec.
ENDPOINTS: Dict[str, EndpointSpec] = {
    "solve": EndpointSpec("solve", _solve_payload,
                          cache_solver="equilibria.solve"),
    "double-oracle": EndpointSpec("double-oracle", _double_oracle_payload,
                                  cache_solver="solvers.double_oracle"),
    "fictitious-play": EndpointSpec("fictitious-play",
                                    _fictitious_play_payload,
                                    cache_solver="solvers.fictitious_play"),
    "ranges": EndpointSpec("ranges", _ranges_payload),
}


def _envelope(name: str, payload: Any, cache_hit: bool) -> Dict[str, Any]:
    return {
        "schema": RESPONSE_SCHEMA,
        "endpoint": name,
        "cache_hit": cache_hit,
        "result": payload,
    }


class PreparedRequest:
    """A validated request: either an inline response or worker work.

    ``response`` is set when the result cache answered (no worker slot
    needed); otherwise ``run`` is the thunk the app hands to the pool.
    """

    __slots__ = ("endpoint", "response", "run")

    def __init__(self, endpoint: str,
                 response: Optional[Dict[str, Any]] = None,
                 run: Optional[Callable[[], Dict[str, Any]]] = None) -> None:
        self.endpoint = endpoint
        self.response = response
        self.run = run


def _translate(endpoint: str, exc: GameError) -> RequestError:
    """Map library failures onto the structured error contract."""
    if isinstance(exc, RequestError):
        return exc
    if isinstance(exc, NoEquilibriumFoundError):
        return RequestError(str(exc), status=422, code="no-equilibrium")
    return RequestError(str(exc), status=422, code="game-error")


def prepare(endpoint: str, body: bytes) -> PreparedRequest:
    """Validate ``body`` for ``endpoint`` and decide how to answer it.

    Raises :class:`~repro.serve.schemas.RequestError` on anything
    invalid; returns a :class:`PreparedRequest` whose inline ``response``
    is populated on a cache hit (the request never occupies a worker)
    and whose ``run`` thunk is populated otherwise.  The thunk performs
    its own error translation, so the app only ever sees
    :class:`RequestError` out of either path.
    """
    spec = ENDPOINTS.get(endpoint)
    if spec is None:
        raise RequestError(f"unknown endpoint /{endpoint}",
                           status=404, code="not-found")
    with tracing.span("serve.prepare", endpoint=endpoint), \
            metrics.timer("serve.prepare.seconds"):
        game, params = parse_request(endpoint, body)

        if spec.cache_solver is not None:
            probe = result_cache.lookup(game, spec.cache_solver, params)
            if probe.hit:
                metrics.counter("serve.cache_hit.count").inc()
                with obs_ledger.run(f"serve.{endpoint}", game=game,
                                    cache_hit=True, **params):
                    payload = json.loads(probe.payload)
                _log.info("serve.cache_hit", endpoint=endpoint,
                          trace_id=tracing.current_trace_id())
                return PreparedRequest(
                    endpoint,
                    response=_envelope(endpoint, payload, cache_hit=True),
                )

    def run() -> Dict[str, Any]:
        try:
            with obs_ledger.run(f"serve.{endpoint}", game=game,
                                cache_hit=False, **params), \
                    tracing.span("serve.run", endpoint=endpoint), \
                    metrics.timer(f"serve.{endpoint}.seconds"):
                payload = spec.runner(game, params)
        except GameError as exc:
            raise _translate(endpoint, exc) from exc
        return _envelope(endpoint, payload, cache_hit=False)

    return PreparedRequest(endpoint, run=run)
