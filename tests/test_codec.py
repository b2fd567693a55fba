"""The result-document codec and the cache identity it anchors.

* **Reader error contract** — every format-tagged reader rejects the same
  four defects (not JSON, not an object, wrong tag, missing key) with a
  :class:`~repro.core.game.GameError` whose message starts with that
  document's stable prefix.
* **Library/service cache identity** — a solve made in process with the
  library defaults is answered inline by the service on the same game:
  the service probes with the same key and replays the same document.
* **Degenerate solver parameters** — tolerances that are not finite and
  positive, and iteration budgets below one, are rejected before the
  cache probe and the ledger run, in the library and on the wire.
"""

from __future__ import annotations

import inspect
import json
import math

import pytest

import repro.cache as result_cache
from repro.core.game import GameError, TupleGame
from repro.core.serialize import (
    configuration_from_json,
    game_to_json,
    solve_result_to_json,
)
from repro.equilibria.solve import solve_game, solve_result_from_json
from repro.fuzz.corpus import load_case
from repro.fuzz.generators import SPEC_FORMAT
from repro.graphs.generators import cycle_graph, petersen_graph
from repro.obs import ledger as obs_ledger
from repro.serve import routes
from repro.serve.schemas import RequestError, param_spec_for
from repro.solvers.double_oracle import (
    double_oracle,
    double_oracle_result_from_json,
    double_oracle_result_to_json,
)
from repro.solvers.fictitious_play import (
    fictitious_play,
    fictitious_play_result_from_json,
    fictitious_play_result_to_json,
)
from repro.weighted.game import (
    WeightedTupleGame,
    weighted_do_result_from_json,
    weighted_double_oracle,
    weighted_lp_result_from_json,
)


@pytest.fixture(autouse=True)
def _cache_and_ledger_off():
    result_cache.disable_cache()
    obs_ledger.disable_ledger()
    yield
    result_cache.disable_cache()
    obs_ledger.disable_ledger()


# --------------------------------------------------------------------------
# reader error contract


def _load_case_text(tmp_path):
    def read(text):
        path = tmp_path / "case-contract.json"
        path.write_text(text)
        return load_case(path)
    return read


#: reader id -> (format tag, prefix on non-JSON, prefix on a bad object,
#: prefix on a missing key).
_READERS = {
    "configuration": (
        "repro.mixed-configuration.v1",
        "invalid JSON configuration document",
        "unrecognized configuration format",
        "configuration document is missing",
    ),
    "solve-result": (
        "repro.mixed-configuration.v1",
        "invalid JSON configuration document",
        "unrecognized configuration format",
        "configuration document is missing",
    ),
    "double-oracle": (
        "repro.solvers.double-oracle-result.v1",
        "invalid double-oracle document",
        "unrecognized double-oracle format",
        "malformed double-oracle payload",
    ),
    "fictitious-play": (
        "repro.solvers.fictitious-play-result.v1",
        "invalid fictitious-play document",
        "unrecognized fictitious-play format",
        "malformed fictitious-play payload",
    ),
    "weighted-lp": (
        "repro.weighted.lp-result.v1",
        "invalid weighted-LP document",
        "unrecognized weighted-LP format",
        "malformed weighted-LP payload",
    ),
    "weighted-do": (
        "repro.weighted.double-oracle-result.v1",
        "invalid weighted double-oracle document",
        "unrecognized weighted double-oracle format",
        "malformed weighted double-oracle payload",
    ),
    "fuzz-case": (
        SPEC_FORMAT,
        "corrupt corpus file",
        "unrecognized fuzz-case format",
        "malformed fuzz-case payload",
    ),
}


def _reader(name, tmp_path):
    return {
        "configuration": configuration_from_json,
        "solve-result": solve_result_from_json,
        "double-oracle": double_oracle_result_from_json,
        "fictitious-play": fictitious_play_result_from_json,
        "weighted-lp": weighted_lp_result_from_json,
        "weighted-do": weighted_do_result_from_json,
        "fuzz-case": _load_case_text(tmp_path),
    }[name]


@pytest.mark.parametrize("name", sorted(_READERS))
@pytest.mark.parametrize("defect", ["not-json", "not-object", "wrong-tag",
                                    "missing-key"])
def test_reader_error_contract(name, defect, tmp_path):
    fmt, invalid, unrecognized, missing = _READERS[name]
    text, prefix = {
        "not-json": ("{not json", invalid),
        "not-object": (json.dumps([fmt]), unrecognized),
        "wrong-tag": (json.dumps({"format": fmt + ".x"}), unrecognized),
        "missing-key": (json.dumps({"format": fmt}), missing),
    }[defect]
    with pytest.raises(GameError) as info:
        _reader(name, tmp_path)(text)
    assert str(info.value).startswith(prefix), str(info.value)


def test_solve_result_without_solve_section():
    game = TupleGame(cycle_graph(6), 2)
    payload = json.loads(solve_result_to_json(solve_game(game)))
    del payload["solve"]
    with pytest.raises(GameError, match="^malformed solve-result payload"):
        solve_result_from_json(json.dumps(payload))


def test_weighted_document_with_bad_nested_configuration():
    game = WeightedTupleGame(cycle_graph(4), 2, {v: 1.0 for v in range(4)})
    _, value = weighted_double_oracle(game)
    text = json.dumps({
        "format": "repro.weighted.double-oracle-result.v1",
        "configuration": {"format": "nope"},
        "value": value,
    })
    with pytest.raises(
        GameError,
        match="^malformed weighted double-oracle payload: unrecognized "
              "configuration format",
    ):
        weighted_do_result_from_json(text)


# --------------------------------------------------------------------------
# library and service share one cache identity


_LIBRARY = {
    "solve": (solve_game, solve_result_to_json),
    "double-oracle": (double_oracle, double_oracle_result_to_json),
    "fictitious-play": (fictitious_play, fictitious_play_result_to_json),
}


@pytest.mark.parametrize("endpoint", sorted(_LIBRARY))
def test_service_replays_the_library_cache_entry(endpoint, tmp_path):
    solver, encode = _LIBRARY[endpoint]
    game = TupleGame(cycle_graph(7), 2)
    result_cache.enable_cache(tmp_path)
    expected = json.loads(encode(solver(game)))
    body = json.dumps({"game": json.loads(game_to_json(game))}).encode()
    prepared = routes.prepare(endpoint, body)
    assert prepared.run is None
    assert prepared.response["cache_hit"] is True
    assert prepared.response["result"] == expected


@pytest.mark.parametrize("endpoint", sorted(_LIBRARY))
def test_schema_defaults_are_the_library_defaults(endpoint):
    signature = inspect.signature(_LIBRARY[endpoint][0]).parameters
    for name, (default, _check) in param_spec_for(endpoint).items():
        assert signature[name].default == default, name


# --------------------------------------------------------------------------
# degenerate solver parameters


def _petersen():
    return TupleGame(petersen_graph(), 2)


def _weighted_petersen():
    return WeightedTupleGame(petersen_graph(), 2,
                             {v: 1.0 for v in range(10)})


def test_double_oracle_rejects_infinite_tolerance():
    with pytest.raises(GameError, match="tolerance"):
        double_oracle(_petersen(), tolerance=math.inf)


def test_double_oracle_rejects_nan_tolerance_before_the_cache(tmp_path):
    result_cache.enable_cache(tmp_path)
    with pytest.raises(GameError, match="tolerance"):
        double_oracle(_petersen(), tolerance=math.nan)
    assert result_cache.get_cache().entries() == []


def test_double_oracle_rejects_zero_iterations_before_the_ledger(tmp_path):
    obs_ledger.enable_ledger(tmp_path)
    with pytest.raises(GameError, match="max_iterations"):
        double_oracle(_petersen(), max_iterations=0)
    assert obs_ledger.read_runs(directory=tmp_path) == []


def test_weighted_double_oracle_rejects_infinite_tolerance():
    with pytest.raises(GameError, match="tolerance"):
        weighted_double_oracle(_weighted_petersen(), tolerance=math.inf)


def test_weighted_double_oracle_rejects_nan_tolerance_before_the_cache(
        tmp_path):
    result_cache.enable_cache(tmp_path)
    with pytest.raises(GameError, match="tolerance"):
        weighted_double_oracle(_weighted_petersen(), tolerance=math.nan)
    assert result_cache.get_cache().entries() == []


def test_weighted_double_oracle_rejects_zero_iterations_before_the_ledger(
        tmp_path):
    obs_ledger.enable_ledger(tmp_path)
    with pytest.raises(GameError, match="max_iterations"):
        weighted_double_oracle(_weighted_petersen(), max_iterations=0)
    assert obs_ledger.read_runs(directory=tmp_path) == []


def test_fictitious_play_rejects_nan_tolerance():
    with pytest.raises(GameError, match="tolerance"):
        fictitious_play(_petersen(), tolerance=math.nan)


@pytest.mark.parametrize("endpoint", ["double-oracle", "fictitious-play"])
def test_service_rejects_infinite_tolerance(endpoint):
    game = game_to_json(_petersen())
    body = f'{{"game": {game}, "params": {{"tolerance": Infinity}}}}'
    with pytest.raises(RequestError) as info:
        routes.prepare(endpoint, body.encode())
    assert (info.value.status, info.value.code) == (400, "invalid-params")
