"""Constructor guards of the engine core shared by both protocols."""

from types import SimpleNamespace

import pytest

from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedAsync, FedAvg
from repro.fl.sync_engine import SyncEngine
from tests.fl.equiv_cases import _async_config, _federation, _sync_config

ENGINES = [
    pytest.param(SyncEngine, FedAvg, _sync_config(2), id="sync"),
    pytest.param(AsyncEngine, FedAsync, _async_config(4), id="async"),
]


@pytest.mark.parametrize("engine_cls, strategy_cls, config", ENGINES)
def test_empty_client_list_rejected(engine_cls, strategy_cls, config):
    server, _ = _federation(10)
    with pytest.raises(ValueError, match="need at least one client"):
        engine_cls(server, [], strategy_cls(), config)


@pytest.mark.parametrize("engine_cls, strategy_cls, config", ENGINES)
def test_snapshots_rejected_over_remote_transport(
    engine_cls, strategy_cls, config, tmp_path
):
    server, clients = _federation(10)
    transport = SimpleNamespace(remote=True)
    with pytest.raises(
        ValueError, match="snapshots are not supported over a remote transport"
    ):
        engine_cls(
            server, clients, strategy_cls(), config,
            snapshot_path=tmp_path / "run.snapshot", transport=transport,
        )
