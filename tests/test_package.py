"""The package root: what `from softlockstep import *` gives a caller."""

import pytest

import softlockstep


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from softlockstep import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(softlockstep.__all__))
    assert len(softlockstep.__all__) == len(set(softlockstep.__all__))


@pytest.mark.parametrize("name", [
    "ScriptedSource", "ReplaySource", "ProgressSource", "RealClock",
    "enforcement_loop", "ReplicaSession",
    "spawn_replicas", "decide", "staggering", "validate_config",
    "ExitKind", "ExitStatus", "StaleHandle",
])
def test_internals_leave_the_root_but_stay_importable(name):
    assert not hasattr(softlockstep, name)
    assert any(hasattr(getattr(softlockstep, module), name)
               for module in ("core", "monitor", "progress", "replication"))
