"""The package root: what `from softlockstep import *` gives a caller."""

import os
import subprocess
import sys

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


def test_the_library_loads_without_numpy():
    # A fresh interpreter, since this one has numpy loaded for other tests.
    # Only the matmul workload needs numpy, and it imports it when built.
    script = (
        "import sys, softlockstep, softlockstep.cli\n"
        "from softlockstep.workloads import parse_workload_id\n"
        "parse_workload_id('spin:10'), parse_workload_id('checksum:64')\n"
        "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'numpy'))\n"
    )
    src = os.path.dirname(os.path.dirname(softlockstep.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
