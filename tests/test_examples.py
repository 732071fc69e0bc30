"""The examples run to completion.

They drive the public API end to end (``streaming_monitor`` is the one
caller of :meth:`repro.live.IncrementalDetector.flush` outside the
service), so an API change that breaks one fails here.  Each runs as a
subprocess, as a user would run it, in about a second;
``online_deployment`` simulates a whole week (~18 s) and is left out.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ("quickstart", "streaming_monitor", "dark_launch_assessment",
            "advertising_incident", "redis_load_balancing")


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_zero(name):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / (name + ".py"))],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
