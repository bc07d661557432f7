"""The runtime imports only the standard library.

The observer, the service and the command line run in processes that
never compute a statistic; numpy and scipy are the experiments'
(``repro.analysis.stats``), networkx is the test oracles'.  Loading them
costs every such process about 90 MB of RSS and tens of thousands of
objects each full collection walks, so a stray module-level import is a
regression this test names.
"""

import os
import subprocess
import sys

import repro

RUNTIME = ("repro.cli", "repro.service", "repro.sim", "repro.core",
           "repro.analysis", "repro.runtime")
HEAVY = ("numpy", "scipy", "networkx")


def test_runtime_packages_load_no_heavy_library():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (f"import sys\n"
            f"import {', '.join(RUNTIME)}\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n")
    # A fresh interpreter: this one has loaded whatever other tests did.
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=60).stdout
    assert loaded.split() == []


def test_experiment_listing_loads_no_heavy_library():
    """``repro experiments --list`` prints a static table: it imports no
    experiment module, so it runs where numpy is missing."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("import sys\n"
            "from repro.cli import main\n"
            "assert main(['experiments', '--list']) == 0\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules),"
            " file=sys.stderr)\n")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=60)
    assert done.stderr.split() == []
    assert len(done.stdout.splitlines()) == 18
