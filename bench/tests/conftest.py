"""Harness unit tests: ``python -m pytest bench/tests`` from the repo root.

Not part of tier-1 (``testpaths`` is ``tests``); the harness modules are
plain scripts beside ``run.py``, so put them and the program on the path.
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]
