"""Run with ``pytest bench_e2e/tests`` from the repository root (tier-1
``testpaths`` does not collect this directory)."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
