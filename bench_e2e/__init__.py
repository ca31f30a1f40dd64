"""End-to-end gradient benchmark (see README.md in this directory).

Importing the package puts the checkout's ``src`` first on ``sys.path``,
so the benchmark always measures the ``repro`` beside it and never an
installed copy.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench_e2e", "out")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
