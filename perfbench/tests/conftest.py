"""Make the benchmark's modules and the program importable:
``python3 -m pytest perfbench/tests`` from the repository root."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
for path in (BENCH, os.path.join(os.path.dirname(BENCH), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
