"""Make the benchmark's modules and the program importable for its own tests.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
