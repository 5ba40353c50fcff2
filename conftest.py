"""Keep test runs from writing bytecode caches into the source tree.

A ``__pycache__`` left under ``src/monocurve`` by one run makes the next
process start faster than a clean checkout does, so timings taken after a
test run and on a fresh copy would not compare.  The environment variable
covers the command-line tests that start a new interpreter.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")
