"""Make the benchmark's modules and the ``repro`` source importable.

The benchmark runs its modules as scripts from ``pimbench/``, so they
import each other as top-level modules; the tests do the same.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
