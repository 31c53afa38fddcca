"""Lets ``python -m pytest perfbench`` import the benchmark modules and the
package from ``src/`` of the same checkout."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
