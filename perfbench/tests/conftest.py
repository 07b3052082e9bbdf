"""Make the benchmark's modules importable as top-level names, the way
``python3 perfbench/run.py`` sees them."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent.parent
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))
