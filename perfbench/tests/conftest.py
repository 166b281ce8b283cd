"""Make the schrogeo sources and the benchmark modules importable."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT / "src", _ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
