"""Process preparation shared by the benchmark's entry points.

Call :func:`prepare` before anything imports numpy or venplan: it pins the
numeric thread pools to one thread, caps the process's address space, and
puts the checkout's own ``src/`` first on the import path.
"""

from __future__ import annotations

import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "work"

# A runaway search raises MemoryError inside the benchmark (counted as a
# failed operation) instead of exhausting the machine's memory. The heaviest
# workload peaks near 1.3 GB resident.
ADDRESS_SPACE_LIMIT = 4 << 30

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    """Pin threads, cap memory, and make ``import venplan`` load ``src/``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    if not (SRC / "venplan" / "__init__.py").is_file():
        raise SystemExit("perfbench: src/venplan is missing from this checkout")
    sys.path.insert(0, str(SRC))
    import venplan

    if Path(venplan.__file__).resolve().parent != SRC / "venplan":
        raise SystemExit(f"perfbench: imported venplan from {venplan.__file__}")
