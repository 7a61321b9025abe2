"""Process set-up shared by the benchmark entry point and its tests.

The benchmark measures the ``jdl`` sources of the checkout it sits in, so it
imports ``jdl`` from ``<checkout>/src`` and from nowhere else.  BLAS is pinned
to one thread through the process environment, which must happen before
numpy is first imported.
"""
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "jdl"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


class MissingSources(RuntimeError):
    """The checkout has no ``src/jdl`` package to measure."""


def pin_blas():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_sources():
    """Put ``<checkout>/src`` first on ``sys.path``; fail if it lacks jdl."""
    if not (PACKAGE / "dualpair.py").is_file():
        raise MissingSources(f"no jdl sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_lines():
    """Line count of the ``jdl`` package sources."""
    return sum(len(path.read_text().splitlines())
               for path in sorted(PACKAGE.rglob("*.py")))
