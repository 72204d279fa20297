import contextlib
import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

SPECS_DIR = Path(__file__).parent.parent / "specs"


@pytest.fixture
def specs_dir() -> Path:
    return SPECS_DIR


class TracedPeak:
    """The peak of the bytes traced in a :func:`traced_peak` block, set when
    the block ends without raising."""

    bytes: int | None = None


def counted_reads(monkeypatch) -> list[int]:
    """The length of every ``SplitMix64.uniform`` read from here on, in order."""
    from uatcv.tensor import SplitMix64

    reads, uniform = [], SplitMix64.uniform
    monkeypatch.setattr(SplitMix64, "uniform",
                        lambda gen, n, *bounds: reads.append(n) or uniform(gen, n, *bounds))
    return reads


@contextlib.contextmanager
def traced_peak():
    """Trace Python's allocations over the block: ``with traced_peak() as
    peak: ...``, then ``peak.bytes`` is the most held at once inside it."""
    peak = TracedPeak()
    tracemalloc.start()
    try:
        yield peak
        peak.bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
