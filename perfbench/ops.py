"""Running one operation and classifying how it ended.

An operation ends in one of: ``ok``, ``exit 2``, ``exit 3``, ``exit 4``
(the CLI's documented error exits), ``traceback`` (an uncaught exception)
or ``timeout``.  Any outcome but ``ok`` counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the load comes from one process at a time, so the
# benchmark runs no more threads than a two-core machine has, and timings
# do not depend on the thread count the BLAS library would pick.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Longest any single operation may run before it is abandoned as a timeout.
OP_TIMEOUT_S = 60.0


class OpTimeout(BaseException):
    """Raised by the interval timer inside an operation that ran too long.

    A BaseException, so that no ``except Exception`` in the program under
    test swallows it.
    """


def prepare_environment() -> None:
    """Make ``import uatcv`` load the checkout's ``src`` tree under fixed
    thread and element-cap settings.  Call before numpy is imported."""
    if not (SRC / "uatcv" / "__init__.py").is_file():
        sys.exit(f"error: no uatcv sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("UATCV_CAP", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class CliResult:
    outcome: str
    stdout: str
    stderr: str
    seconds: float


def outcome_of(code) -> str:
    return "ok" if code == 0 else f"exit {code}"


@contextlib.contextmanager
def time_limit(seconds: float = OP_TIMEOUT_S):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(main, argv: list[str]) -> CliResult:
    """Call ``main(argv)`` in-process with stdout and stderr captured, and
    time it from call to return."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with time_limit(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                outcome = outcome_of(main(argv))
            except SystemExit as exc:  # argparse rejects its arguments this way
                outcome = outcome_of(exc.code)
    except OpTimeout:
        outcome = "timeout"
    except Exception:
        outcome = "traceback"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return CliResult(outcome, out.getvalue(), err.getvalue(), seconds)
