"""One operation in a fresh interpreter, started by run.py.

    python3 perfbench/child.py setup SPEC
        import uatcv, parse the description and materialize its weights:
        the set-up every CLI call pays.
    python3 perfbench/child.py cli COMMAND SPEC [FLAGS...]
        run one CLI command with its output captured, then print one JSON
        line: outcome, stdout, stderr and this process's own peak RSS.

The peak RSS is the kernel's VmHWM for this program image.  ``ru_maxrss``
is no use here: the kernel carries the parent's resident size at the fork
into the child's ``ru_maxrss``, so it reads at least the parent's size.
"""

from __future__ import annotations

import json
import sys

from ops import prepare_environment, run_cli


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    prepare_environment()
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        from uatcv import netspec

        netspec.materialize(netspec.parse_spec(args[0]))
        return
    from uatcv import cli

    res = run_cli(cli.main, args)
    json.dump({"outcome": res.outcome, "stdout": res.stdout, "stderr": res.stderr,
               "peak_rss_mb": peak_rss_mb()}, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
