"""Capture the reference outputs the benchmark checks against.

    python3 perfbench/capture.py [--workload NAME] [--seeds N]

For every workload and every seed in 0..N-1 (and the workload's default
seed), runs each command with the benchmark's flags and stores its outcome,
skeleton and floats (see refcheck.py) in ``perfbench/reference/<name>.json``.
Run it only on a commit whose outputs are known good: the references are
what later commits are held to.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import tempfile
from pathlib import Path

from ops import ROOT, prepare_environment, run_cli
import refcheck
from workloads import COMMANDS, WORKLOADS


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def capture(name: str, seeds: list[int], main) -> dict:
    workload = WORKLOADS[name]
    skeletons: dict[str, str] = {}
    per_seed: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            spec = workload.write_spec(seed, Path(tmp))
            entry = {}
            for command in COMMANDS:
                res = run_cli(main, workload.argv(command, spec))
                if res.outcome == "traceback":
                    raise SystemExit(f"{name} seed {seed} {command}:\n{res.stderr}")
                skeleton, floats = refcheck.split(res.outcome, res.stdout, res.stderr, seed)
                sid = refcheck.skeleton_id(skeleton)
                skeletons[sid] = skeleton
                entry[command] = [sid, floats]
            per_seed[str(seed)] = entry
            print(f"{name} seed {seed}: "
                  + ", ".join(f"{c} {len(entry[c][1])} floats" for c in COMMANDS), flush=True)
    return {
        "captured_at_commit": _commit(),
        "workload": name,
        "skeletons": skeletons,
        "seeds": per_seed,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    ap.add_argument("--seeds", type=int, default=100)
    args = ap.parse_args()
    prepare_environment()
    from uatcv import cli

    for name in args.workload or sorted(WORKLOADS):
        seeds = sorted(set(range(args.seeds)) | {WORKLOADS[name].default_seed})
        doc = capture(name, seeds, cli.main)
        refcheck.REFERENCE_DIR.mkdir(exist_ok=True)
        path = refcheck.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
