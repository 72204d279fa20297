"""End-to-end and per-module benchmark of the uatcv CLI.

    python3 perfbench/run.py --workload conv_mid|resnet_deep|vit_tokens
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` tree.  ``--seed`` is the workload seed: it becomes the
network description's seed (weights and every CLI trial input) and picks
the claim check's inputs.  It defaults to the workload's own seed.

One run measures for about ``--seconds`` seconds.  All load comes from this
process, one operation at a time, each child process waited for before the
next starts:

1. one child each running ``report`` and ``verify``, whose own peak RSS
   (child.py) gives ``report_peak_rss_mb`` and ``verify_peak_rss_mb``;
2. while time is left, cycles of: ``setup_s``, a fresh interpreter that
   imports uatcv, parses the description and materializes it (wall time,
   start to exit); every command through ``uatcv.cli.main`` in-process
   (``lower_s`` ... ``report_s``; a command faster than
   ``MIN_COMMAND_SECONDS`` is called again until its calls add up to that);
   then ``claim_s``, the paper's whole claim on one new input: the expanded
   canonical form evaluated through ``symbolic.eval_canonical`` against
   ``netspec.forward``.

Every operation's output is checked (refcheck.py; the claim within
``CLAIM_RTOL``), and every operation ends in one of ok / exit 2 / exit 3 /
exit 4 / traceback / timeout.  ``failed_op_share`` is the share of
operations that did not end ok or whose output failed its check, and
``ok_op_share`` is one minus it.  ``failed`` in the result line counts the
operations whose outcome or output did not match its reference, so a known
failure that repeats exactly as recorded (``verify`` on vit_tokens exits 3)
lowers ``ok_op_share`` but is not a failed operation of the benchmark, and
``correct`` says that no operation failed.

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over its samples, and the times are given at a reference host speed.  On a
shared host the cores run up to 1.8x slower for seconds to minutes at a
time, from load outside this benchmark, and that moves every time of a run
together.  So before every step the run times two fixed kernels three times
each (``Bench.probe_host``): a pure-Python loop and a pass over an 8 MB
array, which load the interpreter and the memory system as the workloads
do.  Each time metric is its median scaled by ``HOST_PROBE_REF_S`` over the
geometric mean of the two kernels' medians.  The record keeps every raw
sample, the kernels' times and the unscaled metrics.

With ``--trace 1`` each round runs with every module function wrapped in
spans (tracer.py) and the metrics are per module, for one round: self
seconds (median over rounds), call counts, and the lowering
counters, which must repeat exactly from round to round.  Each round also
runs an untraced ``report`` right before the traced one; the difference of
the two medians is ``trace.report_overhead_s``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The full record (samples, quartiles, every operation, machine)
goes to ``perfbench/results/``, and with ``--trace 1`` every span too.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from ops import OP_TIMEOUT_S, ROOT, BLAS_THREAD_VARS, OpTimeout, prepare_environment, run_cli, time_limit
import refcheck
from workloads import COMMANDS, WORKLOADS

# A command faster than this is called repeatedly within a round, so that
# the 10 ms commands (resnet_deep's lower, verify, expand) get many samples,
# while rounds stay short and the one-second commands get a sample each.
MIN_COMMAND_SECONDS = 0.15
# Times are scaled to a host on which the geometric mean of the probe
# kernels' medians is this.  On the 2-vCPU Xeon host the benchmark was set up
# on, the Python loop's median reads 0.39-0.66 ms and the array pass's
# 2.0-2.8 ms.
HOST_PROBE_REF_S = 0.0012
# max |canonical - forward| <= CLAIM_RTOL * max |forward|: the observed
# ratio is 1e-16 .. 2e-15 on all three workloads (rounding only), while a
# conv kernel scaled by (1 + 1e-7) in the lowering already moves it to 3e-7.
CLAIM_RTOL = 1e-10
# claim inputs use their own seed range, apart from the CLI's seed+1+t
CLAIM_SEED_OFFSET = 1_000_000
RESULTS = ROOT / "perfbench" / "results"
CHILD = Path(__file__).resolve().with_name("child.py")

END_TO_END = {
    "setup_s": "s",
    **{f"{c}_s": "s" for c in COMMANDS},
    "claim_s": "s",
    "report_peak_rss_mb": "MB",
    "verify_peak_rss_mb": "MB",
    # 1 - failed_op_share: the failed share itself is 0 on two workloads,
    # and a bound relative to the parent's median needs a non-zero metric
    "ok_op_share": "share",
}

# per-module metrics of one round; the counters must repeat exactly
EXACT_COUNTERS = (
    "netspec.check_layer_calls", "netspec.apply_layer_calls", "netspec.to_expandable_calls",
    "lowering.lower_calls", "lowering.mha_effective_calls",
    "lowering.wprime_dense_bytes", "lowering.wprime_structural_cells",
)
# Each group names the end-to-end metrics it should move, and on which
# workloads; on the others it should stay the same.
PER_LAYER = {
    # setup_s, on all
    "netspec.parse_spec_s": "s",
    "netspec.materialize_s": "s",
    # verify_s, report_s on conv_mid and vit_tokens; not resnet_deep
    "netspec.check_layer_s": "s",
    "netspec.check_layer_calls": "count",
    "netspec.apply_layer_s": "s",
    "netspec.apply_layer_calls": "count",
    "reference.direct_s": "s",
    # report_s, verify_s, lower_s, analyze_s on conv_mid; not resnet_deep
    "lowering.lower_s": "s",
    "lowering.lower_calls": "count",
    "lowering.lower_calls_per_layer": "calls/layer",
    # the peak RSS metrics on conv_mid; not resnet_deep
    "lowering.wprime_dense_bytes": "B",
    "lowering.wprime_structural_cells": "count",
    "lowering.wprime_fill": "share",
    # report_s, lower_s on conv_mid and vit_tokens; not resnet_deep
    "lowering.evaluate_s": "s",
    "lowering.sharing_counts_s": "s",
    # claim_s, verify_s on vit_tokens; not conv_mid, resnet_deep
    "lowering.mha_effective_s": "s",
    "lowering.mha_effective_calls": "count",
    "lowering.mha_effective_calls_per_block_input": "calls/input",
    # expand_s, analyze_s on resnet_deep and conv_mid
    "symbolic.build_s": "s",
    "netspec.to_expandable_s": "s",
    "netspec.to_expandable_calls": "count",
    # classify_s, report_s on resnet_deep; not conv_mid
    "symbolic.classify_s": "s",
    # claim_s on resnet_deep and vit_tokens
    "symbolic.eval_canonical_s": "s",
    # expand_s on resnet_deep; not conv_mid
    "symbolic.emit_s": "s",
    # analyze_s, report_s on conv_mid; not vit_tokens
    "analysis.count_uat_terms_s": "s",
    "analysis.lora_check_s": "s",
    "analysis.prune_impact_s": "s",
    # the breakdown of report_s, on all
    "report.layer_section_s": "s",
    "report.expansion_section_s": "s",
    "report.analysis_section_s": "s",
    "netspec.verify_network_s": "s",
    # traced minus untraced report_s
    "trace.report_overhead_s": "s",
}


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "memory_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def stats(samples: list[float]) -> dict:
    out = {"median": statistics.median(samples), "n": len(samples),
           "min": min(samples), "max": max(samples)}
    if len(samples) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(samples, n=4)
    return out


def python_loop() -> int:
    """The pure-Python probe kernel: dictionary stores and integer arithmetic."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(4000):
        table[i & 255] = acc
        acc += (i * i) % 7
    return acc


class Bench:
    def __init__(self, workload, seed: int, spec: Path, reference: dict, cli_main):
        self.workload, self.seed, self.spec = workload, seed, spec
        self.reference, self.cli_main = reference, cli_main
        self.ops: list[dict] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        import numpy as np

        self.probe_array = np.arange(1_000_000, dtype=np.float64)

    def record(self, op: str, outcome: str, seconds: float, problem: str | None = None,
               round_: int | None = None) -> None:
        self.ops.append({"op": op, "round": round_, "outcome": outcome,
                         "seconds": seconds, "problem": problem})

    # -- operations ------------------------------------------------------

    def command(self, command: str, round_: int, metric: str | None = None,
                min_seconds: float = 0.0) -> None:
        """Call one command, again and again until the calls of this round
        add up to ``min_seconds``; each call is one operation and sample."""
        spent = 0.0
        while True:
            res = run_cli(self.cli_main, self.workload.argv(command, self.spec))
            problem = refcheck.check(self.reference, self.seed, command,
                                     res.outcome, res.stdout, res.stderr)
            self.samples[metric or f"{command}_s"].append(res.seconds)
            self.record(command, res.outcome, res.seconds, problem, round_)
            spent += res.seconds
            if spent >= min_seconds:
                return

    def claim(self, round_: int) -> None:
        from uatcv import netspec, symbolic
        import numpy as np

        outcome, problem = "ok", None
        start = time.perf_counter()
        try:
            with time_limit():
                spec = netspec.parse_spec(self.spec)
                net = netspec.materialize(spec)
                exp = netspec.to_expandable(net)
                x = netspec.random_input(spec, seed=self.seed + CLAIM_SEED_OFFSET + round_)
                env = dict(exp.binding)
                env[exp.chain.canonical.input_name] = netspec.expandable_input(net, x)
                got = symbolic.eval_canonical(exp.chain.canonical, env, net.activation)
                want = netspec.expandable_output(net, netspec.forward(net, x)[-1])
                err, scale = float(np.max(np.abs(got - want))), float(np.max(np.abs(want)))
        except OpTimeout:
            outcome = "timeout"
        except Exception as exc:
            outcome = "traceback"
            problem = f"claim raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if outcome == "ok" and not err <= CLAIM_RTOL * scale:
            problem = f"claim: max|canonical - forward| = {err:.3e} > {CLAIM_RTOL:g} * {scale:.3e}"
        elif outcome == "timeout":
            problem = "claim timed out"
        self.samples["claim_s"].append(seconds)
        self.record("claim", outcome, seconds, problem, round_)

    def _child(self, *args: str) -> tuple[str, float, str]:
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), *args], capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start, ""
        seconds = time.perf_counter() - start
        return ("ok" if proc.returncode == 0 else "traceback"), seconds, proc.stdout

    def setup(self, round_: int) -> None:
        outcome, seconds, _ = self._child("setup", str(self.spec))
        self.samples["setup_s"].append(seconds)
        self.record("setup", outcome, seconds, None if outcome == "ok" else f"setup: {outcome}",
                    round_)

    def peak_rss(self, command: str) -> None:
        outcome, seconds, stdout = self._child("cli", *self.workload.argv(command, self.spec))
        if outcome != "ok":
            self.record(f"{command}_rss", outcome, seconds, f"{command} child: {outcome}")
            return
        res = json.loads(stdout.splitlines()[-1])
        problem = refcheck.check(self.reference, self.seed, command,
                                 res["outcome"], res["stdout"], res["stderr"])
        self.samples[f"{command}_peak_rss_mb"].append(res["peak_rss_mb"])
        self.record(f"{command}_rss", res["outcome"], seconds, problem)

    # -- driving ---------------------------------------------------------

    def probe_host(self) -> None:
        """Time both probe kernels three times (see HOST_PROBE_REF_S)."""
        for _ in range(3):
            start = time.perf_counter()
            python_loop()
            self.samples["host_probe_python_s"].append(time.perf_counter() - start)
            start = time.perf_counter()
            float((self.probe_array * 1.0001).sum())
            self.samples["host_probe_array_s"].append(time.perf_counter() - start)

    def host_scale(self) -> float:
        """The factor that takes this run's times to the reference host speed."""
        probe_s = math.sqrt(statistics.median(self.samples["host_probe_python_s"])
                            * statistics.median(self.samples["host_probe_array_s"]))
        return HOST_PROBE_REF_S / probe_s

    def run_steps(self, deadline: float) -> int:
        """Cycle through set-up, the commands and the claim check: one whole
        cycle, then each step again while its last duration still fits before
        the deadline.  Returns the number of cycles begun."""
        steps = [self.setup] + [
            functools.partial(self.command, c, min_seconds=MIN_COMMAND_SECONDS)
            for c in COMMANDS] + [self.claim]
        last: dict[int, float] = {}
        for k in itertools.count():
            step, cycle = k % len(steps), k // len(steps)
            if cycle and time.perf_counter() + last[step] > deadline:
                return cycle + (step > 0)
            gc.collect()
            self.probe_host()
            start = time.perf_counter()
            steps[step](cycle)
            last[step] = time.perf_counter() - start

    def run_rounds(self, deadline: float, one_round) -> int:
        """Run whole rounds while the longest one so far still fits."""
        longest, r = 0.0, 0
        while r == 0 or time.perf_counter() + longest <= deadline:
            start = time.perf_counter()
            one_round(r)
            longest = max(longest, time.perf_counter() - start)
            r += 1
        return r


def per_layer_metrics(bench: Bench, tracer, rounds: int) -> tuple[dict, list[str]]:
    summaries = [tracer.round_summary(r) for r in range(rounds)]
    problems = [f"counter {k} differs between rounds: {[s[k] for s in summaries]}"
                for k in EXACT_COUNTERS if len({s[k] for s in summaries}) != 1]
    first = summaries[0]
    values: dict[str, float] = {}
    for name in PER_LAYER:
        if name in first and name.endswith("_s"):
            values[name] = statistics.median(s[name] for s in summaries)
        elif name in first:
            values[name] = first[name]
    values["lowering.lower_calls_per_layer"] = (
        first["lowering.lower_calls"] / first["lowering.distinct_layers"]
        if first["lowering.distinct_layers"] else 0.0)
    cells, nbytes = first["lowering.wprime_structural_cells"], first["lowering.wprime_dense_bytes"]
    values["lowering.wprime_fill"] = cells / (nbytes / 8) if nbytes else 0.0
    values["lowering.mha_effective_calls_per_block_input"] = (
        first["lowering.mha_effective_calls"] / first["lowering.mha_distinct_block_inputs"]
        if first["lowering.mha_distinct_block_inputs"] else 0.0)
    values["trace.report_overhead_s"] = (
        statistics.median(bench.samples["report_s"])
        - statistics.median(bench.samples["untraced_report_s"]))
    return values, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    deadline = t0 + args.seconds

    prepare_environment()
    from uatcv import cli

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    spec = workload.write_spec(seed, RESULTS / "specs")
    bench = Bench(workload, seed, spec, refcheck.load(workload.name), cli.main)
    problems: list[str] = []
    unscaled: dict[str, float] = {}
    host_scale = None
    if seed not in map(int, bench.reference["seeds"]):
        print(f"note: no reference numbers for seed {seed}; output text is checked, numbers are not")

    if args.trace == 0:
        bench.peak_rss("report")
        bench.peak_rss("verify")
        rounds = bench.run_steps(deadline)
        unscaled = {name: statistics.median(bench.samples[name]) for name in END_TO_END
                    if name in bench.samples}
        host_scale = bench.host_scale()
        metrics = {name: value * host_scale if END_TO_END[name] == "s" else value
                   for name, value in unscaled.items()}
        units = END_TO_END
    else:
        from tracer import Tracer

        tracer = Tracer()

        def traced_round(r: int) -> None:
            """Each command once, then the claim, all traced; an untraced
            report right before the traced one gives the tracing overhead."""
            tracer.round = r
            for command in COMMANDS:
                if command == "report":
                    gc.collect()
                    bench.command("report", r, metric="untraced_report_s")
                gc.collect()
                with tracer:
                    bench.command(command, r)
            gc.collect()
            with tracer:
                bench.claim(r)

        rounds = bench.run_rounds(deadline, traced_round)
        metrics, problems = per_layer_metrics(bench, tracer, rounds)
        units = PER_LAYER

    outcomes = Counter(op["outcome"] for op in bench.ops)
    outcomes["wrong output"] = sum(1 for op in bench.ops if op["problem"])
    attempted = len(bench.ops)
    failed = sum(1 for op in bench.ops if op["problem"])
    not_ok = sum(1 for op in bench.ops if op["outcome"] != "ok" or op["problem"])
    if args.trace == 0:
        metrics["ok_op_share"] = 1 - not_ok / attempted
    problems += [op["problem"] for op in bench.ops if op["problem"]]
    missing = [name for name in units if name not in metrics]
    problems += [f"metric {name} has no samples" for name in missing]
    correct = not problems

    record = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "wall_s": time.perf_counter() - t0, "machine": machine(),
        "correct": correct, "problems": problems, "attempted": attempted, "failed": failed,
        "failed_op_share": not_ok / attempted, "outcomes": dict(outcomes),
        "host_scale": host_scale, "unscaled_metrics": unscaled,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
        "samples": {name: stats(v) | {"values": v} for name, v in bench.samples.items()},
        "ops": bench.ops,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.dump(stem.with_suffix(".spans.jsonl"))

    print(f"workload {workload.name}, seed {seed}, trace {args.trace}: {rounds} rounds, "
          f"{attempted} operations, {not_ok} not ok, {failed} failed; outcomes "
          + ", ".join(f"{k}: {v}" for k, v in sorted(outcomes.items())))
    rows = [(name, metrics[name], units[name]) for name in units if name in metrics]
    rows.append(("failed_op_share", not_ok / attempted, "share"))
    if host_scale is not None:
        print(f"  times scaled by {host_scale:.4g} to the reference host speed; raw samples:")
    for name, value, unit in rows:
        s = record["samples"].get(name)
        spread = (f"  (raw n={s['n']}, min {s['min']:.4g}, median {s['median']:.4g},"
                  f" max {s['max']:.4g})" if s else "")
        print(f"  {name:<46} {value:>14.6g} {unit}{spread}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print("machine " + json.dumps(record["machine"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
