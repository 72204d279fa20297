"""perfbench's tracer wraps package functions by their names, from outside
the package, so a rename in ``src/`` would break ``perfbench/run.py --trace 1``
without failing anything else.  Every name it wraps must resolve, and its
hooks must still read what the wrapped functions take and return.  The
benchmark also holds every command's output to its captured references, so
output drift fails here first."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _spans() -> dict[str, list[str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]
    ]
    return ast.literal_eval(value)


def test_every_trace_target_resolves():
    missing = []
    for targets in _spans().values():
        for target in targets:
            # as Tracer.install reads it: module.function or module.Class.method
            module, *path = target.split(".")
            owner = importlib.import_module(f"uatcv.{module}")
            for attr in path:
                owner = getattr(owner, attr, None)
            if not callable(owner):
                missing.append(target)
    assert missing == []


def test_traced_report_runs_and_counts_lowerings(specs_dir):
    # what ``perfbench/run.py --trace 1`` does each round: a report under the
    # tracer, whose hooks read the lowering functions' arguments and results
    from uatcv.cli import main

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer_module  # dataclasses look their module up
    try:
        spec.loader.exec_module(tracer_module)
        for name in ("vgg3.json", "resblock2.json", "vit1.json"):
            tracer = tracer_module.Tracer()
            with tracer:
                assert main(["report", str(specs_dir / name), "--trials", "1"]) == 0
            summary = tracer.round_summary(0)
            counters = ["lowering.lower_calls", "lowering.wprime_dense_bytes",
                        "lowering.wprime_structural_cells"]
            if name != "vgg3.json":  # dense and token stages, through lowering.WeightIndexMap
                counters.append("lowering.sharing_counts_calls")
            for counter in counters:
                assert summary[counter] > 0, (name, counter)
    finally:
        del sys.modules[spec.name]


def _perfbench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["conv_mid", "resnet_deep", "vit_tokens"])
def test_workload_outputs_match_the_references(workload, tmp_path, monkeypatch):
    # what the benchmark checks of every operation, at seeds 0-2
    from uatcv.cli import main

    ops = _perfbench_module("ops", monkeypatch)
    refcheck = _perfbench_module("refcheck", monkeypatch)
    workloads = _perfbench_module("workloads", monkeypatch)
    monkeypatch.delenv("UATCV_CAP", raising=False)
    bench = workloads.WORKLOADS[workload]
    reference = refcheck.load(workload)
    problems = []
    for seed in range(3):
        spec = bench.write_spec(seed, tmp_path)
        for command in workloads.COMMANDS:
            res = ops.run_cli(main, bench.argv(command, spec))
            problem = refcheck.check(reference, seed, command, res.outcome, res.stdout, res.stderr)
            if problem is not None:
                problems.append((seed, problem))
    assert problems == []
