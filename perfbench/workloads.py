"""The benchmark's workloads: one generated network description each, plus
the fixed flags every command gets on it.

A workload's description is generated from a workload seed, which becomes
the description's ``seed`` (it pins every weight and every trial input the
CLI draws).  The defaults are the seeds the workloads were designed with;
any other seed rechecks a claim on an unseen network of the same shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Commands measured in-process on every workload, in round order.
COMMANDS = ("lower", "verify", "expand", "classify", "analyze", "report")

# verify and report draw this many random inputs.  Two keeps the per-trial
# loop exercised while a round stays short enough for several rounds a run.
TRIALS = ["--trials", "2"]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    why: str
    layers: tuple[dict, ...]
    input_shape: tuple[tuple[str, int], ...]
    analyze_flags: tuple[str, ...]

    def spec(self, seed: int) -> dict:
        return {
            "input_shape": [list(d) for d in self.input_shape],
            "seed": seed,
            "activation": "relu",
            "layers": [dict(layer) for layer in self.layers],
        }

    def write_spec(self, seed: int, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}-seed{seed}.json"
        path.write_text(json.dumps(self.spec(seed), indent=2) + "\n", encoding="utf-8")
        return path

    def argv(self, command: str, spec_path: Path) -> list[str]:
        """The CLI argument vector for one command on this workload."""
        flags = {"verify": TRIALS, "report": TRIALS, "analyze": list(self.analyze_flags)}
        return [command, str(spec_path), *flags.get(command, [])]


def _conv(out_channels: int, bias: bool) -> dict:
    return {"kind": "conv2d", "out_channels": out_channels, "kernel": [3, 3],
            "stride": 1, "padding": 1, "bias": bias}


# Loads `lowering`: layer 0's dense W' is 1728x4608 (64 MB) at 1.6 % fill,
# and `report` re-lowers the conv/pool layers for every trial and every
# prefix.  Bypasses the expensive part of `symbolic`: the expansion is a
# depth-3 vgg chain.  The only workload that runs channel pruning.
CONV_MID = Workload(
    name="conv_mid",
    default_seed=3,
    why="conv stack on a 3x24x24 image: dense W' lowering dominates, symbolic expansion is trivial",
    input_shape=(("C_I", 3), ("H", 24), ("W", 24)),
    layers=(
        _conv(8, bias=True),
        {"kind": "mean_pool", "window": [2, 2], "stride": 2},
        _conv(16, bias=False),
        _conv(16, bias=False),
    ),
    analyze_flags=("--lora-layer", "2", "--lora-rank", "2",
                   "--prune-layer", "0", "--prune-channels", "0,1"),
)

# Loads `symbolic`: classify_params and eval_canonical re-walk the shared
# provenance of the merged biases, which grows about 2x per block.
# Bypasses `lowering`: each block lowers to two dense 8x6 stages.
RESNET_DEEP = Workload(
    name="resnet_deep",
    default_seed=11,
    why="16 residual blocks of width 8: exponential symbolic walks dominate, lowering is trivial",
    input_shape=(("feature", 8),),
    layers=tuple({"kind": "residual_block", "hidden_dim": 6} for _ in range(16)),
    analyze_flags=("--lora-layer", "3", "--lora-rank", "2", "--lora-target", "w_1"),
)

# Loads `lowering` through the input-dependent attention matrix (768x768 via
# kron), which a lower-once cache that helps conv_mid must neither help nor
# break; eval_canonical recomputes it on every walk.  Carries the known
# `verify` failure at the default --tol (diff ~2e-8 at |x| ~ 1.7e7), which
# stays in the set and counts as a failed operation.
VIT_TOKENS = Workload(
    name="vit_tokens",
    default_seed=5,
    why="patchify plus 3 transformer blocks: input-dependent attention matrices; keeps the known verify failure",
    input_shape=(("H", 16), ("W", 16), ("C_I", 3)),
    layers=({"kind": "patchify", "patch": [4, 4]},)
    + tuple({"kind": "transformer_block", "heads": 4, "hidden_dim": 96} for _ in range(3)),
    analyze_flags=("--lora-layer", "1", "--lora-rank", "2", "--lora-target", "w_2"),
)

WORKLOADS = {w.name: w for w in (CONV_MID, RESNET_DEEP, VIT_TOKENS)}
