"""Command-line entry points.

    uatcv lower    SPEC [--out PATH]
    uatcv verify   SPEC [--trials N] [--tol X]
    uatcv expand   SPEC [--format text|latex]
    uatcv classify SPEC
    uatcv analyze  SPEC [--lora-layer N [--lora-rank R] [--lora-target M]]
                        [--prune-layer N (--prune-channels 0,2 | --prune-threshold X)]
    uatcv report   SPEC [--out PATH] [--format text|latex] [--trials N] [--tol X]

``python -m uatcv`` runs the same commands.  Common flags: ``--seed``
overrides the description's seed, ``--cap`` the element cap for this call
(the UATCV_CAP environment variable otherwise).

Exit codes: 0 success; 3 verification failure; 4 internal invariant breach;
2 parse/validation error: a description that cannot be read, is not UTF-8
or valid JSON (an over-long integer literal included) or breaks the schema
or shape chain; an array over the element cap (a weight array, or one a
direct computation would allocate: a conv's padded input or column block,
attention scores, an FFN hidden layer); a layer whose values overflow to
non-finite entries (the message names it); a flag value out of range (a
UATCV_CAP that is not a positive integer, ``--cap``, ``--trials`` or
``--lora-rank`` below 1, a negative or non-finite ``--tol``, a
``--lora-layer`` or ``--prune-layer`` past the last layer, a ``--lora-rank``
above the target's smaller side, a ``--lora-target`` on a conv layer, whose
one target is its kernel, a ``--prune-channels`` that is not integers or
lists none); a ``--lora-*`` or ``--prune-*`` flag without its layer flag; a
prune the library refuses (a layer that is not a conv, channels out of range
or all of them, a change a downstream layer cannot absorb); a ``report
--format latex`` whose ``--out`` ends in ``.tex`` (its sidecar would
overwrite it; nothing is written); and an ``--out`` path (or its ``.tex``
sidecar) that cannot be written (neither is written).  Errors print one
line to stderr: ``error[<code>]: <message>``.

``main(argv)`` may be called many times in one process, as perfbench and
the tests call it.  The argument parser is built once per process, on the
first call, and serves every later one (parsing leaves it unchanged).  Each
call restores the element cap and clears the cell-pattern cache when it
returns or raises, so no call sees another's cap or patterns.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import lowering
from .analysis import LoraDelta, PruneMask, prune
from .errors import (
    ParseError, RangeError, SpecError, UatcvError, ValidationError, VerificationError,
)
from .netspec import (
    ConvWeights, MaterializedNetwork, draw_weights, materialize, parse_spec, to_expandable,
    verify_network,
)
from .report import analysis_section, build_report, layer_section, report_json, report_latex
from .symbolic import classify_params, emit
from .tensor import SplitMix64, element_cap, set_element_cap

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

# analysis factor streams fork off the description seed at documented offsets
LORA_SEED_OFFSET = 0x4C6F5241


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec", help="network description file (JSON)")
    p.add_argument("--seed", type=int, default=None, help="override the description seed")
    p.add_argument("--cap", type=int, default=None, help="element cap override")


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="uatcv", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lower", help="per-layer lowering statistics")
    _add_common(p)
    p.add_argument("--out", type=Path, default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("verify", help="compare lowerings against direct evaluation")
    _add_common(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("expand", help="emit the canonical expanded form")
    _add_common(p)
    p.add_argument("--format", choices=("text", "latex"), default="text")

    p = sub.add_parser("classify", help="fixed vs input-dependent parameter table")
    _add_common(p)

    p = sub.add_parser("analyze", help="term counts, receptive fields, LoRA, pruning")
    _add_common(p)
    p.add_argument("--trials", type=int, default=8, help="impact-sample inputs")
    p.add_argument("--lora-layer", type=int, default=None)
    p.add_argument("--lora-rank", type=int, default=None, help="default 1")
    p.add_argument("--lora-target", default=None, help="default w_2; none on conv layers")
    p.add_argument("--prune-layer", type=int, default=None)
    p.add_argument("--prune-channels", default=None, help="comma-separated indices")
    p.add_argument("--prune-threshold", type=float, default=None)

    p = sub.add_parser("report", help="full deterministic report")
    _add_common(p)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--format", choices=("text", "latex"), default="text",
                   help="latex additionally writes a .tex sidecar next to --out")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-9)
    return ap


def _load(args) -> MaterializedNetwork:
    spec = parse_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    return materialize(spec)


def _random_lora(net, layer: int, rank: int, target: str | None) -> LoraDelta:
    if not 0 <= layer < len(net.layers):
        raise ValidationError(f"no layer {layer} in a {len(net.layers)}-layer network")
    if rank < 1:
        raise ValidationError(f"--lora-rank must be >= 1, got {rank}")
    rt = net.layers[layer]
    if isinstance(rt.weights, ConvWeights) and target is not None:
        raise ValidationError(
            f"layer {layer} ({rt.spec.kind}) takes no --lora-target: its one target is the kernel"
        )
    target = "w_2" if target is None else target
    m, n = rt.spec.lora_matrix(rt, target).shape
    if rank > min(m, n):
        raise ValidationError(f"--lora-rank {rank} exceeds min(target dims) = {min(m, n)}")
    gen = SplitMix64(net.spec.seed + LORA_SEED_OFFSET)
    where = f"layer {layer} ({rt.spec.kind}) LoRA factor"
    b, a = draw_weights(gen, where, (m, rank), (rank, n))
    return LoraDelta(layer=layer, a=a, b=b, target=target)


def _prune(
    net, layer: int, channels: str | None, threshold: float | None
) -> tuple[PruneMask, MaterializedNetwork]:
    """The mask the flags name and the network it prunes, which the impact
    measurement reuses."""
    if channels is not None:
        try:
            channels = tuple(int(c) for c in channels.split(",") if c.strip())
        except ValueError:
            raise ValidationError(f"--prune-channels takes integers, got {channels!r}") from None
        if not channels:
            raise ValidationError("--prune-channels lists no channel")
    try:
        mask = PruneMask(layer=layer, channels=channels, threshold=threshold)
        # an existing conv layer and channels, one left, absorbed downstream
        return mask, prune(net, mask)
    except SpecError as exc:  # the library's own checks, here on command-line values
        raise ValidationError(str(exc)) from None


def _write(*docs: tuple[Path | None, str]) -> None:
    """Write each ``(path, text)`` and print where, or the text to stdout when
    ``path`` is None.  A path that cannot be opened to append (which truncates
    nothing) is a ValidationError, raised before any text is written, once
    the files those opens created are removed."""
    paths = [path for path, _ in docs if path is not None]
    created = [path for path in paths if not os.path.lexists(path)]
    try:
        for path in paths:
            open(path, "a").close()
        for path, text in docs:
            if path is not None:
                path.write_text(text, encoding="utf-8")
    except OSError as exc:
        for made in created:
            made.unlink(missing_ok=True)
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None
    for path, text in docs:
        sys.stdout.write(text if path is None else f"wrote {path}\n")


def _cmd_lower(args) -> int:
    _write((args.out, report_json({"layers": layer_section(_load(args))})))
    return EXIT_OK


def _cmd_verify(args) -> int:
    net = _load(args)
    result = verify_network(net, trials=args.trials, tol=args.tol)
    for i, diff in enumerate(result["per_layer_max_abs_diff"]):
        status = "ok" if diff <= args.tol else "FAIL"
        print(f"layer {i} ({net.layers[i].spec.kind}): max abs diff {diff:.3e} [{status}]")
    print(
        f"{result['trials']} trials, tol {result['tolerance']:g}: "
        + ("PASS" if result["passed"] else "FAIL")
    )
    if not result["passed"]:
        raise VerificationError(
            f"max abs diff {result['max_abs_diff']:.3e} exceeds tol {args.tol:g}"
        )
    return EXIT_OK


def _cmd_expand(args) -> int:
    net = _load(args)
    exp = to_expandable(net)
    if exp.preprocessing:
        print(f"% {exp.preprocessing}" if args.format == "latex" else f"# {exp.preprocessing}")
    print(emit(exp.chain.canonical, args.format))
    return EXIT_OK


def _cmd_classify(args) -> int:
    net = _load(args)
    exp = to_expandable(net)
    rows = classify_params(exp.chain.canonical)
    width = max(len(r.display) for r in rows)
    print(f"{'atom':<{width}}  {'kind':<6}  {'dependence':<16}  provenance")
    for r in rows:
        print(f"{r.display:<{width}}  {r.kind:<6}  {r.dependence.value:<16}  {r.provenance}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if args.lora_layer is None and (args.lora_rank, args.lora_target) != (None, None):
        raise ValidationError("--lora-rank and --lora-target need --lora-layer")
    if args.prune_layer is None and (args.prune_channels, args.prune_threshold) != (None, None):
        raise ValidationError("--prune-channels and --prune-threshold need --prune-layer")
    net = _load(args)
    lora = None
    if args.lora_layer is not None:
        rank = 1 if args.lora_rank is None else args.lora_rank
        lora = _random_lora(net, args.lora_layer, rank, args.lora_target)
    mask = pruned = None
    if args.prune_layer is not None:
        mask, pruned = _prune(net, args.prune_layer, args.prune_channels, args.prune_threshold)
    doc = analysis_section(
        net, lora=lora, prune_mask=mask, pruned=pruned, impact_inputs=args.trials
    )
    sys.stdout.write(report_json(doc))
    return EXIT_OK


def _cmd_report(args) -> int:
    if args.out and args.format == "latex" and args.out.suffix == ".tex":
        raise ValidationError(f"--out {args.out} is the path of its own .tex sidecar")
    net = _load(args)
    doc = build_report(net, trials=args.trials, tol=args.tol)
    docs = [(args.out, report_json(doc))]
    if args.format == "latex":
        docs.append((args.out and args.out.with_suffix(".tex"), report_latex(doc)))
    _write(*docs)
    return EXIT_OK


_COMMANDS = {
    "lower": _cmd_lower,
    "verify": _cmd_verify,
    "expand": _cmd_expand,
    "classify": _cmd_classify,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    previous_cap = set_element_cap(None)  # put back when main returns or raises
    lowering.cell_pattern.cache_clear()  # each command builds its own cell patterns
    try:
        if args.cap is not None and args.cap < 1:
            raise ValidationError(f"--cap must be >= 1, got {args.cap}")
        if getattr(args, "trials", 1) < 1:
            raise ValidationError(f"--trials must be >= 1, got {args.trials}")
        tol = getattr(args, "tol", 0.0)
        if not math.isfinite(tol) or tol < 0:
            raise ValidationError(f"--tol must be finite and >= 0, got {tol}")
        try:  # the environment variable is read once, here
            set_element_cap(element_cap() if args.cap is None else args.cap)
        except RangeError as exc:
            raise ValidationError(str(exc)) from None
        return _COMMANDS[args.command](args)
    except UatcvError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        if isinstance(exc, (ParseError, ValidationError)):
            return EXIT_PARSE
        return EXIT_VERIFY if isinstance(exc, VerificationError) else EXIT_INTERNAL
    finally:
        set_element_cap(previous_cap)
        lowering.cell_pattern.cache_clear()


if __name__ == "__main__":
    sys.exit(main())
