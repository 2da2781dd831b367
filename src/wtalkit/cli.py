"""Command-line entry point: gen, train, gradcheck, localize, eval, ablate.

Exit codes: 0 success, 1 usage or config error, 2 data error (a bad or
unreadable file, or an output path that cannot be written or that names an
input or another output), 3 numeric failure
(training blow-up or failed gradient certification). The default config path
comes from $WTALKIT_CONFIG, if set and not empty, when --config is not given.
The settings types check every value when the file loads and when a flag or
an ablation row overrides one, so a bad value is refused before any data is
read.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import os
import sys
import warnings
from dataclasses import replace

from .config import MODE_NAMES, Config, coerce, load_config, parse_mode
from .errors import ConfigError, DataFormatError, NumericError
from .evaluate import evaluate, format_summary, write_report_csv
from .localize import read_proposals, write_proposals
from .losses import CERTIFIED_MODES, certify_gradients
from .model import load_checkpoint
from .synth import generate, read_dataset, training_view, write_dataset
from .trainer import (
    ablate,
    component_rows,
    format_ablation,
    localize_dataset,
    train,
    write_ablation_csv,
)

ENV_CONFIG = "WTALKIT_CONFIG"


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_path(args):
    # an empty $WTALKIT_CONFIG names no file; an empty --config is an error
    return args.config if args.config is not None else os.environ.get(ENV_CONFIG) or None


def _writable(args, outputs: dict, inputs: dict) -> None:
    """Refuse, before any work, an output path that is empty, whose directory is
    missing, that is itself a directory, or that resolves to the same file as
    an input or another output. `outputs` and `inputs` map each flag to its
    path, None when not given; the config file is an input of every command."""
    taken = {os.path.realpath(path): flag
             for flag, path in {"the config": _config_path(args), **inputs}.items() if path}
    for flag, path in outputs.items():
        if path is None:
            continue
        if not path:
            raise FileNotFoundError(f"cannot write {flag}: the path is empty")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"cannot write {path}: its directory does not exist")
        if os.path.isdir(path):
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
        real = os.path.realpath(path)
        if real in taken:
            raise FileExistsError(f"cannot write {path} ({flag}): "
                                  f"it is the same file as {taken[real]}")
        taken[real] = flag


def _load(args) -> Config:
    return load_config(_config_path(args))


def _given(settings, **flags):
    """`settings` with every flag that was given (is not None) applied, in one
    checked `replace`."""
    return replace(settings, **{name: v for name, v in flags.items() if v is not None})


def cmd_gen(args) -> int:
    cfg = _load(args)
    synth = _given(cfg.synth, seed=args.seed, confound_strength=args.confound,
                   noise_sigma=args.noise)
    os.makedirs(args.out, exist_ok=True)
    train_path = os.path.join(args.out, "train.bin")
    test_path = os.path.join(args.out, "test.bin")
    _writable(args, {"train.bin": train_path, "test.bin": test_path}, {})
    train_recs, test_recs = generate(synth)
    write_dataset(train_path, train_recs, num_classes=synth.num_classes)
    write_dataset(test_path, test_recs, num_classes=synth.num_classes)
    print(f"wrote {train_path} ({len(train_recs)} videos) sha256={_sha256(train_path)}")
    print(f"wrote {test_path} ({len(test_recs)} videos) sha256={_sha256(test_path)}")
    return 0


def _training_set(path):
    """The dataset at `path`, refused when it holds no video to train on."""
    dataset = read_dataset(path)
    if not dataset.records:
        raise DataFormatError(f"{path} holds no videos to train on")
    return dataset


def _run_overrides(args, cfg: Config):
    run = _given(cfg.run, mode=MODE_NAMES.get(getattr(args, "mode", None)),
                 use_ten=getattr(args, "ten", None), iterations=args.iterations,
                 seed=args.seed)
    return _given(run, hp=_given(run.hp, lam=getattr(args, "lam", None)))


def cmd_train(args) -> int:
    _writable(args, {"--out": args.out, "--log": args.log}, {"--data": args.data})
    cfg = _load(args)
    run = _run_overrides(args, cfg)
    videos = training_view(_training_set(args.data).records)
    last = train(videos, run, checkpoint_path=args.out, log_path=args.log).log[-1].losses
    if args.out is None:
        print("training finished (no checkpoint path given)")
    else:
        print(f"wrote {args.out}")
    print(f"final losses: fg={last.fg:.4f} bg={last.bg:.4f} att={last.att:.4f} "
          f"kl={last.kl:.4f} bvl={last.bvl:.4f} total={last.total:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {args.instances}")
    if not 0 < args.eps < float("inf"):
        raise ConfigError(f"--eps must be finite and > 0, got {args.eps}")
    if not args.tolerance >= 0:
        raise ConfigError(f"--tolerance must be >= 0, got {args.tolerance}")
    modes = CERTIFIED_MODES
    if args.modes is not None:
        modes = tuple(parse_mode(m, "--modes") for m in args.modes.split(","))
    for i, mode in enumerate(modes):
        if not mode.is_gradient:
            raise ConfigError(f"--modes: {mode.value} is not the gradient of a loss, "
                              "so it cannot be certified")
        if mode in modes[:i]:
            raise ConfigError(f"--modes: {mode.value} is named twice")
    results = certify_gradients(num_instances=args.instances,
                                tolerance=args.tolerance,
                                modes=modes, fd_epsilon=args.eps,
                                flip_block=args.inject_bug)
    print(f"certifying {args.instances} instances per mode, "
          f"tolerance {args.tolerance:g}, step {args.eps:g}")
    failed = False
    for mode in modes:
        of_mode = [r for r in results if r.mode == mode.value]
        worst = max(r.max_rel_error for r in of_mode)
        ok = all(r.passed for r in of_mode)
        failed |= not ok
        print(f"{mode.value:10s} worst relative error {worst:.3e} "
              f"{'PASS' if ok else 'FAIL'}")
    if args.inject_bug:
        print(f"note: analytic gradient of block {args.inject_bug!r} was "
              "negated before comparison")
    return 3 if failed else 0


def _same_shape(path_a, shape_a: tuple, path_b, dataset) -> None:
    """Refuse a dataset whose feature dimension D or class count C differs
    from shape_a. An empty dataset has no D to differ (its header holds 0),
    so only its C is compared."""
    shape_b = (dataset.feature_dim, dataset.num_classes)
    compared = 0 if dataset.records else 1
    if shape_a[compared:] != shape_b[compared:]:
        raise DataFormatError(f"{path_a} has (D, C) = {shape_a} but "
                              f"{path_b} has (D, C) = {shape_b}")


def cmd_localize(args) -> int:
    _writable(args, {"--out": args.out},
              {"--checkpoint": args.checkpoint, "--data": args.data})
    params = load_checkpoint(args.checkpoint)
    cfg = _load(args)
    dataset = read_dataset(args.data)
    d, _, c, _ = params.header
    _same_shape(args.checkpoint, (d, c), args.data, dataset)
    proposals = localize_dataset(dataset.records, params, cfg.run.hp)
    write_proposals(args.out, proposals,
                    frames_per_snippet=dataset.frames_per_snippet,
                    fps=dataset.fps)
    total = sum(v.cls.size for v in proposals.values())
    print(f"wrote {args.out}: {total} proposals over {len(proposals)} videos")
    return 0


def cmd_eval(args) -> int:
    _writable(args, {"--out": args.out}, {"--proposals": args.proposals, "--data": args.data})
    cfg = _load(args)
    dataset = read_dataset(args.data)
    proposals = read_proposals(args.proposals)
    report = evaluate(proposals, dataset.records,
                      iou_thresholds=cfg.iou_thresholds,
                      num_classes=dataset.num_classes)
    if args.out:
        write_report_csv(args.out, report)
        print(f"wrote {args.out}")
    print(format_summary(report))
    return 0


def _ablation_rows(args, run) -> list:
    """The (label, RunConfig) rows of the requested grid."""
    if args.grid == "components":
        if args.values is not None:
            raise ConfigError("--values does not apply to --grid components")
        return component_rows(run)
    if not args.values:
        raise ConfigError(f"--values is required for --grid {args.grid}")
    kind = int if args.grid == "k" else float
    values = [coerce(f"--values for --grid {args.grid}", v, kind)
              for v in args.values.split(",")]
    if args.grid == "k":
        # the sampling interval only acts through the continuity branch
        return [(f"k={v}", replace(run, use_ten=True, hp=replace(run.hp, k=v)))
                for v in values]
    return [(f"lambda={v:g}", replace(run, hp=replace(run.hp, lam=v))) for v in values]


def cmd_ablate(args) -> int:
    _writable(args, {"--out": args.out}, {"--data": args.data, "--test": args.test})
    cfg = _load(args)
    grid = _ablation_rows(args, _run_overrides(args, cfg))
    train_ds = _training_set(args.data)
    test_ds = read_dataset(args.test)
    _same_shape(args.data, (train_ds.feature_dim, train_ds.num_classes), args.test, test_ds)
    rows = ablate(training_view(train_ds.records), test_ds.records, grid,
                  cfg.iou_thresholds)
    print(format_ablation(rows))
    if args.out:
        write_ablation_csv(args.out, rows)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtalkit",
        description="Weakly supervised temporal action localization toolkit: "
                    "synthetic data, training with background-gradient "
                    "strategies, inference, and mAP evaluation.")
    parser.add_argument("--config", default=None,
                        help=f"INI config path (default: ${ENV_CONFIG})")
    sub = parser.add_subparsers(dest="command", required=True)
    formatter = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("gen", formatter_class=formatter,
                       help="generate a synthetic dataset pair")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override synth seed")
    p.add_argument("--confound", type=float, default=None,
                   help="override confound_strength")
    p.add_argument("--noise", type=float, default=None, help="override noise_sigma")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", formatter_class=formatter, help="train a model")
    p.add_argument("--data", required=True, help="training dataset file")
    p.add_argument("--out", default=None, help="checkpoint output path")
    p.add_argument("--log", default=None, help="per-step loss CSV path")
    p.add_argument("--mode", choices=sorted(MODE_NAMES), default=None,
                   help="background gradient mode")
    ten = p.add_mutually_exclusive_group()
    ten.add_argument("--ten", dest="ten", action="store_true", default=None,
                     help="enable the temporal continuity branch")
    ten.add_argument("--no-ten", dest="ten", action="store_false",
                     help="disable the temporal continuity branch")
    p.add_argument("--iterations", type=int, default=None,
                   help="training steps (default: from config)")
    p.add_argument("--seed", type=int, default=None,
                   help="training seed (default: from config)")
    p.add_argument("--lam", type=float, default=None,
                   help="background loss weight override")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", formatter_class=formatter,
                       help="certify analytic gradients against finite differences")
    p.add_argument("--instances", type=int, default=20,
                   help="random tiny instances per mode")
    p.add_argument("--tolerance", type=float, default=1e-5,
                   help="max allowed relative error")
    p.add_argument("--eps", type=float, default=1e-5,
                   help="finite-difference step")
    p.add_argument("--modes", default=None,
                   help="comma list, default "
                        + ",".join(m.value for m in CERTIFIED_MODES))
    p.add_argument("--inject-bug", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("localize", formatter_class=formatter,
                       help="run inference and write proposals")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--out", required=True, help="proposal file path")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("eval", formatter_class=formatter,
                       help="score proposals against ground truth")
    p.add_argument("--proposals", required=True)
    p.add_argument("--data", required=True, help="dataset file with annotations")
    p.add_argument("--out", default=None, help="report CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", formatter_class=formatter,
                       help="train/evaluate a grid of configurations")
    p.add_argument("--data", required=True, help="training dataset file")
    p.add_argument("--test", required=True, help="test dataset file")
    p.add_argument("--grid", choices=("components", "k", "lambda"),
                   default="components")
    p.add_argument("--values", default=None,
                   help="comma list, required for the k and lambda grids, "
                        "e.g. 2,3,4,5")
    p.add_argument("--iterations", type=int, default=None,
                   help="training steps per grid row (default: from config)")
    p.add_argument("--seed", type=int, default=None,
                   help="training seed (default: from config)")
    p.add_argument("--out", default=None, help="summary CSV path")
    p.set_defaults(func=cmd_ablate)
    return parser


def _keep_heap() -> None:
    """Have glibc serve blocks up to 32 MB from a heap it trims only past
    256 MB, so each training step's temporaries reuse touched pages instead
    of faulting in fresh ones. Other allocators keep their defaults."""
    with contextlib.suppress(OSError, AttributeError, TypeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        # every non-finite result is checked and reported on one line, so
        # numpy's floating-point warnings would only repeat it; the filter is
        # process-wide and so reaches the modality worker thread, as
        # np.errstate would not
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"(overflow|invalid value|divide by zero|"
                                    r"underflow) encountered", RuntimeWarning)
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
