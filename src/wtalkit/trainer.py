"""Training loop, learning-rate schedule, checkpointing, and ablation grids."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError
from .evaluate import DEFAULT_IOU_THRESHOLDS, EvalReport, evaluate
from .localize import localize_video
from .losses import GradMode, LossBreakdown, backward
# unused here, but bench/test_bench.py checks that its tracer patches this binding
from .model import Hyperparams, ModelParams, forward, init_params, save_checkpoint  # noqa: F401
from .numerics import AdamState, adam_step
from .ten import make_plan


@dataclass
class RunConfig:
    """One training run: mode, branch wiring, optimizer, and bookkeeping.

    `iterations` is the number of Adam steps; nothing else sets it. With
    use_ten off, or with k=1 (where sample-and-refill is the identity and the
    branch would duplicate the base pass), the continuity branch never runs
    and its losses are exactly 0.
    """

    grad_mode: GradMode = GradMode.STANDARD
    use_ten: bool = False
    hp: Hyperparams = field(default_factory=Hyperparams)
    learning_rate: float = 1e-3
    decay_fraction: float = 0.1
    weight_decay: float = 1e-3
    iterations: int = 6000
    batch_size: int = 16
    seed: int = 0
    checkpoint_path: str | None = None
    log_path: str | None = None
    checkpoint_every: int = 0  # 0 = write only the final checkpoint


@dataclass
class LogRow:
    step: int
    losses: LossBreakdown
    learning_rate: float


@dataclass
class TrainResult:
    params: ModelParams
    log: list


def write_log_csv(path, log: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss_fg,loss_bg,loss_att,loss_kl,loss_all,learning_rate\n")
        for row in log:
            b = row.losses
            fh.write(f"{row.step},{b.fg:.8f},{b.bg:.8f},{b.att:.8f},"
                     f"{b.kl:.8f},{b.total:.8f},{row.learning_rate:.8g}\n")


def train(videos: list, config: RunConfig) -> TrainResult:
    """Run the configured number of Adam steps over randomly batched videos.

    `videos` need features and a video label only (TrainingVideo suffices);
    ground truth is never consulted. Deterministic under config.seed.
    """
    if not videos:
        raise ValueError("train: empty dataset")
    if not 0.0 <= config.decay_fraction <= 1.0:
        raise ValueError("decay_fraction must lie in [0, 1]")
    if config.iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {config.iterations}")
    hp = config.hp
    rng = np.random.default_rng(config.seed)
    # plans draw from their own stream so enabling the continuity branch
    # never shifts init or batch order; ablation rows at one seed stay
    # batch-for-batch comparable
    plan_rng = np.random.default_rng((config.seed, 1))
    feature_dim = videos[0].x_rgb.shape[1]
    num_classes = videos[0].video_label.shape[0]
    embed_dim = hp.embed_dim if hp.embed_dim > 0 else feature_dim
    params = init_params(rng, feature_dim, embed_dim, num_classes, hp.kernel_size)
    # params become views of the buffer that adam_step updates in place
    flat = params.to_vector()
    params = params.from_vector(flat)
    state = AdamState(shape=flat.shape, learning_rate=config.learning_rate,
                      weight_decay=config.weight_decay)
    half = config.iterations // 2
    log = []

    for step in range(config.iterations):
        batch = [videos[int(i)] for i in rng.integers(0, len(videos), size=config.batch_size)]
        # k=1 sampling is the identity, so the continuity pair carries no
        # signal; the branch only runs when it can differ from the base
        plans = None
        if config.use_ten and hp.k > 1:
            plans = [make_plan(v.x_rgb.shape[0], hp.k, plan_rng) for v in batch]
        try:
            grad, mean_losses = backward(batch, plans, params, hp, config.grad_mode)
        except NumericError as exc:
            raise NumericError(f"step {step} on batch "
                               f"{[v.video_id for v in batch]}: {exc}") from exc
        state.learning_rate = (config.learning_rate * config.decay_fraction
                               if step >= half else config.learning_rate)
        adam_step(flat, grad, state)
        log.append(LogRow(step=step, losses=mean_losses,
                          learning_rate=state.learning_rate))
        if (config.checkpoint_path and config.checkpoint_every > 0
                and (step + 1) % config.checkpoint_every == 0):
            save_checkpoint(config.checkpoint_path, params)

    if config.checkpoint_path:
        save_checkpoint(config.checkpoint_path, params)
    if config.log_path:
        write_log_csv(config.log_path, log)
    return TrainResult(params=params, log=log)


def localize_dataset(records: list, params: ModelParams, hp: Hyperparams) -> dict:
    """Proposals for every record, keyed by video id."""
    return {r.video_id: localize_video(r.x_rgb, r.x_flow, params, hp)
            for r in records}


# Component grid: (row label, gradient mode, continuity branch on)
COMPONENT_GRID = (
    ("BL", GradMode.STANDARD, False),
    ("BL+BGES", GradMode.BGES, False),
    ("TEN", GradMode.STANDARD, True),
    ("TEN+BGES", GradMode.BGES, True),
    ("TEN+GRL", GradMode.GRL, True),
    ("BL+BVL", GradMode.BVL, False),
    ("TEN+BVL", GradMode.BVL, True),
    ("TEN+BVL+BGES", GradMode.BVL_PLUS_BGES, True),
)


def component_rows(config: RunConfig) -> list:
    """One (label, RunConfig) ablation row per COMPONENT_GRID entry: `config`
    with that entry's gradient mode and continuity-branch switch."""
    return [(label, replace(config, grad_mode=mode, use_ten=use_ten))
            for label, mode, use_ten in COMPONENT_GRID]


@dataclass
class AblationRow:
    label: str
    report: EvalReport
    final_loss: float


def ablate(train_videos: list, test_records: list, rows: list,
           iou_thresholds=DEFAULT_IOU_THRESHOLDS) -> list:
    """Train, localize and evaluate each (label, RunConfig) row, in order.

    Rows never write checkpoints or logs, whatever their configs say.
    """
    results = []
    for label, config in rows:
        config = replace(config, checkpoint_path=None, log_path=None)
        result = train(train_videos, config)
        proposals = localize_dataset(test_records, result.params, config.hp)
        report = evaluate(proposals, test_records, iou_thresholds=iou_thresholds)
        results.append(AblationRow(label=label, report=report,
                                   final_loss=result.log[-1].losses.total))
    return results


def _ablation_cells(report: EvalReport) -> list:
    """mAP@0.5 and the three range averages; nan where not evaluated."""
    nan = float("nan")
    return [report.map_by_threshold.get(0.5, nan)] + [
        report.averages.get(k, nan) for k in ("0.1:0.5", "0.3:0.7", "0.1:0.7")]


def format_ablation(rows: list) -> str:
    """Fixed-width summary, one grid row per line."""
    lines = [f"{'run':<16} {'mAP@0.5':>8} {'avg[0.1:0.5]':>13} "
             f"{'avg[0.3:0.7]':>13} {'avg[0.1:0.7]':>13}"]
    for row in rows:
        m05, *avgs = _ablation_cells(row.report)
        lines.append(f"{row.label:<16} {m05:>8.4f} {avgs[0]:>13.4f} "
                     f"{avgs[1]:>13.4f} {avgs[2]:>13.4f}")
    return "\n".join(lines)


def write_ablation_csv(path, rows: list) -> None:
    """The same cells as `format_ablation`, one CSV line per grid row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label,map_at_05,avg_01_05,avg_03_07,avg_01_07\n")
        for row in rows:
            cells = ",".join(f"{v:.6f}" for v in _ablation_cells(row.report))
            fh.write(f"{row.label},{cells}\n")
