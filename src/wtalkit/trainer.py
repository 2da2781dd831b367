"""Training loop, learning-rate schedule, checkpointing, and ablation grids.

`localize_dataset`, like the training step's `losses.backward`, runs the
packed forward through `losses.packed_chunks`. A numeric failure in a
training step (forward, backward or Adam) is raised again naming the step
and the batch's video ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .container import atomic_write
from .errors import NumericError, at_least, check_settings, within
from .evaluate import DEFAULT_IOU_THRESHOLDS, EvalReport, evaluate
from .localize import localize_scores
from .losses import GradMode, LossBreakdown, backward, packed_chunks
from .model import Hyperparams, ModelParams, init_params, save_checkpoint
# unused here, but bench/test_bench.py checks that its tracer patches this binding
from .model import forward  # noqa: F401
from .numerics import AdamState, adam_step
from .ten import make_plan


@dataclass(frozen=True)
class RunConfig:
    """The settings of one training run: mode, branch wiring, optimizer
    and checkpoint cadence. Where the run writes is an argument of `train`.

    `iterations` is the number of Adam steps; nothing else sets it. With
    use_ten off, or with k=1 (where sample-and-refill is the identity and the
    branch would duplicate the base pass), the continuity branch never runs
    and its losses are exactly 0. Frozen: construction (and so
    `dataclasses.replace`) checks every value and raises ConfigError.
    """

    mode: GradMode = GradMode.STANDARD
    use_ten: bool = False
    hp: Hyperparams = field(default_factory=Hyperparams)
    learning_rate: float = 1e-3
    decay_fraction: float = 0.1
    weight_decay: float = 1e-3
    iterations: int = 6000
    batch_size: int = 16
    seed: int = 0
    checkpoint_every: int = 0  # 0 = write only the final checkpoint

    def __post_init__(self):
        check_settings(
            self, learning_rate=at_least(0), decay_fraction=within(0, 1),
            weight_decay=at_least(0), iterations=at_least(1), batch_size=at_least(1),
            seed=at_least(0), checkpoint_every=at_least(0))

    def learning_rate_at(self, step: int) -> float:
        """The step size of 0-based `step`: `learning_rate` before
        `iterations // 2`, times `decay_fraction` from there on."""
        return (self.learning_rate * self.decay_fraction if step >= self.iterations // 2
                else self.learning_rate)


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
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("step,loss_fg,loss_bg,loss_att,loss_kl,loss_bvl,loss_all,learning_rate\n")
        for row in log:
            b = row.losses
            fh.write(f"{row.step},{b.fg:.8f},{b.bg:.8f},{b.att:.8f},"
                     f"{b.kl:.8f},{b.bvl:.8f},{b.total:.8f},{row.learning_rate:.8g}\n")


def train(videos: list, config: RunConfig, checkpoint_path=None,
          log_path=None) -> TrainResult:
    """Run the configured number of Adam steps over randomly batched videos.

    `videos` need features and a video label only (TrainingVideo suffices);
    ground truth is never consulted. Deterministic under config.seed. A
    checkpoint goes to `checkpoint_path` after the last step and after each
    multiple of `checkpoint_every`; the loss CSV goes to `log_path` at the end.
    """
    if not videos:
        raise ValueError("train: empty dataset")
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
    state = AdamState(np.zeros(params.size), np.zeros(params.size))
    log = []

    for step in range(config.iterations):
        batch = [videos[int(i)] for i in rng.integers(0, len(videos), size=config.batch_size)]
        # k=1 sampling is the identity, so the continuity pair carries no
        # signal; the branch only runs when it can differ from the base
        plan = None
        if config.use_ten and hp.k > 1:
            plan = make_plan([v.x_rgb.shape[0] for v in batch], hp.k, plan_rng)
        learning_rate = config.learning_rate_at(step)
        try:
            grad, mean_losses = backward(batch, plan, params, hp, config.mode)
            adam_step(params.vector, grad, state, learning_rate, config.weight_decay)
        except NumericError as exc:
            raise NumericError(f"step {step} on batch "
                               f"{[v.video_id for v in batch]}: {exc}") from exc
        log.append(LogRow(step=step, losses=mean_losses, learning_rate=learning_rate))
        done = step + 1
        if checkpoint_path and (done == config.iterations or config.checkpoint_every
                                and done % config.checkpoint_every == 0):
            save_checkpoint(checkpoint_path, params)

    if log_path:
        write_log_csv(log_path, log)
    return TrainResult(params=params, log=log)


def localize_dataset(records: list, params: ModelParams, hp: Hyperparams) -> dict:
    """Each record's `localize.Proposals`, keyed by video id in record order.

    One packed Standard forward per `packed_chunks` chunk of records (the
    forward training uses), then `localize_scores` on each video's rows.
    """
    proposals = {}
    for lo, hi, out in packed_chunks(records, None, params):
        for r, start, t, p_fg in zip(records[lo:hi], out.starts, out.lengths, out.p_fg.T):
            rows = slice(start, start + t)
            proposals[r.video_id] = localize_scores(out.y[:, rows], out.a[rows], p_fg, hp)
        del out  # before the next chunk's forward
    return proposals


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
    return [(label, replace(config, mode=mode, use_ten=use_ten))
            for label, mode, use_ten in COMPONENT_GRID]


@dataclass
class AblationRow:
    label: str
    report: EvalReport


def ablate(train_videos: list, test_records: list, rows: list,
           iou_thresholds=DEFAULT_IOU_THRESHOLDS) -> list:
    """Train, localize and evaluate each (label, RunConfig) row, in order."""
    results = []
    for label, config in rows:
        params = train(train_videos, config).params
        proposals = localize_dataset(test_records, params, config.hp)
        report = evaluate(proposals, test_records, iou_thresholds=iou_thresholds)
        results.append(AblationRow(label=label, report=report))
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
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("label,map_at_05,avg_01_05,avg_03_07,avg_01_07\n")
        for row in rows:
            cells = ",".join(f"{v:.6f}" for v in _ablation_cells(row.report))
            fh.write(f"{row.label},{cells}\n")
