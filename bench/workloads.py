"""Benchmark workloads: a synthetic world (INI file plus `gen` flags) and one
round of `wtalkit` CLI commands.

Every workload runs the same kinds of user commands, so every end-to-end
metric is measured on every workload: a round trains BL and TEN+BGES,
localizes and evaluates with a fixed reference model, and certifies
gradients; the two rows' models are localized and evaluated once per run.
What differs is the shape of the world, how often each command repeats in a
round, which modes `gradcheck` certifies, which commands `wall_s` counts,
and so where the time goes. Step
counts are passed as `--iterations` and never set in the INI files, which
only set `[synth]` keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent

# RunConfig's default batch size; no workload overrides it.
BATCH_SIZE = 16
# Pinned so that extending the default certified modes does not change the
# workloads. One instance per mode keeps a command under a second, so a
# run holds many of them; it is the first of the fixed sequence that
# `gradcheck --instances 20` certifies. Workloads whose own sequence is not
# certification certify only the paper's BGES mode.
CERTIFY_MODES = ("standard", "bges", "bvl")
SIDE_CERTIFY_MODES = ("bges",)
CERTIFY_INSTANCES = 1

ROWS = (("bl", ("--mode", "standard", "--no-ten")),
        ("ten_bges", ("--mode", "bges", "--ten")))
# Training seed of the reference model. Seed 0 is avoided: it hits a
# documented transient collapse of the enhanced background pooling.
REFERENCE_SEED = 1
SYNTH_SEED = 7
# How often a round localizes and evaluates with the reference model.
REFERENCE_REPS = 2


class Calibration(NamedTuple):
    """Shape of the host gauge's calibration kernel (see run.HostGauge) and
    its seconds on a quiet host: `steps` training steps over videos of
    `lengths` snippets with `dim` features."""

    dim: int
    lengths: tuple
    steps: int
    quiet_s: float


# A busy host slows dispatch-bound and GEMM-bound code by different
# amounts, so a timed item is gauged by a kernel with the shape of its main
# work (see Workload.calibration_for). quiet_s is the fastest time seen on
# the VM of bench/README.md.
SMALL_CALIBRATION = Calibration(dim=16, lengths=(24, 40, 32, 56, 16, 48), steps=20,
                                quiet_s=0.0092)
LARGE_CALIBRATION = Calibration(dim=256, lengths=(300, 450, 600), steps=2, quiet_s=0.0092)


@dataclass(frozen=True)
class Workload:
    """One world and one round of commands.

    `train_steps` is the `--iterations` of both training rows. The reference
    model is the TEN+BGES row trained once per run at REFERENCE_SEED for
    `reference_steps`; `localize` and `eval` are timed on it
    REFERENCE_REPS times per round, so their work does not depend on the
    run's seed. `gradcheck_reps` is how often a round certifies gradients,
    and `setup_reps` how often a run sets up. `own_gradcheck` says whether
    certification is the workload's own sequence: then `gradcheck` certifies
    all of CERTIFY_MODES and `wall_s` counts it. Elsewhere it certifies
    SIDE_CERTIFY_MODES only so that `gradcheck_s` is measured on every
    workload, and `wall_s` leaves it out: it would dilute the train,
    localize and eval time that `wall_s` tracks. `calibration` is the
    shape of the world's training step, for the host gauge.
    """

    name: str
    train_steps: int
    reference_steps: int
    gradcheck_reps: int
    setup_reps: int
    own_gradcheck: bool
    calibration: Calibration

    @property
    def certify_modes(self) -> tuple:
        return CERTIFY_MODES if self.own_gradcheck else SIDE_CERTIFY_MODES

    def calibration_for(self, label: str) -> Calibration:
        """The kernel that gauges the host around one timed item.

        Set-ups and `train` commands handle the world's full-size arrays, so
        they get the world's kernel; `localize`, `eval` and `gradcheck` spend
        most of their time in per-call dispatch whatever the world, so they
        get the small one.
        """
        if label == "setup" or label.startswith("train."):
            return self.calibration
        return SMALL_CALIBRATION

    @property
    def calibrations(self) -> tuple:
        return tuple(dict.fromkeys((self.calibration, SMALL_CALIBRATION)))

    def gradcheck_argv(self) -> list:
        return ["gradcheck", "--instances", str(CERTIFY_INSTANCES),
                "--tolerance", "1e-5", "--eps", "1e-5",
                "--modes", ",".join(self.certify_modes)]

    @property
    def ini(self) -> Path:
        return HERE / "workloads" / f"{self.name}.ini"

    def config(self) -> list:
        return ["--config", str(self.ini)]

    def gen_argv(self, data_dir: Path) -> list:
        return self.config() + ["gen", "--out", str(data_dir), "--seed", str(SYNTH_SEED)]

    def train_argv(self, flags, steps: int, seed: int, data_dir: Path, ckpt: Path) -> list:
        return self.config() + ["train", "--data", str(data_dir / "train.bin"), *flags,
                                "--iterations", str(steps), "--seed", str(seed),
                                "--out", str(ckpt)]

    def reference_argv(self, data_dir: Path, ckpt: Path) -> list:
        return self.train_argv(ROWS[1][1], self.reference_steps, REFERENCE_SEED,
                               data_dir, ckpt)

    def inference_argv(self, name: str, ckpt: Path, data_dir: Path, out_dir: Path) -> list:
        test = str(data_dir / "test.bin")
        props, report = out_dir / f"{name}.tsv", out_dir / f"{name}.csv"
        return [(f"localize.{name}", self.config() + [
                    "localize", "--checkpoint", str(ckpt), "--data", test,
                    "--out", str(props)]),
                (f"eval.{name}", self.config() + [
                    "eval", "--proposals", str(props), "--data", test,
                    "--out", str(report)])]

    def round_argv(self, seed: int, data_dir: Path, out_dir: Path, reference: Path) -> list:
        """(label, argv) pairs of one timed round; both rows train with `seed`.

        The rows' own localize and eval depend on how many proposals each
        row's model makes, which changes with the seed, so they are not part
        of the timed round (see rows_argv).
        """
        cmds = [(f"train.{row}", self.train_argv(flags, self.train_steps, seed, data_dir,
                                                  out_dir / f"{row}.ckpt"))
                for row, flags in ROWS]
        for _ in range(REFERENCE_REPS):
            cmds += self.inference_argv("reference", reference, data_dir, out_dir)
        cmds += [("gradcheck", self.gradcheck_argv())] * self.gradcheck_reps
        return cmds

    def rows_argv(self, data_dir: Path, out_dir: Path) -> list:
        """(label, argv) pairs that localize and evaluate the rows' models."""
        return [cmd for row, _ in ROWS
                for cmd in self.inference_argv(row, out_dir / f"{row}.ckpt", data_dir, out_dir)]


WORKLOADS = {w.name: w for w in (
    Workload(name="golden", train_steps=20, reference_steps=100, gradcheck_reps=1,
             setup_reps=12, own_gradcheck=False, calibration=SMALL_CALIBRATION),
    Workload(name="long", train_steps=2, reference_steps=4, gradcheck_reps=2,
             setup_reps=5, own_gradcheck=False, calibration=LARGE_CALIBRATION),
    Workload(name="gradcheck", train_steps=20, reference_steps=100, gradcheck_reps=2,
             setup_reps=12, own_gradcheck=True, calibration=SMALL_CALIBRATION),
)}
