"""Repository benchmark: drives `wtalkit` through its command line.

    python3 bench/run.py --workload golden --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload runs in one fresh process with OpenBLAS pinned to one thread.
Set-up generates the workload's world with `wtalkit gen`, checks the dataset
fingerprints and reads the containers back; a reference model is trained
once at a fixed seed. Then whole rounds of CLI commands (see workloads.py)
run back to back, each called in-process through `wtalkit.cli.main(argv)`
and timed from outside, while the next round is expected to end within
--seconds; the first round always runs. Every command's output is checked.
A fixed calibration kernel that runs no wtalkit code is timed just before
and just after every timed command, and the command's seconds are divided
by the host's slowdown that it shows (see HostGauge). A timing is the
median of the run's host-normalised samples of that command. The last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: end-to-end metrics with --trace 0, or with --trace 1 per-layer
metrics from spans that wrap the package's public functions, taken from
traced rounds that alternate with untraced ones. Run records and spans go
to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import BATCH_SIZE, CERTIFY_INSTANCES, ROWS, WORKLOADS, Calibration, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IOU_THRESHOLDS = ("0.10", "0.20", "0.30", "0.40", "0.50", "0.60", "0.70")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_blas_threads(environ=os.environ, modules=sys.modules) -> None:
    """Pin every BLAS thread pool to one thread before numpy loads.

    BLAS threading moves some GEMMs here by more than 10x from run to run,
    so an unpinned number is not evidence. Once numpy is loaded its pool
    size is fixed, so a process that loaded it unpinned is refused.
    """
    if "numpy" in modules:
        unpinned = {v: environ.get(v) for v in THREAD_VARS if environ.get(v) != "1"}
        if unpinned:
            raise BenchError(f"numpy is already loaded with BLAS thread settings "
                             f"{unpinned}; run the benchmark in a fresh process")
    for var in THREAD_VARS:
        environ[var] = "1"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# --- host gauge ------------------------------------------------------------

def _calibration_video(x, w1, w2, label: int) -> tuple:
    """Weight gradients of one video's loss in the calibration kernel."""
    import numpy as np

    t = x.shape[0]
    idx = np.clip(np.arange(t)[:, None] + np.arange(-1, 2)[None, :], 0, t - 1)
    win = x[idx].reshape(t, -1)
    pre = win @ w1
    h = np.maximum(pre, 0.0)
    cas = h @ w2
    att = 1.0 / (1.0 + np.exp(-cas.mean(axis=1)))
    k = max(1, t // 8)
    scored = cas * att[:, None]
    top = np.sort(scored, axis=0)[-k:].mean(axis=0)
    e = np.exp(top - top.max())
    p = e / e.sum()
    g_top = p.copy()
    g_top[label] -= 1.0
    g_cas = np.zeros_like(cas)
    order = np.argsort(scored, axis=0)[-k:]
    for c in range(cas.shape[1]):
        g_cas[order[:, c], c] += g_top[c] * att[order[:, c]] / k
    dh = (g_cas @ w2.T) * (pre > 0)
    return win.T @ dh, h.T @ g_cas


def calibration_seconds(cal: Calibration) -> float:
    """Seconds of one fixed kernel that runs no wtalkit code.

    A frozen miniature of a weakly supervised training step: per video,
    temporal windows, an embedding, class activations, attention-weighted
    top-k pooling and the backward of all of it, then an SGD update, at the
    shape `cal` gives. It has its workload's mix of interpreter dispatch,
    small numpy calls and GEMMs, so a busy host slows it about as much as it
    slows the workload; a kernel of tight loops slowed less and
    under-corrected (bench/README.md). Being part of the benchmark, it does
    not change when the program does.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    videos = [(rng.standard_normal((t, cal.dim)), int(rng.integers(5)))
              for t in cal.lengths]
    w1 = 0.1 * rng.standard_normal((3 * cal.dim, 24))
    w2 = 0.1 * rng.standard_normal((24, 5))
    t0 = time.perf_counter()
    for _ in range(cal.steps):
        g1, g2 = np.zeros_like(w1), np.zeros_like(w2)
        for x, label in videos:
            d1, d2 = _calibration_video(x, w1, w2, label)
            g1 += d1
            g2 += d2
        w1 -= 0.01 * g1 / len(videos)
        w2 -= 0.01 * g2 / len(videos)
    return time.perf_counter() - t0


class HostGauge:
    """How much slower than quiet the shared host runs right now.

    The shared host runs the same code up to 1.8x slower for stretches of
    seconds to minutes (bench/README.md). Each calibration kernel is timed
    when a series of timed items starts and after each item; an item's
    factor for a kernel is the mean of its times just before and just after
    the item over its quiet-host seconds, and the item's seconds divided by
    that factor are its seconds at quiet host speed.
    """

    def __init__(self, cals: tuple, kernel=calibration_seconds):
        self.cals = cals
        self.kernel = kernel
        self.last: dict = {}

    def _times(self) -> dict:
        return {cal: self.kernel(cal) for cal in self.cals}

    def start(self) -> None:
        self.last = self._times()

    def factors(self) -> dict:
        """Calibration -> slowdown since start() or the last call; call after
        each item."""
        now = self._times()
        factors = {cal: (self.last[cal] + now[cal]) / (2.0 * cal.quiet_s) for cal in self.cals}
        self.last = now
        return factors


# --- output checks ---------------------------------------------------------

GEN_LINE = re.compile(r"wrote (\S+) \((\d+) videos\) sha256=([0-9a-f]{64})")
CERTIFY_LINE = re.compile(r"^(\S+)\s+worst relative error (\S+) (PASS|FAIL)$", re.M)
MAP_LINE = re.compile(r"^# mAP@(\S+) (\S+)$", re.M)


def fingerprint_problems(gen_stdout: str, expected: dict) -> list:
    """Differences between the sha256 lines `gen` printed and the record."""
    got = {Path(path).name: sha for path, _, sha in GEN_LINE.findall(gen_stdout)}
    problems = [f"{name}: sha256 {got.get(name)} != recorded {sha} (the generator "
                "changed: this is a workload change, not a speed change)"
                for name, sha in sorted(expected.items()) if got.get(name) != sha]
    if not expected:
        problems.append(f"no fingerprints recorded; gen printed {got}")
    return problems


def finite_arrays(obj, seen=None) -> list:
    """Flags, one per number or array reachable from a loaded checkpoint."""
    import numpy as np

    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [bool(np.all(np.isfinite(obj)))] if obj.dtype.kind == "f" else []
    if isinstance(obj, float):
        return [math.isfinite(obj)]
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        return []
    return [flag for child in children for flag in finite_arrays(child, seen)]


def proposal_problems(path: Path, videos: dict, num_classes: int) -> list:
    problems = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        vid, cls, _, start, end = raw.split()[:5]
        t = videos.get(vid)
        if t is None:
            problems.append(f"line {lineno}: unknown video {vid!r}")
        elif not 0 <= int(start) < int(end) <= t:
            problems.append(f"line {lineno}: span [{start}, {end}) outside T={t}")
        if not 0 <= int(cls) < num_classes:
            problems.append(f"line {lineno}: class {cls} not in [0, {num_classes})")
    return problems


def report_map(path: Path) -> dict:
    return {thr: float(v) for thr, v in MAP_LINE.findall(path.read_text(encoding="utf-8"))}


# --- one workload run ------------------------------------------------------

class WorkloadRun:
    """Runs one workload's commands, checks their outputs and counts failures."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        import wtalkit
        from wtalkit.cli import main

        self.wtalkit = wtalkit
        self.cli_main = main
        self.workload = workload
        self.seed = seed
        self.data_dir = work_dir / "data"
        self.out_dir = work_dir / "out"
        self.reference = work_dir / "reference.ckpt"
        self.attempted = 0
        self.failed = 0
        self.test_videos: dict = {}
        self.num_classes = 0
        self.outputs: dict = {}
        self.max_rel_err = 0.0
        self.gauge = HostGauge(workload.calibrations)
        recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
        self.fingerprints = recorded.get(workload.name, {})

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {detail}", file=sys.stderr)

    def command(self, argv: list) -> tuple:
        """(exit code or None on a crash, seconds, stdout) of one CLI call."""
        out, err = io.StringIO(), io.StringIO()
        # a user runs each command in a fresh process: start from no garbage
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli_main(argv)
        except Exception:  # a crash is one failed operation, not the end of the run
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        if code != 0 and err.getvalue():
            print(err.getvalue().rstrip(), file=sys.stderr)
        return code, seconds, out.getvalue()

    def child_import_seconds(self) -> float:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import wtalkit.cli"], env=env,
                              cwd=ROOT, capture_output=True, timeout=120, check=False)
        seconds = time.perf_counter() - t0
        self.attempted += 1
        if proc.returncode != 0:
            self.fail("import", proc.stderr.decode(errors="replace")[-400:])
        return seconds

    def setup_once(self, with_import: bool = True) -> float:
        """Import, `gen` and a read of both containers; returns seconds."""
        seconds = self.child_import_seconds() if with_import else 0.0
        self.attempted += 1
        code, gen_s, stdout = self.command(self.workload.gen_argv(self.data_dir))
        problems = [f"exit code {code}"] if code != 0 else \
            fingerprint_problems(stdout, self.fingerprints)
        if problems:
            self.fail("gen", "; ".join(problems))
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            self.wtalkit.read_dataset(self.data_dir / "train.bin")
            test = self.wtalkit.read_dataset(self.data_dir / "test.bin")
        except Exception as exc:  # any read failure is a failed operation
            self.fail("read", repr(exc))
            return seconds + gen_s
        read_s = time.perf_counter() - t0
        self.test_videos = {r.video_id: r.x_rgb.shape[0] for r in test.records}
        self.num_classes = test.num_classes
        return seconds + gen_s + read_s

    def check(self, label: str, code, ckpt: Path | None = None) -> list:
        """Problems with a command's outputs; empty when it is correct."""
        if code != 0:
            return [f"exit code {code}"]
        kind, _, row = label.partition(".")
        out = self.out_dir
        if kind == "train":
            from wtalkit.model import load_checkpoint

            ckpt = ckpt or out / f"{row}.ckpt"
            flags = finite_arrays(load_checkpoint(ckpt))
            if not flags or not all(flags):
                return ["checkpoint holds no values or non-finite values"]
            # same seed, same data: training must be bitwise reproducible
            if self.outputs.setdefault(label, ckpt.read_bytes()) != ckpt.read_bytes():
                return ["checkpoint differs from the first round's at the same seed"]
        elif kind == "localize":
            return proposal_problems(out / f"{row}.tsv", self.test_videos,
                                     self.num_classes)
        elif kind == "eval":
            text = (out / f"{row}.csv").read_text(encoding="utf-8")
            maps = report_map(out / f"{row}.csv")
            if sorted(maps) != list(IOU_THRESHOLDS):
                return [f"report thresholds {sorted(maps)} != {list(IOU_THRESHOLDS)}"]
            if not all(0.0 <= v <= 1.0 for v in maps.values()):
                return [f"mAP outside [0, 1]: {maps}"]
            if self.outputs.setdefault(label, text) != text:
                return ["report differs from the first one of the same model"]
        return []

    def certify(self, code, stdout: str) -> None:
        found = {m: (float(err), verdict) for m, err, verdict in CERTIFY_LINE.findall(stdout)}
        for mode in self.workload.certify_modes:
            self.attempted += 1
            err, verdict = found.get(mode, (math.nan, "missing"))
            if code not in (0, 3) or verdict != "PASS":
                self.fail(f"gradcheck {mode}", f"exit code {code}, verdict {verdict}")
            else:
                self.max_rel_err = max(self.max_rel_err, err)

    def checked(self, label: str, code, ckpt: Path | None = None) -> None:
        self.attempted += 1
        try:
            problems = self.check(label, code, ckpt)
        except (OSError, ValueError) as exc:  # unreadable or malformed output
            problems = [repr(exc)]
        if problems:
            self.fail(label, "; ".join(problems[:5]))

    def prepare_reference(self) -> float:
        """Train the fixed model that the timed localize and eval commands use,
        and run them once on it; returns the peak RSS so far in MB.

        Later commands train with the run's seed, which moves the process's
        high-water mark with the batches drawn, so the memory metric is read
        here, where the work is the same on every run.
        """
        code, _, _ = self.command(self.workload.reference_argv(self.data_dir, self.reference))
        self.checked("train.reference", code, self.reference)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for label, argv in self.workload.inference_argv("reference", self.reference,
                                                        self.data_dir, self.out_dir):
            code, _, _ = self.command(argv)
            self.checked(label, code)
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_commands(self, commands: list, tracer=None) -> list:
        """Run and check (label, argv) commands; (label, seconds, host factor)
        of each."""
        seconds = []
        self.gauge.start()
        for label, argv in commands:
            span = tracer.span(f"cmd.{label}") if tracer else contextlib.nullcontext()
            with span:
                code, took, stdout = self.command(argv)
            host = self.gauge.factors()[self.workload.calibration_for(label)]
            seconds.append((label, took, host))
            if label == "gradcheck":
                self.certify(code, stdout)
            else:
                self.checked(label, code)
        return seconds

    def run_round(self, tracer=None) -> list:
        """(label, seconds, host factor) of every command of one timed round."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        return self.run_commands(self.workload.round_argv(
            self.seed, self.data_dir, self.out_dir, self.reference), tracer)

    def run_setups(self) -> list:
        """(seconds, host factor) of each of the workload's set-ups."""
        cal = self.workload.calibration_for("setup")
        self.gauge.start()
        return [(self.setup_once(), self.gauge.factors()[cal])
                for _ in range(self.workload.setup_reps)]

    def run_rows(self, tracer=None) -> None:
        """Localize and evaluate the models the last round trained."""
        self.run_commands(self.workload.rows_argv(self.data_dir, self.out_dir), tracer)

    def map50(self, row: str) -> float:
        try:
            return 100.0 * report_map(self.out_dir / f"{row}.csv")["0.50"]
        except (OSError, KeyError):  # the failure is already counted
            return math.nan


def run_rounds(seconds: float, one) -> list:
    """Call `one` back to back while the next call should end in time."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(one())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def wall_seconds(workload: Workload, round_: list) -> float:
    """The host-normalised part of one round's (label, seconds, host factor)
    that `wall_s` counts."""
    return sum(took / host for label, took, host in round_
               if label != "gradcheck" or workload.own_gradcheck)


def end_to_end(runner: WorkloadRun, setups: list, rounds: list, rss_mb: float) -> dict:
    """Metric name -> (value, unit, how it was taken).

    Every timing is the median of the run's host-normalised samples of one
    command (setups: list of (seconds, host factor); rounds: lists of
    (label, seconds, host factor)). The printed note adds the count, the
    lowest sample, from 20 samples on a tail percentile, and the median of
    the raw seconds and of the host factor.
    """
    import numpy as np

    import spans

    pairs: dict = {"setup": list(setups)}
    for r in rounds:
        for label, took, host in r:
            pairs.setdefault(label, []).append((took, host))
    samples = {label: [took / host for took, host in v] for label, v in pairs.items()}
    samples["wall"] = [wall_seconds(runner.workload, r) for r in rounds]
    median = {label: statistics.median(v) for label, v in samples.items()}

    def how(label):
        v = samples[label]
        tail = spans.tail_percentile(len(v))
        tail = f", p{tail:g} {np.percentile(v, tail):.6g} s" if tail else ""
        note = f"median of {len(v)} host-normalised {label} samples; lowest {min(v):.6g} s{tail}"
        if label in pairs:
            raw, hosts = zip(*pairs[label])
            note += (f"; raw median {statistics.median(raw):.6g} s, host factor "
                     f"median {statistics.median(hosts):.3f}")
        return note

    videos = runner.workload.train_steps * BATCH_SIZE
    return {
        "setup_s": (median["setup"], "s", how("setup")),
        "wall_s": (median["wall"], "s", how("wall")),
        "train_vps.bl": (videos / median["train.bl"], "videos/s", how("train.bl")),
        "train_vps.ten_bges": (videos / median["train.ten_bges"], "videos/s",
                               how("train.ten_bges")),
        "localize_vps": (len(runner.test_videos) / median["localize.reference"], "videos/s",
                         how("localize.reference")),
        "eval_ms": (1e3 * median["eval.reference"], "ms", how("eval.reference")),
        "gradcheck_s": (median["gradcheck"], "s", how("gradcheck")),
        "peak_rss_mb": (rss_mb, "MB", "after set-up and reference model"),
    }


# --- traced run ------------------------------------------------------------

def _read_bytes(work, args, kwargs, result):
    work["synth.read_dataset.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _embed_flops(work, args, kwargs, result):
    x, mod = args[:2]
    e, d, k = mod.w_embed.shape
    work["model.embed.flop"] += 2.0 * x.shape[0] * k * d * e


def _nms_counts(work, args, kwargs, result):
    work["localize.proposals_in"] += len(args[0])
    work["localize.nms.kept"] += len(result)


TRACED = {
    "synth.generate": None, "synth.write_dataset": None, "synth.read_dataset": _read_bytes,
    "model.forward": None, "model.temporal_windows": None, "model.embed": _embed_flops,
    "model.cas": None, "model.attention": None, "model.pool": None,
    "model.ModelParams.to_vector": None, "model.ModelParams.from_vector": None,
    "model.save_checkpoint": None, "model.load_checkpoint": None,
    "ten.make_plan": None, "ten.refill": None, "ten.tcb_forward_full": None,
    "losses.backward": None, "losses.compute_losses": None,
    "losses.certify_gradients": None, "losses.make_tiny_instance": None,
    "losses.instance_margin": None,
    "numerics.adam_step": None, "numerics.softmax": None,
    "numerics.gaussian_smooth": None, "numerics.reflect_index": None,
    "numerics.finite_diff_grad": None,
    "trainer.train": None, "trainer.localize_dataset": None,
    "localize.localize_video": None, "localize.localize_scores": None,
    "localize.threshold_proposals": None, "localize.nms": _nms_counts,
    "localize.write_proposals": None, "localize.read_proposals": None,
    "evaluate.evaluate": None, "evaluate.average_precision": None,
    "evaluate.write_report_csv": None,
}
COUNTED = ("evaluate.temporal_iou",)
TEN_FUNCTIONS = ("ten.make_plan", "ten.refill", "ten.tcb_forward_full")


def per_layer_names() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower")]
    out += [(f"{name}.calls", "count", "lower") for name in COUNTED]
    out += [
        ("synth.read_dataset.mb_per_s", "MB/s", "higher"),
        ("model.embed.gflop_per_s", "GFLOP/s", "higher"),
        ("losses.certify.accept_ratio", "ratio", "higher"),
        ("losses.certify.max_rel_err", "ratio", "lower"),
        ("localize.proposals_in", "count", "lower"),
        ("localize.nms.keep_ratio", "ratio", "higher"),
        ("localize.localize_video.p50_ms", "ms", "lower"),
        ("localize.localize_video.tail_ms", "ms", "lower"),
        ("ten.calls_in.train_bl", "count", "lower"),
        ("ten.calls_in.train_ten_bges", "count", "lower"),
        ("quality.map50.bl", "%", "higher"),
        ("quality.map50.ten_bges", "%", "higher"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return out


def traced_units(runner: WorkloadRun, seconds: float, tracer) -> tuple:
    """Alternate untraced rounds with traced units: one set-up, one round and
    the rows' localize and eval.

    Returns (untraced and traced `wall_s` seconds of each round, traced units,
    names the package no longer has).
    """
    import spans

    plain, traced, missing = [], [], []

    def pair():
        plain.append(wall_seconds(runner.workload, runner.run_round()))
        patches, gone = spans.install(tracer, "wtalkit", TRACED, COUNTED)
        missing[:] = gone
        try:
            with tracer.span("setup"):
                runner.setup_once(with_import=False)
            with tracer.span("round"):
                traced.append(wall_seconds(runner.workload, runner.run_round(tracer)))
            with tracer.span("rows"):
                runner.run_rows(tracer)
        finally:
            spans.uninstall(patches)

    units = len(run_rounds(seconds, pair))
    return plain, traced, units, missing


def per_layer(runner: WorkloadRun, tracer, plain: list, traced: list, units: int) -> dict:
    import numpy as np

    import spans

    summary = spans.Summary(tracer)
    work = tracer.work
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = summary.calls(name) / units
        metrics[f"{name}.self_ms"] = summary.self_ms(name) / units
    for name in COUNTED:
        metrics[f"{name}.calls"] = tracer.counts.get(name, 0) / units

    def ratio(num, den):
        return num / den if den else 0.0

    per_video = summary.durations("localize.localize_video") * 1e3
    tail = spans.tail_percentile(per_video.size)
    metrics.update({
        "synth.read_dataset.mb_per_s": ratio(work["synth.read_dataset.bytes"] / 1e6,
                                             summary.self_ms("synth.read_dataset") / 1e3),
        "model.embed.gflop_per_s": ratio(work["model.embed.flop"] / 1e9,
                                         summary.self_ms("model.embed") / 1e3),
        "losses.certify.accept_ratio": ratio(
            units * runner.workload.gradcheck_reps * CERTIFY_INSTANCES
            * len(runner.workload.certify_modes),
            summary.calls("losses.make_tiny_instance")),
        "losses.certify.max_rel_err": runner.max_rel_err,
        "localize.proposals_in": work["localize.proposals_in"] / units,
        "localize.nms.keep_ratio": ratio(work["localize.nms.kept"],
                                         work["localize.proposals_in"]),
        "localize.localize_video.p50_ms": float(np.percentile(per_video, 50)) if per_video.size else 0.0,
        "localize.localize_video.tail_ms": float(np.percentile(per_video, tail)) if tail else 0.0,
        "quality.map50.bl": runner.map50("bl"),
        "quality.map50.ten_bges": runner.map50("ten_bges"),
        "trace.overhead_share": statistics.median(traced) / statistics.median(plain) - 1.0,
    })
    for row, _ in ROWS:
        roots = [f"cmd.train.{row}"]
        metrics[f"ten.calls_in.train_{row}"] = sum(
            summary.calls_under(name, roots) for name in TEN_FUNCTIONS) / units
    print(f"# localize_video spans: n={per_video.size}, p50 and p{tail} reported")
    return metrics


# --- entry point -----------------------------------------------------------

def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    run_id = f"{workload.name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    work_dir = WORK / run_id
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        runner = WorkloadRun(workload, seed, work_dir)
        env = environment()
        print(f"# env {json.dumps(env, sort_keys=True)}")
        setups = runner.run_setups()
        samples = {"setup": setups}
        rss_mb = runner.prepare_reference()
        if trace:
            import spans

            tracer = spans.Tracer(run_id)
            plain, traced, units, missing = traced_units(runner, seconds, tracer)
            if missing:
                print(f"# traced names missing from the package: {missing}")
            # a meter that no longer fits its function's arguments would
            # leave its derived metric partial: one failed operation
            runner.attempted += 1
            meter_errors = int(tracer.work["meter_errors"])
            print(f"# meter errors: {meter_errors}")
            if meter_errors:
                runner.fail("meters", f"{meter_errors} meter calls raised; derived "
                            "per-layer metrics are partial")
            metrics = per_layer(runner, tracer, plain, traced, units)
            units_of = {name: unit for name, unit, _ in per_layer_names()}
            metrics = {k: (v, units_of[k], f"per traced unit, {units} units")
                       for k, v in metrics.items()}
            tracer.write(WORK / f"spans-{workload.name}-s{seed}.npz")
        else:
            rounds = run_rounds(seconds, runner.run_round)
            runner.run_rows()
            metrics = end_to_end(runner, setups, rounds, rss_mb)
            samples["rounds"] = rounds
            for row, _ in ROWS:
                print(f"# quality map50.{row} = {runner.map50(row):.4f} %")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, (value, unit, how) in metrics.items():
        print(f"{workload.name:10s} {name:40s} {value:14.6f} {unit}  ({how})")
    share = runner.failed / runner.attempted
    print(f"{workload.name:10s} {'failed_share':40s} {share:14.6f} ratio  "
          f"({runner.failed}/{runner.attempted} operations)")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=seed, seconds=seconds,
                  trace=int(trace), env=env, samples=samples)
    (WORK / f"result-{workload.name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return result


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="training seed of both rows")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; whole rounds run until it is used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pin_blas_threads()
        if args.workload == "all":
            return run_all(args)
        if not (SRC / "wtalkit" / "cli.py").is_file():
            raise BenchError(f"no wtalkit sources under {SRC}; run from a checkout "
                             "of the repository")
        sys.path.insert(0, str(SRC))
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
