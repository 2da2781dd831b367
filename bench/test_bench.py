"""Self-tests of the benchmark harness: python3 -m pytest bench/test_bench.py"""

import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import wtalkit.cli  # noqa: E402


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3]
    tracer = spans.Tracer("t", clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
        with tracer.span("b"):
            pass
    summary = spans.Summary(tracer)
    assert [summary.self_ms(n) / 1e3 for n in ("root", "a", "a1", "b")] == [3, 2, 1, 4]
    assert summary.calls_under("a1", ["a"]) == 1
    assert summary.calls_under("a1", ["b"]) == 0


def test_self_time_clips_children_to_parent():
    own = spans.self_times(np.array([-1, 0]), np.array([0.0, 8.0]), np.array([10.0, 12.0]))
    assert own.tolist() == [8.0, 4.0]


def _bindings():
    import wtalkit.model

    bound = {(name, attr): value for name, mod in sys.modules.items()
             if name == "wtalkit" or name.startswith("wtalkit.")
             for attr, value in vars(mod).items()}
    bound.update({("ModelParams", attr): value
                  for attr, value in vars(wtalkit.model.ModelParams).items()})
    return bound


def test_wrap_and_unwrap_leave_module_attributes_identical():
    from wtalkit import localize, losses, model, trainer

    evaluate = sys.modules["wtalkit.evaluate"]  # the package re-exports a function of that name

    before = _bindings()
    original = model.forward
    tracer = spans.Tracer("t")
    names = dict(run.TRACED, **{"model.no_such_function": None})
    patches, missing = spans.install(tracer, "wtalkit", names, run.COUNTED)
    try:
        assert missing == ["model.no_such_function"]
        assert trainer.forward is model.forward is losses.forward is not original
        assert model.forward.__wrapped__ is original
        inst = losses.make_tiny_instance(3)
        inst.params.from_vector(inst.params.to_vector())
        model.forward(inst.x_rgb, inst.x_flow, inst.params)
        evaluate.temporal_iou((0, 2), (1, 3))
    finally:
        spans.uninstall(patches)
    patches, _ = spans.install(tracer, "wtalkit", {}, run.COUNTED)
    localize.temporal_iou((0, 2), (1, 3))  # counts add up over installs
    spans.uninstall(patches)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    summary = spans.Summary(tracer)
    assert summary.calls("model.forward") == 1
    assert summary.calls("model.embed") == 2
    assert summary.calls("model.ModelParams.to_vector") == 1
    assert summary.calls("model.no_such_function") == 0
    assert tracer.work["model.embed.flop"] == 2 * 2.0 * 8 * 3 * 6 * 5
    assert tracer.counts["evaluate.temporal_iou"] == 2


def _gen(out: Path, seed: int) -> str:
    argv = workloads.WORKLOADS["golden"].gen_argv(out)
    argv[argv.index("--seed") + 1] = str(seed)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert wtalkit.cli.main(argv) == 0
    return buf.getvalue()


def test_fingerprint_check_catches_a_changed_dataset(tmp_path):
    recorded = json.loads(run.FINGERPRINTS.read_text())["golden"]
    assert run.fingerprint_problems(_gen(tmp_path / "a", 7), recorded) == []
    problems = run.fingerprint_problems(_gen(tmp_path / "b", 8), recorded)
    assert [p.split(":")[0] for p in problems] == ["test.bin", "train.bin"]
    assert "workload change" in problems[0]


@pytest.mark.parametrize("n, expected", [(19, None), (20, 50.0), (60, 75.0),
                                         (120, 90.0), (250, 95.0), (1000, 99.0),
                                         (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert spans.tail_percentile(n) == expected


def test_percentile_rule_on_localize_video_spans():
    n = 120  # two localize commands over the 60 golden test videos
    times = []
    for i in range(n):
        times += [10.0 * i, 10.0 * i + 1e-3 * (i + 1)]  # durations 1..120 ms
    tracer = spans.Tracer("t", clock=fake_clock(times))
    video = tracer.wrap("localize.localize_video", lambda: None)
    for _ in range(n):
        video()
    per_video = spans.Summary(tracer).durations("localize.localize_video") * 1e3
    tail = spans.tail_percentile(per_video.size)
    assert tail == 90.0
    assert np.sum(per_video > np.percentile(per_video, tail)) >= spans.MIN_BEYOND
    assert np.percentile(per_video, 50) == pytest.approx(60.5)


def test_pin_refuses_numpy_loaded_unpinned():
    with pytest.raises(run.BenchError):
        run.pin_blas_threads(environ={}, modules={"numpy": object()})
    env = {}
    run.pin_blas_threads(environ=env, modules={})
    assert set(env.values()) == {"1"}


def test_output_checks(tmp_path):
    props = tmp_path / "p.tsv"
    props.write_text("# video_id class q start end\nv1 0 0.5 0 4\nv1 5 0.5 3 9\nv2 1 0.1 2 3\n")
    problems = run.proposal_problems(props, {"v1": 8}, num_classes=5)
    assert len(problems) == 3  # class 5, end 9 > T, unknown v2
    flags = run.finite_arrays(SimpleNamespace(w=np.array([1.0, np.nan]), b=0.5))
    assert sorted(flags) == [False, True]


def test_end_to_end_takes_each_commands_median():
    wl = workloads.WORKLOADS["golden"]
    labels = [label for label, _ in wl.round_argv(1, Path("d"), Path("o"), Path("r"))]
    rounds = [[(label, t, 1.0) for label in labels] for t in (2.0, 1.0, 4.0)]
    rounds[0][0] = ("train.bl", 0.5, 1.0)
    runner = SimpleNamespace(workload=wl, test_videos={"v": 1})
    e2e = run.end_to_end(runner, [(3.0, 1.0), (1.0, 1.0), (2.0, 1.0)], rounds, 50.0)
    assert e2e["setup_s"][0] == 2.0
    assert e2e["train_vps.bl"][0] == wl.train_steps * workloads.BATCH_SIZE / 1.0
    assert labels.count("gradcheck") == 1
    assert e2e["wall_s"][0] == 2.0 * (len(labels) - 1) - 1.5


def test_timings_are_divided_by_the_host_factor():
    wl = workloads.WORKLOADS["golden"]
    labels = [label for label, _ in wl.round_argv(1, Path("d"), Path("o"), Path("r"))]
    # a slow host (factor 2) doubles every raw time; normalised times agree
    rounds = [[(label, 2.0 * t, 2.0) for label in labels] for t in (1.0, 1.0, 3.0)]
    runner = SimpleNamespace(workload=wl, test_videos={"v": 1})
    e2e = run.end_to_end(runner, [(4.0, 2.0), (1.0, 1.0), (9.0, 3.0)], rounds, 50.0)
    assert e2e["setup_s"][0] == 2.0
    assert e2e["eval_ms"][0] == 1e3
    assert "raw median 2 s, host factor median 2.000" in e2e["eval_ms"][2]


def test_host_gauge_brackets_each_item():
    cal = workloads.SMALL_CALIBRATION
    kernel_times = iter([cal.quiet_s, 2 * cal.quiet_s, cal.quiet_s])
    gauge = run.HostGauge((cal,), kernel=lambda _: next(kernel_times))
    gauge.start()
    assert gauge.factors()[cal] == pytest.approx(1.5)  # quiet before, twice as slow after
    assert gauge.factors()[cal] == pytest.approx(1.5)  # twice as slow before, quiet after
    assert run.calibration_seconds(cal._replace(steps=1)) > 0


def test_only_full_size_work_gets_the_worlds_kernel():
    long, golden = workloads.WORKLOADS["long"], workloads.WORKLOADS["golden"]
    small, large = workloads.SMALL_CALIBRATION, workloads.LARGE_CALIBRATION
    assert long.calibrations == (large, small) and golden.calibrations == (small,)
    labels = [label for label, _ in long.round_argv(1, Path("d"), Path("o"), Path("r"))]
    assert {label: long.calibration_for(label) for label in labels + ["setup"]} == {
        "setup": large, "train.bl": large, "train.ten_bges": large,
        "localize.reference": small, "eval.reference": small, "gradcheck": small}
    assert {golden.calibration_for(label) for label in labels + ["setup"]} == {small}


def test_wall_counts_gradcheck_only_where_it_is_the_workloads_own():
    round_ = [("train.bl", 1.0, 1.0), ("eval.reference", 1.0, 2.0), ("gradcheck", 2.0, 1.0)]
    assert run.wall_seconds(workloads.WORKLOADS["golden"], round_) == 1.5
    assert run.wall_seconds(workloads.WORKLOADS["long"], round_) == 1.5
    assert run.wall_seconds(workloads.WORKLOADS["gradcheck"], round_) == 3.5


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    rounds = [[(label, 1.0, 1.0) for label, _ in workloads.WORKLOADS["golden"].round_argv(
        1, Path("d"), Path("o"), Path("r"))]]
    runner = SimpleNamespace(workload=workloads.WORKLOADS["golden"], test_videos={"v": 1})
    e2e = run.end_to_end(runner, [(1.0, 1.0)], rounds, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, v[1]) for k, v in e2e.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
