"""Tests of the benchmark itself, on shrunken workloads (a few seconds each).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
import numpy as np  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from strobe import dataset, evaluation, synth  # noqa: E402
from strobe.dataset import Label, SplitStrategy  # noqa: E402
from strobe.evaluation import LearnerKind, RunRecord  # noqa: E402

SEED = 5

TINY = {
    "corpus": wl.Params(
        synth_overrides={"n_families": 6, "samples_per_family": (4, 40)},
        oracle_stride=5, setup_repeats=2),
    "leakage": wl.Params(
        synth_overrides={"n_families": 30, "samples_per_family": (4, 300)},
        reps=2, grid_stride=99, oracle_stride=25),
    "lofo": wl.Params(
        synth_overrides={"n_families": 6, "samples_per_family": (15, 15)},
        oracle_stride=25, setup_repeats=2),
}

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace) -> (record, summary) for every tiny workload."""
    out = {}
    for name, params in TINY.items():
        for trace in (False, True):
            work = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            out[(name, trace)] = bench_run.run(name, SEED, 0, trace, params, work_root=work)
    return out


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(runs, name, trace):
    record, summary = runs[(name, trace)]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"], record["checks"]
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(summary["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        printed = summary["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    # The summary is valid JSON as printed, with no NaN or infinity.
    json.loads(json.dumps(summary, allow_nan=False))


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_runs_produce_the_same_digests(runs, name):
    untraced, _ = runs[(name, False)]
    traced, _ = runs[(name, True)]
    assert untraced["digests"] == traced["digests"]
    assert {"name": "traced and untraced digests identical", "ok": True} \
        .items() <= next(c for c in traced["checks"] if c["name"].startswith("traced")).items()


def test_provenance_names_machine_versions_and_parameters(runs):
    prov = runs[("leakage", False)][0]["provenance"]
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit", "src_sha256",
                "preset", "seed", "params", "synth_config"):
        assert key in prov
    assert prov["seed"] == SEED and prov["synth_config"]["seed"] == SEED
    assert prov["params"]["reps"] == 2 and prov["params"]["grid_indices"] == [0, 99, 198]


def test_untraced_run_installs_no_wrapper(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("the untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "installed", refuse)
    _, summary = bench_run.run("lofo", SEED, 0, False, TINY["lofo"], work_root=tmp_path)
    assert summary["correct"]


def test_tracer_restores_every_patched_function():
    targets = [(owner, attr) for owner, attr, *_ in tracing.SPANS + tracing.HOT]
    before = [getattr(owner, attr) for owner, attr in targets]
    original = evaluation.run_lofo
    with tracing.Tracer().installed():
        assert evaluation.run_lofo is not original
    assert all(getattr(owner, attr) is f for (owner, attr), f in zip(targets, before))


def test_reference_time_scales_wall_time_by_the_measured_speed():
    sampler = clock.SpeedSampler()
    # Samples at 0, 1 and 2 s, each 1 ms in the handler; the reference ran
    # at half its nominal speed around the first two and at full speed
    # around the third.
    sampler.starts = [0.0, 1.0, 2.0]
    sampler.ends = [0.001, 1.001, 2.001]
    sampler.durations = [2 * clock.NOMINAL_S, 2 * clock.NOMINAL_S, clock.NOMINAL_S]
    # 0.5-1.5 s: wall 1 s, of which 1 ms in the handler, at half speed.
    assert sampler.seconds(0.5, 1.5) == pytest.approx(0.999 / 2)
    # 1.0-2.0 s: half of it nearest the slow sample, half the fast one.
    assert sampler.seconds(1.0, 2.0) == pytest.approx((0.5 / 2 + 0.5) * 0.999, rel=1e-3)
    spans = np.array([[0.9, 0.95], [1.9, 2.002]])
    assert sampler.latencies(spans) == pytest.approx([0.05 / 2, 0.101])
    assert clock.WallClock().seconds(0.5, 1.5) == 1.0


def test_sampler_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with clock.SpeedSampler(interval_s=0.001) as sampler:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.durations) > 2


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0, 100, -1, 0, None], ["inner", 10, 40, 0, 0, None]]
    tracer.hot = {(0, "hot"): [5, 20, 0, 0]}
    rows = tracer.per_name()
    assert rows["outer"]["self_s"] == pytest.approx(50e-9)
    assert rows["inner"]["self_s"] == pytest.approx(30e-9)
    assert rows["hot"]["calls"] == 5


# --------------------------------------------------------------------------
# Each output check fires on a deliberately corrupted output.

@pytest.fixture(scope="module")
def tiny_extraction(tmp_path_factory):
    cfg = wl.preset("confounded", SEED, TINY["corpus"])
    _, manifest = synth.gen_corpus(cfg, tmp_path_factory.mktemp("ext") / "corpus")
    return wl.extract_corpus(manifest, oracle_stride=3)


def _failed(checks) -> set[str]:
    return {c.name for c in checks if not c.ok}


def test_extraction_checks_pass_on_good_output(tiny_extraction):
    assert not _failed(wl.check_extraction(tiny_extraction, wl._load_oracles()))


def test_oracle_check_fires_on_a_perturbed_feature(tiny_extraction):
    sid, strings, fv = tiny_extraction.oracle_sample[1]
    bad = replace(tiny_extraction, oracle_sample=[
        (sid, strings, replace(fv, avg_entropy=fv.avg_entropy + 1e-6))])
    assert _failed(wl.check_extraction(bad, wl._load_oracles())) == {
        "features match the oracle within 1e-9"}


def test_extraction_checks_fire_on_failed_rows_and_decode_failures(tiny_extraction):
    bad = replace(tiny_extraction, errors=["fam000_0000: CorruptEntry: bad crc"], decode_failures=2)
    assert _failed(wl.check_extraction(bad, wl._load_oracles())) == {
        "every row extracts", "zero decode failures"}


@pytest.fixture(scope="module")
def leakage_case(tmp_path_factory):
    params = TINY["leakage"]
    work = tmp_path_factory.mktemp("leak")
    workload = wl.LeakageWorkload(SEED, work, params)
    state = workload.setup()
    summaries = {
        (strategy, learner): evaluation.run_experiment(
            state[0], strategy, learner, repetitions=params.reps, base_seed=SEED)
        for strategy in SplitStrategy if strategy is not SplitStrategy.LOFO
        for learner in LearnerKind
    }
    return summaries, state[0]


def test_leakage_checks_pass_on_good_output(leakage_case):
    assert not _failed(wl.check_leakage(*leakage_case))


def test_gap_check_fires_when_strategies_are_swapped(leakage_case):
    summaries, corpus = leakage_case
    swapped = {(SplitStrategy.FAMILY_DISJOINT if s is SplitStrategy.RANDOM
                else SplitStrategy.RANDOM, learner): v
               for (s, learner), v in summaries.items()}
    assert _failed(wl.check_leakage(swapped, corpus)) == {
        "random mean accuracy exceeds family-disjoint, averaged over both learners",
        *(f"{k.value}: family-disjoint accuracy varies more than random" for k in LearnerKind)}


def test_skip_check_fires_on_a_skipped_repetition(leakage_case):
    summaries, corpus = leakage_case
    key = (SplitStrategy.FAMILY_DISJOINT, LearnerKind.BATCH)
    skipped = RunRecord(seed=SEED, retries=0, result=None, skipped=True)
    bad = dict(summaries)
    bad[key] = replace(summaries[key], per_run=summaries[key].per_run[:-1] + (skipped,))
    assert "no repetition skipped" in _failed(wl.check_leakage(bad, corpus))


def test_overlap_check_fires_on_a_leaky_split(leakage_case, monkeypatch):
    summaries, corpus = leakage_case
    monkeypatch.setattr(dataset, "family_disjoint_split",
                        lambda c, seed: replace(dataset.random_split(c, seed),
                                                strategy=SplitStrategy.FAMILY_DISJOINT))
    assert _failed(wl.check_leakage(summaries, corpus)) == {
        "family-disjoint splits share no family"}


def test_lofo_check_fires_on_swapped_labels(tmp_path):
    corpus, _ = wl.LofoWorkload(SEED, tmp_path, TINY["lofo"]).setup()
    flip = {Label.SE: Label.NOT_SE, Label.NOT_SE: Label.SE}
    family = corpus.families()[0]
    swapped = dataset.Corpus.from_samples([
        replace(s, label=flip[s.label]) if s.family == family else s for s in corpus.samples])
    good = {k: evaluation.run_lofo(corpus, k, SEED) for k in LearnerKind}
    bad = {k: evaluation.run_lofo(swapped, k, SEED) for k in LearnerKind}
    assert not _failed(wl.check_lofo(good))
    assert _failed(wl.check_lofo(bad)) == {
        f"{k.value}: LOFO weighted accuracy >= {wl.LOFO_MIN_ACCURACY}" for k in LearnerKind}


def test_missing_library_source_exits_nonzero_without_a_result(tmp_path):
    import shutil
    import subprocess

    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
