"""The benchmark's three workloads: set-up, one timed pass, output checks.

Every call into the library goes through a module attribute (for example
`apk.extract_app_strings`, never a name imported from it), so that the
traced run's wrappers see the call.

- corpus: set-up generates the confounded corpus as `strobe synth` does; a
  pass extracts every app as `strobe extract` does. Only the file-format
  layers work.
- leakage: the paper's headline on the confounded corpus: the repeated
  experiment for both split strategies and both learners, one prequential
  pass and a strided grid search. Only dataset, learners and evaluation work
  in the timed pass; generation and extraction are its set-up.
- lofo: leave-one-family-out on the control corpus with both learners, a
  training-heavy mix with many splits.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from strobe import apk, dataset, evaluation, features, learners, synth
from strobe.dataset import SplitStrategy
from strobe.errors import StrobeError
from strobe.evaluation import LearnerKind

from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _load_oracles():
    """tests/oracles.py, imported read-only by path (tests/ is no package)."""
    spec = importlib.util.spec_from_file_location("strobe_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GRID_FOLDS = 3
LOFO_MIN_ACCURACY = 0.9
MB = 1e6


@dataclass(frozen=True)
class Params:
    """Workload sizes. The defaults are the benchmark; tests shrink them."""

    synth_overrides: dict = field(default_factory=dict)
    reps: int = 3                 # repetitions per strategy and learner (leakage)
    grid_stride: int = 49         # default_grid()[::49]: 5 points, both epoch counts
    oracle_stride: int = 50       # every 50th app is recomputed by the oracle
    setup_repeats: int = 1


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Extraction:
    """What extracting one corpus produced, as `strobe extract` would."""

    csv_text: str
    n_apps: int
    span: tuple                    # (start, end), perf_counter values
    app_spans: np.ndarray          # per extracted app: start, end
    app_mb: np.ndarray             # per extracted app: APK size in MB
    errors: list[str]
    decode_failures: int
    # (sample_id, strings, FeatureVector) for every oracle_stride-th app
    oracle_sample: list[tuple]


@dataclass
class Pass:
    """One pass over a timed region: stage spans, outputs and counts."""

    stages: dict[str, tuple]       # stage name -> (start, end), covering the pass
    outputs: dict[str, str]        # output name -> SHA-256
    attempted: int
    failed: int
    payload: object = None         # whatever the workload's checks need


@dataclass
class Generation:
    """One gen_corpus call (made in every workload's set-up)."""

    span: tuple                    # (start, end), perf_counter values
    apps: int
    mb: float                      # APK megabytes written


def _median(values) -> float:
    return float(np.median(list(values)))


def pass_seconds(p: Pass, clock) -> float:
    return sum(clock.seconds(*span) for span in p.stages.values())


def generate(cfg: synth.SynthConfig, out: Path) -> tuple[Path, Generation]:
    """gen_corpus, as `strobe synth` does; returns the manifest and timing."""
    start = perf_counter()
    _, manifest = synth.gen_corpus(cfg, out)
    span = (start, perf_counter())
    sizes = [path.stat().st_size for path in _manifest_paths(manifest)]
    return manifest, Generation(span, len(sizes), sum(sizes) / MB)


def format_metrics(generations: list[Generation], extractions: list[Extraction],
                   clock) -> tuple[dict, dict]:
    """Generation and extraction figures, timed by `clock`, pooled.

    Returns (gated, reported). The gated figures are normalized by APK
    megabytes: the work per app changes with the seed (the string lengths
    of the largest families), the work per megabyte hardly does. The
    reported ones add the same per app, and generation, which runs in
    set-up and is gated by setup_s.
    """
    apps = sum(len(e.app_mb) for e in extractions)
    mb = sum(float(e.app_mb.sum()) for e in extractions)
    extract_s = sum(clock.seconds(*e.span) for e in extractions)
    latency = np.concatenate([clock.latencies(e.app_spans) for e in extractions]) * 1e3
    per_mb = latency / np.concatenate([e.app_mb for e in extractions])
    p50, p90 = np.percentile(per_mb, [50, 90])
    app_p50, app_p99 = np.percentile(latency, [50, 99])
    synth_s = sum(clock.seconds(*g.span) for g in generations)
    gated = {
        "extract_mb_per_s": (mb / extract_s, "MB/s"),
        "extract_p50_ms_per_mb": (float(p50), "ms/MB"),
        "extract_p90_ms_per_mb": (float(p90), "ms/MB"),
    }
    reported = {
        "synth_mb_per_s": (sum(g.mb for g in generations) / synth_s, "MB/s"),
        "synth_apps_per_s": (sum(g.apps for g in generations) / synth_s, "1/s"),
        "extract_apps_per_s": (apps / extract_s, "1/s"),
        "extract_app_p50_ms": (float(app_p50), "ms"),
        "extract_app_p99_ms": (float(app_p99), "ms"),
        "extract_apps": (apps, "count"),
    }
    return gated, reported


def sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _json_digest(obj) -> str:
    return sha256(json.dumps(obj, sort_keys=True))


def preset(name: str, seed: int, params: Params) -> synth.SynthConfig:
    base = synth.confounded_preset() if name == "confounded" else synth.control_preset()
    return replace(base, seed=seed, **params.synth_overrides)


def extract_corpus(manifest: Path, oracle_stride: int) -> Extraction:
    """Extract every manifest row: extract_app_strings, feature_vector and
    csv_row per app, rows sorted by sample_id, as `strobe extract` writes.

    A row that raises StrobeError is recorded and skipped.
    """
    with open(manifest, newline="", encoding="utf-8") as fh:
        sizes = {row[3]: (manifest.parent / row[3]).stat().st_size / MB
                 for row in list(csv.reader(fh))[1:] if row}
    start = perf_counter()
    corpus = dataset.load_manifest(manifest)
    rows: dict[str, list[str]] = {}
    app_spans: list[tuple[float, float]] = []
    app_mb: list[float] = []
    errors: list[str] = []
    oracle_sample: list[tuple] = []
    decode_failures = 0
    for i, s in enumerate(corpus.samples):
        t0 = perf_counter()
        try:
            app = apk.extract_app_strings(manifest.parent / s.path)
            fv = features.feature_vector(app)
            row = features.csv_row(s.sample_id, s.family, s.label.value, fv, app.decode_failures)
        except StrobeError as exc:
            errors.append(f"{s.sample_id}: {type(exc).__name__}: {exc}")
            continue
        app_spans.append((t0, perf_counter()))
        app_mb.append(sizes[s.path])
        rows[s.sample_id] = row
        decode_failures += app.decode_failures
        if i % oracle_stride == 0:
            oracle_sample.append((s.sample_id, app.non_identifier_strings, fv))
    table = [list(features.CSV_HEADER)] + [rows[sid] for sid in sorted(rows)]
    csv_text = "\n".join(",".join(row) for row in table) + "\n"
    return Extraction(
        csv_text=csv_text,
        n_apps=len(corpus.samples),
        span=(start, perf_counter()),
        app_spans=np.asarray(app_spans, dtype=float).reshape(-1, 2),
        app_mb=np.asarray(app_mb, dtype=float),
        errors=errors,
        decode_failures=decode_failures,
        oracle_sample=oracle_sample,
    )


def _manifest_paths(manifest: Path) -> list[Path]:
    """APK paths in manifest order, read without the library so that the
    traced run does not count this bookkeeping."""
    with open(manifest, newline="", encoding="utf-8") as fh:
        return [manifest.parent / row[3] for row in list(csv.reader(fh))[1:] if row]


def corpus_digest(manifest: Path) -> str:
    """SHA-256 over the manifest and every APK's bytes, in manifest order."""
    h = hashlib.sha256(manifest.read_bytes())
    for path in _manifest_paths(manifest):
        h.update(path.read_bytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# Output checks (plain functions so that tests can feed them corrupted data)

def check_extraction(ext: Extraction, oracles) -> list[Check]:
    checks = [
        Check("every row extracts", not ext.errors, "; ".join(ext.errors[:3])),
        Check("zero decode failures", ext.decode_failures == 0, f"{ext.decode_failures} failures"),
    ]
    worst = 0.0
    for _, strings, fv in ext.oracle_sample:
        ref = oracles.reference_feature_means(strings)
        worst = max([worst, *(abs(a - b) for a, b in zip(fv.as_tuple(), ref))])
        if fv.n_strings != len(strings):
            worst = float("inf")
    checks.append(Check(
        "features match the oracle within 1e-9",
        bool(ext.oracle_sample) and worst <= 1e-9,
        f"{len(ext.oracle_sample)} apps, max abs error {worst:.3g}",
    ))
    return checks


def check_leakage(summaries: dict, corpus) -> list[Check]:
    """The memorization gap: random-split accuracy beats family-disjoint
    accuracy (mean over both learners) and, per learner, family-disjoint
    accuracies vary more than random ones. Splits are valid and none is
    skipped. summaries maps (strategy, learner) to an ExperimentSummary."""
    gaps = {}
    checks = []
    for learner in LearnerKind:
        rand = summaries[(SplitStrategy.RANDOM, learner)]
        fd = summaries[(SplitStrategy.FAMILY_DISJOINT, learner)]
        gaps[learner.value] = rand.mean_accuracy - fd.mean_accuracy
        var_rand, var_fd = (statistics.pvariance(s.accuracies()) for s in (rand, fd))
        checks.append(Check(
            f"{learner.value}: family-disjoint accuracy varies more than random",
            var_fd > var_rand, f"variance random {var_rand:.3g}, family-disjoint {var_fd:.3g}",
        ))
    checks.insert(0, Check(
        "random mean accuracy exceeds family-disjoint, averaged over both learners",
        statistics.fmean(gaps.values()) > 0,
        "gaps " + ", ".join(f"{k} {v:.4f}" for k, v in gaps.items()),
    ))
    skipped = sum(r.skipped for s in summaries.values() for r in s.per_run)
    checks.append(Check("no repetition skipped", skipped == 0, f"{skipped} skipped"))
    overlaps = []
    for (strategy, _), summary in summaries.items():
        if strategy is not SplitStrategy.FAMILY_DISJOINT:
            continue
        for run in summary.per_run:
            split = dataset.family_disjoint_split(corpus, run.seed)
            report = dataset.validate_split(corpus, split)
            if report.family_overlap or not report.partition_ok:
                overlaps.append(run.seed)
    checks.append(Check("family-disjoint splits share no family", not overlaps,
                        f"overlapping seeds {overlaps}"))
    return checks


def check_lofo(summaries: dict) -> list[Check]:
    return [
        Check(f"{learner.value}: LOFO weighted accuracy >= {LOFO_MIN_ACCURACY}",
              summary.weighted_accuracy >= LOFO_MIN_ACCURACY,
              f"weighted accuracy {summary.weighted_accuracy:.4f}")
        for learner, summary in summaries.items()
    ]


# --------------------------------------------------------------------------
# Workloads

class _Workload:
    """Set-up, teardown and the outputs of each set-up, which must agree."""

    def __init__(self, seed: int, work: Path, params: Params):
        self.seed, self.work, self.params = seed, work, params
        self.oracles = _load_oracles()
        self.generations: list[Generation] = []
        self.extractions: list[Extraction] = []   # set-up extractions
        self.setup_digests: list[dict] = []

    def teardown(self, state) -> None:
        shutil.rmtree(state[-1], ignore_errors=True)

    def named_metrics(self, passes: list[Pass], clock) -> dict[str, tuple[float, str]]:
        return {}


class CorpusWorkload(_Workload):
    """Set-up generates the corpus (`strobe synth`); a pass extracts it."""

    name = "corpus"

    def setup(self):
        out = self.work / f"setup{len(self.generations)}"
        manifest, gen = generate(preset("confounded", self.seed, self.params), out)
        self.generations.append(gen)
        return manifest, out

    def teardown(self, state) -> None:
        self.setup_digests.append({"corpus_sha256": corpus_digest(state[0])})
        super().teardown(state)

    def run_pass(self, state) -> Pass:
        ext = extract_corpus(state[0], self.params.oracle_stride)
        return Pass(
            stages={"extract_s": ext.span},
            outputs={"features_csv_sha256": sha256(ext.csv_text)},
            attempted=ext.n_apps,
            failed=len(ext.errors),
            # Keep the timings, not the CSV text, so that peak RSS does not
            # grow with the number of passes that fit in --seconds.
            payload=replace(ext, csv_text=""),
        )

    def check(self, state, last: Pass) -> list[Check]:
        return check_extraction(last.payload, self.oracles)

    def format_runs(self, passes: list[Pass]) -> tuple[list, list]:
        return self.generations, [p.payload for p in passes]


class _FeatureCorpusWorkload(_Workload):
    """Set-up shared by leakage and lofo: synth, extract, write the feature
    CSV and load it back, exactly as `strobe synth` + `strobe extract` + a
    feature-manifest load would."""

    preset_name = ""

    def setup(self):
        out = self.work / f"setup{len(self.generations)}"
        cfg = preset(self.preset_name, self.seed, self.params)
        manifest, gen = generate(cfg, out / "corpus")
        ext = extract_corpus(manifest, self.params.oracle_stride)
        features_csv = out / "features.csv"
        features_csv.write_text(ext.csv_text, encoding="utf-8")
        corpus = dataset.load_manifest(features_csv)
        self.generations.append(gen)
        self.extractions.append(ext)
        self.setup_digests.append({"features_csv_sha256": sha256(ext.csv_text)})
        return corpus, out

    def format_runs(self, passes: list[Pass]) -> tuple[list, list]:
        return self.generations, self.extractions


class LeakageWorkload(_FeatureCorpusWorkload):
    name = "leakage"
    preset_name = "confounded"

    def grid(self) -> tuple[list[int], list]:
        full = learners.default_grid()
        idx = list(range(0, len(full), self.params.grid_stride))
        return idx, [full[i] for i in idx]

    def run_pass(self, state) -> Pass:
        corpus, p, seed = state[0], self.params, self.seed
        stages = {}
        summaries = {}
        for learner, stage in ((LearnerKind.BATCH, "exp_batch_s"), (LearnerKind.ONLINE, "exp_online_s")):
            t0 = perf_counter()
            for strategy in (SplitStrategy.RANDOM, SplitStrategy.FAMILY_DISJOINT):
                summaries[(strategy, learner)] = evaluation.run_experiment(
                    corpus, strategy, learner, repetitions=p.reps, base_seed=seed, jobs=1)
            stages[stage] = (t0, perf_counter())

        t0 = perf_counter()
        order = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF).permutation(len(corpus.samples))
        stream = [corpus.samples[int(i)] for i in order]
        preq = evaluation.prequential_eval(learners.online_init(seed=seed), stream)
        stages["prequential_s"] = (t0, perf_counter())

        t0 = perf_counter()
        grid_idx, grid = self.grid()
        split = dataset.family_disjoint_split(corpus, seed)
        train = corpus.by_ids(split.train_ids)
        best = learners.grid_search(train, grid, folds=GRID_FOLDS, seed=seed)
        stages["grid_s"] = (t0, perf_counter())

        results = {
            "experiments": [s.to_json() for s in summaries.values()],
            "prequential": {
                "n": len(stream),
                "final_accuracy": preq.final_accuracy,
                "running_accuracy": list(preq.running_accuracy),
            },
            "grid_search": {
                "grid_indices": grid_idx, "folds": GRID_FOLDS, "train_n": len(train),
                "best": {"lam": best.lam, "lr": best.lr, "epochs": best.epochs},
            },
        }
        reps = sum(len(s.per_run) for s in summaries.values())
        skipped = sum(r.skipped for s in summaries.values() for r in s.per_run)
        return Pass(
            stages=stages,
            outputs={"results_sha256": _json_digest(results)},
            attempted=reps + len(stream),
            failed=skipped,
            payload={"summaries": summaries, "reps_per_learner": 2 * p.reps,
                     "stream_n": len(stream), "grid_fits": len(grid) * GRID_FOLDS},
        )

    def check(self, state, last: Pass) -> list[Check]:
        return (check_extraction(self.extractions[-1], self.oracles)
                + check_leakage(last.payload["summaries"], state[0]))

    def named_metrics(self, passes: list[Pass], clock) -> dict[str, tuple[float, str]]:
        def rate(count: str, stage: str) -> float:
            return _median(p.payload[count] / clock.seconds(*p.stages[stage]) for p in passes)

        return {
            "exp_batch_reps_per_s": (rate("reps_per_learner", "exp_batch_s"), "1/s"),
            "exp_online_reps_per_s": (rate("reps_per_learner", "exp_online_s"), "1/s"),
            "prequential_samples_per_s": (rate("stream_n", "prequential_s"), "1/s"),
            "grid_fits_per_s": (rate("grid_fits", "grid_s"), "1/s"),
        }


class LofoWorkload(_FeatureCorpusWorkload):
    name = "lofo"
    preset_name = "control"

    def run_pass(self, state) -> Pass:
        corpus = state[0]
        stages = {}
        summaries = {}
        for learner, stage in ((LearnerKind.BATCH, "lofo_batch_s"), (LearnerKind.ONLINE, "lofo_online_s")):
            t0 = perf_counter()
            summaries[learner] = evaluation.run_lofo(corpus, learner, self.seed)
            stages[stage] = (t0, perf_counter())
        folds = sum(len(s.per_family) for s in summaries.values())
        return Pass(
            stages=stages,
            outputs={"lofo_sha256": _json_digest([s.to_json() for s in summaries.values()])},
            attempted=folds,
            failed=0,
            payload={"summaries": summaries, "folds_per_learner": folds // 2},
        )

    def check(self, state, last: Pass) -> list[Check]:
        return (check_extraction(self.extractions[-1], self.oracles)
                + check_lofo(last.payload["summaries"]))

    def named_metrics(self, passes: list[Pass], clock) -> dict[str, tuple[float, str]]:
        def rate(stage: str) -> float:
            return _median(p.payload["folds_per_learner"] / clock.seconds(*p.stages[stage])
                           for p in passes)

        return {
            "lofo_batch_folds_per_s": (rate("lofo_batch_s"), "1/s"),
            "lofo_online_folds_per_s": (rate("lofo_online_s"), "1/s"),
        }


WORKLOADS = {w.name: w for w in (CorpusWorkload, LeakageWorkload, LofoWorkload)}

# Set-up is repeated and its median reported. The leakage set-up generates
# and extracts 5,027 APKs (about 12 s), so it runs once to keep a run short.
DEFAULT_PARAMS = {
    "corpus": Params(setup_repeats=2),
    "leakage": Params(setup_repeats=1),
    "lofo": Params(setup_repeats=2),
}
