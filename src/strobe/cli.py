"""Command-line entry point.

Subcommands compose the pipeline: synth (generate a corpus), extract
(APKs -> feature CSV), split / train / eval / prequential / lofo /
experiment (the evaluation protocols) and praguard-check (the
stripped-string heuristic).

Exit codes: 0 success, 1 usage error, 2 parse/extraction error,
3 dataset/split/learner error, 4 I/O error. Failures print one
machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from operator import itemgetter

import numpy as np
from pathlib import Path

from . import synth
from .apk import extract_app_strings
from .dataset import (
    Corpus,
    Label,
    Sample,
    SplitStrategy,
    family_disjoint_split,
    feature_corpus,
    load_manifest,
    load_split,
    lofo_splits,
    random_split,
)
from .errors import InvalidConfig, ParseError, StrobeError, read_json
from .evaluation import (
    LearnerKind,
    gnuplot_box_data,
    holdout_eval,
    prequential_eval,
    run_experiment,
    run_lofo,
)
from .features import CSV_HEADER, csv_row, feature_vector
from .heuristic import detect_dexguard, zero_string_fraction
from .learners import (
    DEFAULT_HYPERPARAMS,
    DEFAULT_ONLINE_ENSEMBLE,
    DEFAULT_POISSON_LAMBDA,
    _np_seed,
    batch_train,
    grid_search,
    load_model,
    online_init,
    online_train,
    save_model,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DATASET = 3
EXIT_IO = 4

_CHUNK = 32  # samples per extraction task handed to a worker


class _UsageError(Exception):
    pass


# The argparse settings of a synth flag, by its SynthConfig field's annotation.
_FIELD_FLAGS = {"int": {"type": int}, "float": {"type": float}, "str": {},
                "tuple[int, int]": {"type": int, "nargs": 2, "metavar": ("MIN", "MAX")}}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants 1, so raise instead.
    def error(self, message):
        raise _UsageError(message)


def _fail(exc: Exception, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": code}),
          file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except _UsageError as exc:
        return _fail(exc, EXIT_USAGE)
    except ParseError as exc:
        return _fail(exc, EXIT_PARSE)
    except StrobeError as exc:
        return _fail(exc, EXIT_DATASET)
    except OSError as exc:
        return _fail(exc, EXIT_IO)


def entry() -> None:
    sys.exit(main())


def _build_parser() -> _Parser:
    parser = _Parser(prog="strobe", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # Each subcommand declares only the flags its cmd_* reads. argparse shares
    # a parent parser's actions with every child, so flags are not inherited.
    def command(name, func, help, *, seed=False, jobs=False, out_required=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if seed:
            p.add_argument("--seed", type=int, default=42, help="base seed; fixes all randomized behavior")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="worker processes for per-file / per-rep work")
        p.add_argument("--out", required=out_required, help="output path")
        return p

    p = command("extract", cmd_extract, "extract feature CSV from APKs", jobs=True)
    p.add_argument("--apk-dir", required=True, help="corpus directory of APK files")
    p.add_argument("--manifest", help="manifest CSV (defaults to <apk-dir>/manifest.csv if present)")
    p.add_argument("--strict", action="store_true",
                   help="drop samples whose string section fails to decode")

    p = command("synth", cmd_synth, "generate a synthetic APK corpus", out_required=True)
    p.add_argument("--preset", choices=synth.PRESETS, help="start from this config (default: SynthConfig())")
    p.add_argument("--config", help="SynthConfig JSON file, applied over --preset")
    for f in fields(synth.SynthConfig):
        p.add_argument("--" + f.name.replace("_", "-"), choices=f.metadata.get("choices"),
                       help=f"SynthConfig.{f.name}, applied over --config", **_FIELD_FLAGS[f.type])

    p = command("split", cmd_split, "build and export a train/test split")
    p.add_argument("--seed", type=int, help="base seed (default 42; random and family-disjoint only)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--strategy", required=True, choices=("random", "family-disjoint", "lofo"))

    p = command("train", cmd_train, "train a model on a feature manifest", seed=True, out_required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--learner", required=True, choices=("batch", "online"))
    p.add_argument("--grid", action="store_true", help="grid-search hyperparameters first (batch only)")
    p.add_argument("--folds", type=int, help="grid-search folds (default 3; needs --grid)")
    p.add_argument("--k", type=int, help=f"online ensemble size (default {DEFAULT_ONLINE_ENSEMBLE}; online only)")
    p.add_argument("--poisson-lambda", type=float,
                   help=f"online Poisson weight mean (default {DEFAULT_POISSON_LAMBDA}; online only)")

    p = command("eval", cmd_eval, "evaluate a saved model on a split side")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--side", choices=("test", "train"), default="test")
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = command("prequential", cmd_prequential,
                "test-then-train over the corpus as a seeded stream", seed=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=int, default=DEFAULT_ONLINE_ENSEMBLE)
    p.add_argument("--poisson-lambda", type=float, default=DEFAULT_POISSON_LAMBDA)

    # lofo takes no --jobs: its folds train in one lockstep pass, which
    # worker processes only slowed down.
    p = command("lofo", cmd_lofo, "leave-one-family-out evaluation", seed=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--learner", required=True, choices=("batch", "online"))

    p = command("experiment", cmd_experiment, "repeated split/train/eval with box statistics",
                seed=True, jobs=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--strategy", required=True, choices=("random", "family-disjoint"))
    p.add_argument("--learner", required=True, choices=("batch", "online"))
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--csv", help="also write per-run rows as CSV")
    p.add_argument("--gnuplot", help="also write a gnuplot-friendly box data file")

    p = command("praguard-check", cmd_praguard_check, "flag apps whose string section is (almost) empty")
    p.add_argument("--apk-dir", required=True)
    p.add_argument("--manifest")
    p.add_argument("--max-strings", type=int, default=0)

    return parser


# --------------------------------------------------------------------------
# Shared plumbing
# --------------------------------------------------------------------------

def _apk_samples(corpus: Corpus, manifest: Path) -> list[Sample]:
    """The samples of a path manifest, each path resolved against the manifest's directory."""
    if any(s.path is None for s in corpus.samples):
        raise _UsageError("manifest already contains features; nothing to extract")
    return [replace(s, path=str(manifest.parent / s.path)) for s in corpus.samples]


def _apk_dir_samples(apk_dir: str, manifest: str | None) -> list[Sample]:
    """The APKs to read: those the manifest lists (default <apk-dir>/manifest.csv), else every *.apk."""
    base = Path(apk_dir)
    manifest_path = Path(manifest) if manifest else base / "manifest.csv"
    if manifest or manifest_path.exists():
        return _apk_samples(load_manifest(manifest_path), manifest_path)
    apks = sorted(base.rglob("*.apk"))
    if not apks:
        raise _UsageError(f"no .apk files under {base}")
    print(f"warning: no manifest found; labels default to NOT_SE and family "
          f"to the parent directory name", file=sys.stderr)
    # Rows are keyed by file stem: two APKs with one name raise DuplicateId.
    return list(Corpus.from_samples([
        Sample(path.stem, path.parent.name if path.parent != base else "unknown",
               Label.NOT_SE, path=str(path)) for path in apks]).samples)


def _feature_row(sample: Sample) -> list[str]:
    """The sample's feature-CSV row, from the strings of its APK."""
    app = extract_app_strings(sample.path)
    return csv_row(sample.sample_id, sample.family, sample.label.value, feature_vector(app),
                   app.decode_failures)


def _feature_table(samples: list[Sample], jobs: int) -> list[list[str]]:
    """The feature-CSV rows of the samples, sorted by sample_id."""
    # Under fork the pool starts every worker at the first submit, so it gets
    # no more workers than there are chunks to hand out.
    workers = min(jobs, -(-len(samples) // _CHUNK))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_feature_row, samples, chunksize=_CHUNK))
    else:
        rows = list(map(_feature_row, samples))
    return sorted(rows, key=itemgetter(0))


def _load_feature_corpus(manifest: str, strict: bool = False, jobs: int = 1) -> Corpus:
    """Load a manifest, extracting a path manifest's feature table first; with
    strict, without the samples that have decode failures."""
    manifest_path = Path(manifest)
    corpus = load_manifest(manifest_path)
    if corpus.X is None:
        corpus = feature_corpus(_feature_table(_apk_samples(corpus, manifest_path), jobs))
    if strict:
        corpus = Corpus.from_samples([s for s in corpus.samples if not s.decode_failures])
    return corpus


def _write_text(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_json(out: str | None, obj) -> None:
    _write_text(out, json.dumps(obj, indent=2) + "\n")


def _write_csv(out: str | None, rows) -> None:
    """Write rows as CSV, quoting only the cells that need it."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    _write_text(out, text.getvalue())


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_extract(args) -> int:
    rows = _feature_table(_apk_dir_samples(args.apk_dir, args.manifest), args.jobs)
    if args.strict:
        rows = [row for row in rows if row[-1] == "0"]  # the decode_failures cell
    _write_csv(args.out, [CSV_HEADER, *rows])
    return EXIT_OK


def cmd_synth(args) -> int:
    # The preset, then the --config file, then each flag given, in one merge.
    config = (synth.PRESETS[args.preset]() if args.preset else synth.SynthConfig()).to_json()
    if args.config:
        config.update(read_json(args.config, InvalidConfig))
    for f in fields(synth.SynthConfig):
        if getattr(args, f.name) is not None:
            config[f.name] = getattr(args, f.name)
    out_dir, manifest = synth.gen_corpus(synth.SynthConfig.from_json(config), args.out)
    print(f"wrote corpus to {out_dir} ({manifest.name})")
    return EXIT_OK


def cmd_split(args) -> int:
    if args.strategy == "lofo" and args.seed is not None:
        raise _UsageError("--seed needs --strategy random or family-disjoint")
    seed = 42 if args.seed is None else args.seed
    corpus = load_manifest(args.manifest)
    if args.strategy == "random":
        payload = random_split(corpus, seed).to_json()
    elif args.strategy == "family-disjoint":
        payload = family_disjoint_split(corpus, seed).to_json()
    else:
        payload = [s.to_json() for s in lofo_splits(corpus)]
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_train(args) -> int:
    if args.grid and args.learner == "online":
        raise _UsageError("--grid needs --learner batch")
    if args.folds is not None and not args.grid:
        raise _UsageError("--folds needs --grid")
    if args.learner == "batch" and (args.k is not None or args.poisson_lambda is not None):
        raise _UsageError("--k and --poisson-lambda need --learner online")
    corpus = _load_feature_corpus(args.manifest)
    if args.learner == "batch":
        hp = DEFAULT_HYPERPARAMS
        if args.grid:
            hp = grid_search(list(corpus.samples), folds=3 if args.folds is None else args.folds,
                             seed=args.seed)
        model = batch_train(corpus.X, corpus.y, hp, seed=args.seed)
    else:
        k = DEFAULT_ONLINE_ENSEMBLE if args.k is None else args.k
        lam = DEFAULT_POISSON_LAMBDA if args.poisson_lambda is None else args.poisson_lambda
        model = online_train(corpus.X, corpus.y, k=k, lam_poisson=lam, seed=args.seed)
    save_model(model, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    corpus = _load_feature_corpus(args.manifest)
    model = load_model(args.model)
    split = load_split(args.split)
    # Both sides resolve, so an unknown id on the side not scored is an error too.
    train, test = corpus.rows(split.train_ids), corpus.rows(split.test_ids)
    rows = test if args.side == "test" else train
    result = holdout_eval(model, corpus.X[rows], corpus.y[rows]).to_json()
    if args.format == "csv":
        _write_csv(args.out, [list(result), [_csv_cell(v) for v in result.values()]])
    else:
        _write_json(args.out, result)
    return EXIT_OK


def cmd_prequential(args) -> int:
    corpus = _load_feature_corpus(args.manifest)
    order = np.random.default_rng(_np_seed(args.seed)).permutation(len(corpus.samples))
    stream = [corpus.samples[int(i)] for i in order]
    model = online_init(k=args.k, lam_poisson=args.poisson_lambda, seed=args.seed)
    result = prequential_eval(model, stream)
    payload = {
        "n": len(stream),
        "final_accuracy": result.final_accuracy,
        "running_accuracy": list(result.running_accuracy),
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_lofo(args) -> int:
    corpus = _load_feature_corpus(args.manifest)
    summary = run_lofo(corpus, LearnerKind[args.learner.upper()], args.seed)
    _write_json(args.out, summary.to_json())
    return EXIT_OK


def cmd_experiment(args) -> int:
    corpus = _load_feature_corpus(args.manifest, strict=args.strict, jobs=args.jobs)
    strategy = SplitStrategy.RANDOM if args.strategy == "random" else SplitStrategy.FAMILY_DISJOINT
    summary = run_experiment(
        corpus, strategy, LearnerKind[args.learner.upper()],
        repetitions=args.reps, base_seed=args.seed, jobs=args.jobs,
    )
    _write_json(args.out, summary.to_json())
    if args.csv:
        keys = ["seed", "retries", "skipped", "accuracy", "precision", "recall", "f1"]
        rows = [[_csv_cell(run.get(k)) for k in keys] for run in summary.to_json()["per_run"]]
        _write_csv(args.csv, [keys, *rows])
    if args.gnuplot:
        Path(args.gnuplot).write_text(gnuplot_box_data([summary]), encoding="utf-8")
    return EXIT_OK


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def cmd_praguard_check(args) -> int:
    samples = sorted(_apk_dir_samples(args.apk_dir, args.manifest), key=lambda s: s.sample_id)
    rows = [["sample_id", "n_strings", "verdict"]]
    flagged = []  # the apps flagged SE, each with at most max_strings strings
    for sample in samples:
        app = extract_app_strings(sample.path)
        verdict = detect_dexguard(app, args.max_strings)
        if verdict is Label.SE:
            flagged.append(app)
        rows.append([sample.sample_id, len(app.non_identifier_strings), verdict.value])
    fraction = zero_string_fraction(flagged, args.max_strings)  # checks max_strings before writing
    _write_csv(args.out, rows)
    print(f"flagged SE: {len(flagged)}/{len(samples)}; zero-string fraction among flagged: "
          f"{fraction:.1%}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    entry()
