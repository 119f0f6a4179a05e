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
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
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
    load_manifest,
    load_split,
    lofo_splits,
    random_split,
)
from .errors import BadValue, InvalidConfig, ParseError, StrobeError, numpy_seed, read_json
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
    def command(name, func, help, *, seed=False, out_required=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if seed:
            p.add_argument("--seed", type=int, default=42, help="base seed; fixes all randomized behavior")
        p.add_argument("--out", required=out_required, help="output path")
        return p

    apk_dir_help = "corpus directory: the APKs its manifest.csv lists, else every *.apk under it"
    p = command("extract", cmd_extract, "extract feature CSV from APKs")
    p.add_argument("--apk-dir", required=True, help=apk_dir_help)
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
    p.add_argument("--split", help="split JSON: fit (and grid-search) only its training side")
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

    # lofo and experiment train their folds and repetitions in one lockstep
    # pass, which worker processes only slowed down.
    p = command("lofo", cmd_lofo, "leave-one-family-out evaluation", seed=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--learner", required=True, choices=("batch", "online"))

    p = command("experiment", cmd_experiment, "repeated split/train/eval with box statistics", seed=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--strategy", required=True, choices=("random", "family-disjoint"))
    p.add_argument("--learner", required=True, choices=("batch", "online"))
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--csv", help="also write per-run rows as CSV")
    p.add_argument("--gnuplot", help="also write a gnuplot-friendly box data file")

    p = command("praguard-check", cmd_praguard_check, "flag apps whose string section is (almost) empty")
    p.add_argument("--apk-dir", required=True, help=apk_dir_help)
    p.add_argument("--max-strings", type=int, default=0)

    return parser


# --------------------------------------------------------------------------
# Shared plumbing
# --------------------------------------------------------------------------

def _apk_dir_samples(apk_dir: str) -> list[Sample]:
    """The APKs to read: those <apk-dir>/manifest.csv lists, each path joined
    to apk_dir, else every *.apk under apk_dir."""
    base = Path(apk_dir)
    manifest = base / "manifest.csv"
    if manifest.exists():
        samples = load_manifest(manifest).samples
        if any(s.path is None for s in samples):
            raise _UsageError("manifest already contains features; nothing to extract")
        return [Sample(s.sample_id, s.family, s.label, path=os.path.join(base, s.path)) for s in samples]
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


def _string_count_row(sample: Sample) -> list:
    """The sample's id and the number of non-identifier strings in its APK."""
    return [sample.sample_id, len(extract_app_strings(sample.path).non_identifier_strings)]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _feature_table(row, samples: list[Sample]) -> list[list]:
    """The rows row(sample) of the samples, sorted by their first cell, the sample_id.
    Workers are handed row by name, so it is a module-level function."""
    # Under fork the pool starts every worker at the first submit, so it gets
    # no more workers than there are chunks to hand out.
    workers = min(_usable_cpus(), -(-len(samples) // _CHUNK))
    if workers < 2:
        return sorted(map(row, samples), key=itemgetter(0))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sorted(pool.map(row, samples, chunksize=_CHUNK), key=itemgetter(0))


def _load_feature_corpus(manifest: str) -> Corpus:
    """The corpus of a feature CSV; a path manifest, whose samples have no
    features, raises BadValue before any APK is opened."""
    corpus = load_manifest(manifest)
    if corpus.X is None:
        raise BadValue(f"{manifest} lists APKs, not features: run `strobe extract` on its "
                       f"directory and pass the feature CSV it writes")
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
    rows = _feature_table(_feature_row, _apk_dir_samples(args.apk_dir))
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
    if args.split is not None:
        split = load_split(args.split)
        # Both sides resolve, as in eval, so a split of another corpus is an error.
        corpus.rows(split.test_ids)
        corpus = Corpus.from_samples(corpus.by_ids(split.train_ids))
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
    order = np.random.default_rng(numpy_seed(args.seed)).permutation(len(corpus.samples))
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
    corpus = _load_feature_corpus(args.manifest)
    strategy = SplitStrategy.RANDOM if args.strategy == "random" else SplitStrategy.FAMILY_DISJOINT
    summary = run_experiment(corpus, strategy, LearnerKind[args.learner.upper()],
                             repetitions=args.reps, base_seed=args.seed)
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
    zero_string_fraction([], args.max_strings)  # a negative threshold fails before any APK is read
    rows = _feature_table(_string_count_row, _apk_dir_samples(args.apk_dir))
    verdicts = [detect_dexguard(n, args.max_strings) for _, n in rows]
    _write_csv(args.out, [["sample_id", "n_strings", "verdict"],
                          *([*row, verdict.value] for row, verdict in zip(rows, verdicts))])
    fraction = zero_string_fraction([n for _, n in rows], args.max_strings)
    print(f"flagged SE: {verdicts.count(Label.SE)}/{len(rows)}; zero-string fraction among flagged: "
          f"{fraction:.1%}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    entry()
