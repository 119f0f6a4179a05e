"""Command-line entry point.

Subcommands compose the pipeline: synth (generate a corpus), extract
(APKs -> feature CSV), split / train / eval / prequential / lofo /
experiment (the evaluation protocols), praguard-check (the stripped-string
heuristic), and stats (box statistics over per-run results).

Exit codes: 0 success, 1 usage error, 2 parse/extraction error,
3 dataset/split/learner error, 4 I/O error. Failures print one
machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from pathlib import Path

from . import synth
from .apk import extract_app_strings
from .dataset import (
    Corpus,
    Sample,
    SplitStrategy,
    family_disjoint_split,
    load_manifest,
    load_split,
    lofo_splits,
    random_split,
)
from .errors import (
    BadMagic,
    CorruptEntry,
    DecodeError,
    NoDex,
    NotAZip,
    OffsetOutOfBounds,
    StrobeError,
    Truncated,
)
from .evaluation import (
    LearnerKind,
    box_stats,
    gnuplot_box_data,
    holdout_eval,
    prequential_eval,
    run_experiment,
    run_lofo,
)
from .features import CSV_HEADER, csv_row, feature_vector
from .heuristic import HeuristicConfig, detect_dexguard, zero_string_fraction
from .learners import (
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

_PARSE_ERRORS = (BadMagic, Truncated, OffsetOutOfBounds, DecodeError, NotAZip, CorruptEntry, NoDex)


class _UsageError(Exception):
    pass


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
    except _PARSE_ERRORS as exc:
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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="base seed; fixes all randomized behavior")
    common.add_argument("--out", help="output path")
    common.add_argument("--format", choices=("csv", "json"), default="json")
    # lofo takes no --jobs: its folds train in one lockstep pass, which
    # worker processes only slowed down.
    with_jobs = argparse.ArgumentParser(add_help=False, parents=[common])
    with_jobs.add_argument("--jobs", type=int, default=1, help="worker processes for per-file / per-rep work")

    p = sub.add_parser("extract", parents=[with_jobs], help="extract feature CSV from APKs")
    p.add_argument("--apk-dir", required=True, help="corpus directory of APK files")
    p.add_argument("--manifest", help="manifest CSV (defaults to <apk-dir>/manifest.csv if present)")
    p.add_argument("--strict", action="store_true",
                   help="drop samples whose string section fails to decode")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("synth", parents=[with_jobs], help="generate a synthetic APK corpus")
    p.add_argument("--config", help="SynthConfig JSON file")
    p.add_argument("--preset", choices=("confounded", "control", "stripped"))
    p.add_argument("--n-families", type=int)
    p.add_argument("--samples-per-family", type=int, nargs=2, metavar=("MIN", "MAX"))
    p.add_argument("--skew", type=float)
    p.add_argument("--se-family-fraction", type=float)
    p.add_argument("--mixed-family-fraction", type=float)
    p.add_argument("--fingerprint-strength", type=float)
    p.add_argument("--se-string-fraction", type=float)
    p.add_argument("--strings-per-app", type=int, nargs=2, metavar=("MIN", "MAX"))
    p.add_argument("--identifiers-per-app", type=int, nargs=2, metavar=("MIN", "MAX"))
    p.add_argument("--scheme", choices=(synth.SCHEME_BASE64_XOR, synth.SCHEME_STRIP_ALL))
    p.set_defaults(func=cmd_synth, seed=None)

    p = sub.add_parser("split", parents=[with_jobs], help="build and export a train/test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--strategy", required=True, choices=("random", "family-disjoint", "lofo"))
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", parents=[with_jobs], help="train a model on a feature manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--learner", required=True, choices=("batch", "online"))
    p.add_argument("--grid", action="store_true", help="grid-search hyperparameters first (batch only)")
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--k", type=int, default=DEFAULT_ONLINE_ENSEMBLE, help="online ensemble size")
    p.add_argument("--poisson-lambda", type=float, default=DEFAULT_POISSON_LAMBDA)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[with_jobs], help="evaluate a saved model on a split side")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--side", choices=("test", "train"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("prequential", parents=[with_jobs],
                       help="test-then-train over the corpus as a seeded stream")
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=int, default=DEFAULT_ONLINE_ENSEMBLE)
    p.add_argument("--poisson-lambda", type=float, default=DEFAULT_POISSON_LAMBDA)
    p.set_defaults(func=cmd_prequential)

    p = sub.add_parser("lofo", parents=[common], help="leave-one-family-out evaluation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--learner", required=True, choices=("batch", "online"))
    p.set_defaults(func=cmd_lofo)

    p = sub.add_parser("experiment", parents=[with_jobs],
                       help="repeated split/train/eval with box statistics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--strategy", required=True, choices=("random", "family-disjoint"))
    p.add_argument("--learner", required=True, choices=("batch", "online"))
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--csv", help="also write per-run rows as CSV")
    p.add_argument("--gnuplot", help="also write a gnuplot-friendly box data file")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("praguard-check", parents=[with_jobs],
                       help="flag apps whose string section is (almost) empty")
    p.add_argument("--apk-dir", required=True)
    p.add_argument("--manifest")
    p.add_argument("--max-strings", type=int, default=0)
    p.set_defaults(func=cmd_praguard_check)

    p = sub.add_parser("stats", parents=[with_jobs], help="box statistics over a value column")
    p.add_argument("--input", required=True, help="CSV with header, or one number per line")
    p.add_argument("--column", default="accuracy")
    p.set_defaults(func=cmd_stats)

    return parser


# --------------------------------------------------------------------------
# Shared plumbing
# --------------------------------------------------------------------------

def _resolve_manifest(apk_dir: str, manifest: str | None) -> tuple[Path, Path | None]:
    base = Path(apk_dir)
    if manifest:
        return base, Path(manifest)
    candidate = base / "manifest.csv"
    return base, candidate if candidate.exists() else None


def _iter_apk_rows(base: Path, manifest: Path | None) -> list[tuple[str, str, str, Path]]:
    """(sample_id, family, label, path) for each APK to process."""
    if manifest is not None:
        corpus = load_manifest(manifest)
        rows = []
        for s in corpus.samples:
            if s.path is None:
                raise _UsageError("manifest already contains features; nothing to extract")
            rows.append((s.sample_id, s.family, s.label.value, manifest.parent / s.path))
        return rows
    apks = sorted(base.rglob("*.apk"))
    if not apks:
        raise _UsageError(f"no .apk files under {base}")
    print(f"warning: no manifest found; labels default to NOT_SE and family "
          f"to the parent directory name", file=sys.stderr)
    rows = []
    for path in apks:
        family = path.parent.name if path.parent != base else "unknown"
        rows.append((path.stem, family, "NOT_SE", path))
    return rows


def _extract_row(task: tuple[str, str, str, str, bool]) -> tuple[str, list[str] | None]:
    sample_id, family, label, path, strict = task
    app = extract_app_strings(path, strict=strict)
    if app.strict_excluded:
        return sample_id, None
    fv = feature_vector(app)
    return sample_id, csv_row(sample_id, family, label, fv, app.decode_failures)


def _extract_all(rows, strict: bool, jobs: int) -> list[list[str]]:
    tasks = [(sid, fam, lab, str(path), strict) for sid, fam, lab, path in rows]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_extract_row, tasks, chunksize=32))
    else:
        results = [_extract_row(t) for t in tasks]
    by_id = {sid: row for sid, row in results if row is not None}
    return [by_id[sid] for sid in sorted(by_id)]


def _load_feature_corpus(manifest: str, strict: bool = False) -> Corpus:
    """Load a manifest; if it is path-based, extract features from the APKs."""
    manifest_path = Path(manifest)
    corpus = load_manifest(manifest_path)
    if all(s.features is not None for s in corpus.samples):
        return corpus
    samples = []
    for s in corpus.samples:
        app = extract_app_strings(manifest_path.parent / s.path, strict=strict)
        if app.strict_excluded:
            continue
        samples.append(Sample(s.sample_id, s.family, s.label, features=feature_vector(app)))
    return Corpus.from_samples(samples)


def _write_text(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_json(out: str | None, obj) -> None:
    _write_text(out, json.dumps(obj, indent=2) + "\n")


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_extract(args) -> int:
    base, manifest = _resolve_manifest(args.apk_dir, args.manifest)
    rows = _iter_apk_rows(base, manifest)
    table = _extract_all(rows, args.strict, args.jobs)
    out_rows = [list(CSV_HEADER)] + table
    text = "\n".join(",".join(row) for row in out_rows) + "\n"
    _write_text(args.out, text)
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.preset == "confounded":
        cfg = synth.confounded_preset()
    elif args.preset == "control":
        cfg = synth.control_preset()
    elif args.preset == "stripped":
        cfg = synth.stripped_preset()
    else:
        cfg = synth.SynthConfig()
    if args.config:
        base = cfg.to_json()
        with open(args.config, encoding="utf-8") as fh:
            base.update(json.load(fh))
        cfg = synth.SynthConfig.from_json(base)

    overrides = {}
    for name in ("n_families", "samples_per_family", "skew", "se_family_fraction",
                 "mixed_family_fraction", "fingerprint_strength", "se_string_fraction",
                 "strings_per_app", "identifiers_per_app", "scheme", "seed"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = tuple(value) if isinstance(value, list) else value
    if overrides:
        merged = cfg.to_json()
        merged.update(overrides)
        cfg = synth.SynthConfig.from_json(merged)

    if not args.out:
        raise _UsageError("synth requires --out DIR")
    cfg.validate()
    out_dir, manifest = synth.gen_corpus(cfg, args.out)
    print(f"wrote corpus to {out_dir} ({manifest.name})")
    return EXIT_OK


def cmd_split(args) -> int:
    corpus = load_manifest(args.manifest)
    if args.strategy == "random":
        payload = random_split(corpus, args.seed).to_json()
    elif args.strategy == "family-disjoint":
        payload = family_disjoint_split(corpus, args.seed).to_json()
    else:
        payload = [s.to_json() for s in lofo_splits(corpus)]
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_train(args) -> int:
    corpus = _load_feature_corpus(args.manifest)
    samples = list(corpus.samples)
    if args.learner == "batch":
        if args.grid:
            hp = grid_search(samples, folds=args.folds, seed=args.seed)
            model = batch_train(samples, hp, seed=args.seed)
        else:
            model = batch_train(samples, seed=args.seed)
    else:
        model = online_train(samples, k=args.k, lam_poisson=args.poisson_lambda, seed=args.seed)
    if not args.out:
        raise _UsageError("train requires --out PATH")
    save_model(model, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    corpus = _load_feature_corpus(args.manifest)
    model = load_model(args.model)
    split = load_split(args.split)
    ids = split.test_ids if args.side == "test" else split.train_ids
    samples = corpus.by_ids(ids)
    result = holdout_eval(model, samples)
    if args.format == "csv":
        keys = ["tp", "fp", "tn", "fn", "accuracy", "precision", "recall", "f1"]
        obj = result.to_json()
        text = ",".join(keys) + "\n" + ",".join(f"{obj[k]:.9g}" for k in keys) + "\n"
        _write_text(args.out, text)
    else:
        _write_json(args.out, result.to_json())
    return EXIT_OK


def cmd_prequential(args) -> int:
    corpus = _load_feature_corpus(args.manifest)
    order = np.random.default_rng(args.seed & 0xFFFFFFFFFFFFFFFF).permutation(len(corpus.samples))
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
    corpus = _load_feature_corpus(args.manifest, strict=args.strict)
    strategy = SplitStrategy.RANDOM if args.strategy == "random" else SplitStrategy.FAMILY_DISJOINT
    summary = run_experiment(
        corpus, strategy, LearnerKind[args.learner.upper()],
        repetitions=args.reps, base_seed=args.seed, jobs=args.jobs,
    )
    _write_json(args.out, summary.to_json())
    if args.csv:
        keys = ["seed", "retries", "skipped", "accuracy", "precision", "recall", "f1"]
        lines = [",".join(keys)]
        for run in summary.to_json()["per_run"]:
            lines.append(",".join(_csv_cell(run.get(k)) for k in keys))
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
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
    base, manifest = _resolve_manifest(args.apk_dir, args.manifest)
    rows = _iter_apk_rows(base, manifest)
    cfg = HeuristicConfig(max_strings=args.max_strings)
    apps = []
    lines = ["sample_id,n_strings,verdict"]
    for sample_id, _family, _label, path in sorted(rows):
        app = extract_app_strings(path)
        apps.append(app)
        verdict = detect_dexguard(app, cfg)
        lines.append(f"{sample_id},{len(app.non_identifier_strings)},{verdict.value}")
    _write_text(args.out, "\n".join(lines) + "\n")
    n_flagged = sum(1 for a in apps if detect_dexguard(a, cfg).value == "SE")
    frac = zero_string_fraction(apps, cfg)
    print(f"flagged SE: {n_flagged}/{len(apps)}; zero-string fraction among flagged: {frac:.1%}")
    return EXIT_OK


def cmd_stats(args) -> int:
    values: list[float] = []
    with open(args.input, encoding="utf-8") as fh:
        first = fh.readline()
        if args.column in first.split(","):
            idx = first.rstrip("\n").split(",").index(args.column)
            for line in fh:
                cell = line.rstrip("\n").split(",")[idx]
                if cell:
                    values.append(float(cell))
        else:
            for line in [first, *fh]:
                line = line.strip()
                if line:
                    values.append(float(line))
    _write_json(args.out, box_stats(values).to_json())
    return EXIT_OK


if __name__ == "__main__":
    entry()
