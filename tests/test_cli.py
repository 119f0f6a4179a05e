import csv
import json
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from strobe.apk import list_dex_entries
from strobe import cli
from strobe.cli import _build_parser, main
from strobe.dataset import Split, SplitStrategy, load_manifest
from strobe.dex import parse_dex
from strobe.evaluation import LearnerKind, train_on_split
from strobe.learners import model_to_json, online_init
from strobe.synth import SynthConfig, gen_corpus, write_apk

from oracles import reference_prequential_eval


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    cfg = SynthConfig(n_families=4, samples_per_family=(4, 8), skew=1.0,
                      mixed_family_fraction=0.25, strings_per_app=(8, 14), seed=55)
    out, _ = gen_corpus(cfg, tmp_path_factory.mktemp("cli") / "corpus")
    return out


@pytest.fixture(scope="module")
def features_csv(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_feat") / "features.csv"
    assert main(["extract", "--apk-dir", str(corpus_dir), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def dodgy_corpus(corpus_dir, tmp_path_factory):
    """A copy of the CLI corpus in which one string of one APK fails to
    decode, and that APK's sample_id."""
    root = tmp_path_factory.mktemp("dodgy") / "corpus"
    shutil.copytree(corpus_dir, root)
    apk = sorted(root.rglob("*.apk"))[0]
    dexes = [payload for _, payload in list_dex_entries(apk.read_bytes())]
    dex = parse_dex(dexes[0])
    blob = bytearray(dexes[0])
    # A lone continuation byte as the first payload byte of a short string.
    victim = next(e for e in dex.strings if e.index not in dex.identifier_ids)
    blob[victim.data_offset + 1] = 0x80
    write_apk(apk, [bytes(blob), *dexes[1:]])
    return root, apk.stem


def test_extract_writes_loadable_feature_csv(features_csv):
    corpus = load_manifest(features_csv)
    assert len(corpus.samples) > 0
    assert all(s.features is not None for s in corpus.samples)


def test_extract_deterministic(corpus_dir, tmp_path):
    out1 = tmp_path / "f1.csv"
    out2 = tmp_path / "f2.csv"
    main(["extract", "--apk-dir", str(corpus_dir), "--out", str(out1)])
    main(["extract", "--apk-dir", str(corpus_dir), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.fixture(scope="module")
def wide_corpus_dir(tmp_path_factory):
    """A corpus of more than two 32-sample extraction chunks."""
    cfg = SynthConfig(n_families=7, samples_per_family=(10, 12), strings_per_app=(8, 14), seed=56)
    out, _ = gen_corpus(cfg, tmp_path_factory.mktemp("cli_wide") / "corpus")
    assert 64 < len(list(out.rglob("*.apk"))) <= 96  # three chunks
    return out


def test_extract_parallel_matches_serial(wide_corpus_dir, tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    main(["extract", "--apk-dir", str(wide_corpus_dir), "--out", str(serial)])
    main(["extract", "--apk-dir", str(wide_corpus_dir), "--jobs", "3", "--out", str(parallel)])
    assert serial.read_bytes() == parallel.read_bytes()


class _InlinePool:
    """Stands in for ProcessPoolExecutor, mapping in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("fixture, jobs, workers", [
    ("wide_corpus_dir", "100000", [3]),
    ("wide_corpus_dir", "2", [2]),
    ("corpus_dir", "100000", []),  # one chunk is read in this process
])
def test_extract_starts_no_more_workers_than_chunks(request, monkeypatch, tmp_path,
                                                     fixture, jobs, workers):
    corpus = request.getfixturevalue(fixture)
    sizes = []

    def pool(max_workers):
        sizes.append(max_workers)
        return _InlinePool()

    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    serial, capped = tmp_path / "serial.csv", tmp_path / "capped.csv"
    assert main(["extract", "--apk-dir", str(corpus), "--out", str(serial)]) == 0
    assert main(["extract", "--apk-dir", str(corpus), "--jobs", jobs, "--out", str(capped)]) == 0
    assert sizes == workers
    assert serial.read_bytes() == capped.read_bytes()


@pytest.mark.parametrize("command", ["extract", "experiment"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(corpus_dir, features_csv, tmp_path, capsys, command, jobs):
    out = tmp_path / "out"
    args = {"extract": ["--apk-dir", str(corpus_dir)],
            "experiment": ["--manifest", str(features_csv), "--strategy", "random",
                           "--learner", "batch", "--reps", "2"]}[command]
    assert main([command, *args, "--jobs", jobs, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["exit_code"] == 1
    assert not out.exists()


def test_synth_cli_deterministic(tmp_path):
    args = ["synth", "--n-families", "3", "--samples-per-family", "2", "4",
            "--strings-per-app", "5", "9", "--seed", "21"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = sorted((tmp_path / "a").rglob("*.apk"))
    b = sorted((tmp_path / "b").rglob("*.apk"))
    assert [p.name for p in a] == [p.name for p in b]
    assert all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b))


@pytest.mark.parametrize("text", [json.dumps({"bogus": 1}), json.dumps({"strings_per_app": 5}),
                                  "[1, 2]", "{not json",
                                  # A value of the wrong type, which passes the range checks.
                                  json.dumps({"n_families": 2.5}), json.dumps({"seed": "x"}),
                                  json.dumps({"seed": True}),
                                  json.dumps({"samples_per_family": [1.5, 3]}),
                                  json.dumps({"skew": "1"}), json.dumps({"skew": float("nan")}),
                                  json.dumps({"fingerprint_strength": float("inf")}),
                                  json.dumps({"scheme": 5})])
def test_a_bad_synth_config_is_a_typed_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"
    assert not (tmp_path / "c").exists()


def test_synth_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_families": 3, "samples_per_family": [2, 3], "seed": 5}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    corpus = load_manifest(tmp_path / "c" / "manifest.csv")
    assert len(corpus.families()) == 3


def test_split_family_disjoint(features_csv, tmp_path):
    out = tmp_path / "split.json"
    rc = main(["split", "--manifest", str(features_csv), "--strategy", "family-disjoint",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["strategy"] == "FAMILY_DISJOINT"
    assert not set(payload["train_ids"]) & set(payload["test_ids"])


def test_split_lofo_writes_list(features_csv, tmp_path):
    out = tmp_path / "lofo.json"
    main(["split", "--manifest", str(features_csv), "--strategy", "lofo", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert isinstance(payload, list) and len(payload) == 4


def test_train_eval_pipeline(features_csv, tmp_path):
    model = tmp_path / "model.json"
    split = tmp_path / "split.json"
    result = tmp_path / "eval.json"
    assert main(["train", "--manifest", str(features_csv), "--learner", "batch",
                 "--seed", "2", "--out", str(model)]) == 0
    assert main(["split", "--manifest", str(features_csv), "--strategy", "random",
                 "--seed", "2", "--out", str(split)]) == 0
    assert main(["eval", "--manifest", str(features_csv), "--model", str(model),
                 "--split", str(split), "--out", str(result)]) == 0
    payload = json.loads(result.read_text())
    assert set(payload) >= {"tp", "fp", "tn", "fn", "accuracy", "f1"}
    assert 0.0 <= payload["accuracy"] <= 1.0


def test_train_online_and_eval(features_csv, tmp_path):
    model = tmp_path / "om.json"
    split = tmp_path / "s.json"
    out = tmp_path / "e.json"
    main(["train", "--manifest", str(features_csv), "--learner", "online",
          "--seed", "4", "--out", str(model)])
    main(["split", "--manifest", str(features_csv), "--strategy", "random",
          "--seed", "4", "--out", str(split)])
    assert main(["eval", "--manifest", str(features_csv), "--model", str(model),
                 "--split", str(split), "--out", str(out)]) == 0
    assert json.loads(model.read_text())["kind"] == "online"


def test_train_online_matches_train_on_split(features_csv, tmp_path):
    model = tmp_path / "om.json"
    assert main(["train", "--manifest", str(features_csv), "--learner", "online",
                 "--seed", "4", "--out", str(model)]) == 0
    corpus = load_manifest(features_csv)
    everything = Split(train_ids=frozenset(s.sample_id for s in corpus.samples),
                       test_ids=frozenset(), strategy=SplitStrategy.RANDOM, seed=4)
    expected = train_on_split(corpus, corpus.rows(everything.train_ids), LearnerKind.ONLINE, seed=4)
    assert json.loads(model.read_text()) == json.loads(json.dumps(model_to_json(expected)))


def test_eval_csv_format_and_train_side(features_csv, tmp_path):
    model = tmp_path / "m.json"
    split = tmp_path / "s.json"
    out = tmp_path / "e.csv"
    main(["train", "--manifest", str(features_csv), "--learner", "batch",
          "--seed", "3", "--out", str(model)])
    main(["split", "--manifest", str(features_csv), "--strategy", "random",
          "--seed", "3", "--out", str(split)])
    assert main(["eval", "--manifest", str(features_csv), "--model", str(model),
                 "--split", str(split), "--side", "train", "--format", "csv",
                 "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header.startswith("tp,fp,tn,fn")
    assert len(row.split(",")) == len(header.split(","))


def test_experiment_accepts_path_manifest(corpus_dir, tmp_path):
    out = tmp_path / "exp.json"
    rc = main(["experiment", "--manifest", str(corpus_dir / "manifest.csv"),
               "--strategy", "random", "--learner", "batch", "--reps", "2",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["repetitions"] == 2


def test_experiment_extracts_a_path_manifest_with_its_jobs(corpus_dir, tmp_path):
    args = ["experiment", "--manifest", str(corpus_dir / "manifest.csv"), "--strategy", "random",
            "--learner", "batch", "--reps", "2", "--seed", "1"]
    serial, parallel = tmp_path / "jobs1.json", tmp_path / "jobs2.json"
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


# Each command as run on either manifest form, besides --manifest, --seed and --out.
MANIFEST_COMMANDS = {
    "train-batch": ["train", "--learner", "batch"],
    "train-online": ["train", "--learner", "online"],
    "experiment": ["experiment", "--strategy", "random", "--learner", "batch", "--reps", "3"],
    "lofo": ["lofo", "--learner", "online"],
    "prequential": ["prequential"],
}


@pytest.mark.parametrize("name", MANIFEST_COMMANDS)
def test_a_path_manifest_gives_the_output_of_its_feature_csv(corpus_dir, features_csv, tmp_path, name):
    outputs = []
    for manifest in (corpus_dir / "manifest.csv", features_csv):
        out = tmp_path / f"{manifest.stem}.json"
        assert main([*MANIFEST_COMMANDS[name], "--manifest", str(manifest), "--seed", "3",
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_a_family_with_a_comma_and_a_quote_reads_back_from_the_feature_csv(corpus_dir, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(corpus_dir, root)
    manifest = root / "manifest.csv"
    with open(manifest, newline="", encoding="utf-8") as fh:
        header, first, *rows = csv.reader(fh)
    renamed = first[1]
    rows = [[*row[:1], 'fam,"x', *row[2:]] if row[1] == renamed else row for row in [first, *rows]]
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    features = tmp_path / "features.csv"
    assert main(["extract", "--apk-dir", str(root), "--out", str(features)]) == 0
    assert 'fam,"x' in {s.family for s in load_manifest(features).samples}
    commands = [["split", "--strategy", "family-disjoint"],
                ["experiment", "--strategy", "family-disjoint", "--learner", "batch", "--reps", "3"]]
    for command in commands:
        outputs = []
        for source in (manifest, features):
            out = tmp_path / f"{command[0]}-{source.stem}.json"
            assert main([*command, "--manifest", str(source), "--seed", "3", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_extract_strict_omits_the_row_with_decode_failures(dodgy_corpus, tmp_path):
    root, dodgy = dodgy_corpus
    kept, strict = tmp_path / "kept.csv", tmp_path / "strict.csv"
    assert main(["extract", "--apk-dir", str(root), "--out", str(kept)]) == 0
    assert main(["extract", "--apk-dir", str(root), "--strict", "--out", str(strict)]) == 0
    rows = kept.read_text().splitlines()
    dodgy_row = next(row for row in rows if row.startswith(dodgy + ","))
    assert dodgy_row.endswith(",1")  # decode_failures
    assert strict.read_text().splitlines() == [row for row in rows if row != dodgy_row]


def test_experiment_strict_drops_decode_failures_in_either_manifest_form(dodgy_corpus, tmp_path):
    root, dodgy = dodgy_corpus
    features, clean = tmp_path / "features.csv", tmp_path / "clean.csv"
    assert main(["extract", "--apk-dir", str(root), "--out", str(features)]) == 0
    lines = features.read_text().splitlines(keepends=True)
    clean.write_text("".join(line for line in lines if not line.startswith(dodgy + ",")))
    args = ["experiment", "--strategy", "random", "--learner", "batch", "--reps", "3", "--seed", "3"]
    runs = {"path": [root / "manifest.csv", "--strict"], "csv": [features, "--strict"],
            "clean": [clean], "all": [features]}
    outputs = {}
    for name, (manifest, *strict) in runs.items():
        out = tmp_path / f"{name}.json"
        assert main([*args, "--manifest", str(manifest), *strict, "--out", str(out)]) == 0
        outputs[name] = out.read_bytes()
    assert outputs["path"] == outputs["csv"] == outputs["clean"] != outputs["all"]


def test_prequential_cli(features_csv, tmp_path):
    out = tmp_path / "preq.json"
    assert main(["prequential", "--manifest", str(features_csv), "--seed", "7",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == len(payload["running_accuracy"])
    assert payload["final_accuracy"] == payload["running_accuracy"][-1]


def test_prequential_cli_equals_the_per_sample_loop(features_csv, tmp_path):
    out = tmp_path / "preq.json"
    assert main(["prequential", "--manifest", str(features_csv), "--k", "7",
                 "--poisson-lambda", "2.0", "--seed", "7", "--out", str(out)]) == 0
    samples = load_manifest(features_csv).samples
    stream = [samples[int(i)] for i in np.random.default_rng(7).permutation(len(samples))]
    result = reference_prequential_eval(online_init(k=7, lam_poisson=2.0, seed=7), stream)
    payload = {"n": len(stream), "final_accuracy": result.final_accuracy,
               "running_accuracy": list(result.running_accuracy)}
    assert out.read_text() == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("column, cell", [("avg_wordsize", "abc"), ("avg_dash", "nan"),
                                          ("n_strings", "1.5"), ("n_strings", "-3"),
                                          ("decode_failures", "abc")])
def test_split_rejects_a_bad_feature_cell(features_csv, tmp_path, capsys, column, cell):
    header, first, *rest = features_csv.read_text().splitlines()
    cells = first.split(",")
    cells[header.split(",").index(column)] = cell
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    out = tmp_path / "split.json"
    assert main(["split", "--manifest", str(bad), "--strategy", "random", "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "BadValue"
    assert column in json.loads(lines[0])["message"]
    assert not out.exists()


def test_lofo_cli(features_csv, tmp_path):
    out = tmp_path / "lofo_run.json"
    assert main(["lofo", "--manifest", str(features_csv), "--learner", "batch",
                 "--seed", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["per_family"]) == 4
    assert 0.0 <= payload["weighted_accuracy"] <= 1.0


def test_lofo_cli_rejects_jobs(features_csv, tmp_path):
    # The folds train in one lockstep pass; a flag that did nothing is a usage error.
    assert main(["lofo", "--manifest", str(features_csv), "--learner", "batch",
                 "--jobs", "3", "--out", str(tmp_path / "lofo.json")]) == 1
    assert not (tmp_path / "lofo.json").exists()


def test_experiment_cli_with_csv_and_gnuplot(features_csv, tmp_path):
    out = tmp_path / "exp.json"
    per_run = tmp_path / "runs.csv"
    gp = tmp_path / "box.dat"
    rc = main(["experiment", "--manifest", str(features_csv), "--strategy", "random",
               "--learner", "batch", "--reps", "3", "--seed", "5",
               "--out", str(out), "--csv", str(per_run), "--gnuplot", str(gp)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["repetitions"] == 3 and len(payload["per_run"]) == 3
    assert per_run.read_text().splitlines()[0].startswith("seed,")
    assert gp.read_text().startswith("#")


def test_experiment_deterministic(features_csv, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["experiment", "--manifest", str(features_csv), "--strategy", "family-disjoint",
            "--learner", "online", "--reps", "2", "--seed", "9"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_praguard_check_cli(tmp_path, capsys):
    cfg = SynthConfig(n_families=4, samples_per_family=(3, 5), scheme="STRIP_ALL",
                      mixed_family_fraction=0.0, strings_per_app=(10, 14), seed=31)
    corpus_dir, _ = gen_corpus(cfg, tmp_path / "strip")
    out = tmp_path / "verdicts.csv"
    assert main(["praguard-check", "--apk-dir", str(corpus_dir), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sample_id,n_strings,verdict"
    assert any(line.endswith(",SE") for line in lines[1:])
    assert "zero-string fraction among flagged: 100.0%" in capsys.readouterr().err


def test_praguard_check_rejects_a_negative_threshold(corpus_dir, tmp_path, capsys):
    out = tmp_path / "verdicts.csv"
    assert main(["praguard-check", "--apk-dir", str(corpus_dir), "--max-strings", "-1",
                 "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "BadConfig"
    assert not out.exists()


def test_exit_code_usage_error():
    assert main(["extract", "--no-such-flag"]) == 1
    assert main(["synth"]) == 1  # missing --out
    assert main(["stats", "--input", "runs.csv"]) == 1  # box statistics are in experiment's JSON


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad" / "x.apk"
    bad.parent.mkdir()
    bad.write_bytes(b"not an archive at all")
    assert main(["extract", "--apk-dir", str(bad.parent), "--out", str(tmp_path / "o.csv")]) == 2


def test_exit_code_dataset_error(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("sample_id,family,label,path\ns1,f,BOGUS,x.apk\n")
    assert main(["split", "--manifest", str(manifest), "--strategy", "random",
                 "--out", str(tmp_path / "s.json")]) == 3


def test_exit_code_io_error(tmp_path):
    assert main(["split", "--manifest", str(tmp_path / "missing.csv"),
                 "--strategy", "random", "--out", str(tmp_path / "s.json")]) == 4


def test_error_line_is_machine_readable(tmp_path, capsys):
    main(["split", "--manifest", str(tmp_path / "missing.csv"),
          "--strategy", "random", "--out", str(tmp_path / "s.json")])
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["exit_code"] == 4 and "message" in payload


def test_online_train_defaults_equal_the_explicit_flags(features_csv, tmp_path):
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    assert main(["train", "--manifest", str(features_csv), "--learner", "online",
                 "--out", str(default)]) == 0
    assert main(["train", "--manifest", str(features_csv), "--learner", "online",
                 "--k", "10", "--poisson-lambda", "6.0", "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("flags", [
    ["experiment", "--strategy", "random", "--learner", "batch", "--reps", "0"],
    ["prequential", "--poisson-lambda", "inf"],
    ["prequential", "--poisson-lambda", "1e30"],
    ["train", "--learner", "online", "--poisson-lambda", "inf"],
])
def test_bad_learner_settings_are_a_typed_error(features_csv, tmp_path, capsys, flags):
    out = tmp_path / "out.json"
    assert main([*flags, "--manifest", str(features_csv), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert (error["error"], error["exit_code"]) == ("BadConfig", 3)
    assert captured.out == "" and not out.exists()


def test_extract_without_manifest_rejects_repeated_file_names(corpus_dir, tmp_path, capsys):
    apks = tmp_path / "apks"
    first = sorted(corpus_dir.rglob("*.apk"))[0]
    for fam in ("famA", "famB"):
        (apks / fam).mkdir(parents=True)
        (apks / fam / first.name).write_bytes(first.read_bytes())
    out = tmp_path / "features.csv"
    assert main(["extract", "--apk-dir", str(apks), "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "DuplicateId"
    assert not out.exists()


def test_eval_rejects_a_split_with_unknown_ids(features_csv, tmp_path, capsys):
    model = tmp_path / "m.json"
    assert main(["train", "--manifest", str(features_csv), "--learner", "batch",
                 "--out", str(model)]) == 0
    known = frozenset({load_manifest(features_csv).samples[0].sample_id})
    ghosts = frozenset({"ghost1", "ghost2"})
    split = tmp_path / "s.json"
    out = tmp_path / "e.json"
    # Ghosts on the scored side, then on the side that the default --side test does not score.
    for train_ids, test_ids in ((frozenset(), known | ghosts), (ghosts, known)):
        unknown = Split(train_ids=train_ids, test_ids=test_ids, strategy=SplitStrategy.RANDOM, seed=0)
        split.write_text(json.dumps(unknown.to_json()))
        assert main(["eval", "--manifest", str(features_csv), "--model", str(model),
                     "--split", str(split), "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "UnknownId"
        assert not out.exists()


def _without(key):
    return lambda obj: json.dumps({k: v for k, v in obj.items() if k != key})


def _narrow_online_model(obj):
    """An online model whose members' mean and m2 rows are 3 features wide."""
    online = model_to_json(online_init(k=2, seed=0))
    for member in online["learners"]:
        member["mean"], member["m2"] = ([row[:3] for row in member[key]] for key in ("mean", "m2"))
    return json.dumps(online)


# Ways to break the --model or --split file of eval, and the error each gives.
BROKEN_EVAL_INPUTS = {
    "model-not-json": ("model", lambda obj: "{not json", "BadConfig"),
    "model-not-an-object": ("model", lambda obj: json.dumps(list(obj)), "BadConfig"),
    "model-missing-key": ("model", _without("weights"), "BadConfig"),
    "model-short-weights": ("model", lambda obj: json.dumps({**obj, "weights": obj["weights"][:3]}),
                            "BadConfig"),
    "model-zero-std": ("model", lambda obj: json.dumps(
        {**obj, "scaler": {**obj["scaler"], "std": [0.0, *obj["scaler"]["std"][1:]]}}), "BadConfig"),
    "model-narrow-online-means": ("model", _narrow_online_model, "BadConfig"),
    # An integer literal too large for a double overflows where 1e400 would read as inf.
    "model-bias-out-of-range": ("model", lambda obj: json.dumps({**obj, "bias": 10**400}), "BadConfig"),
    "split-not-json": ("split", lambda obj: "{not json", "BadValue"),
    "split-not-an-object": ("split", lambda obj: json.dumps(list(obj)), "BadValue"),
    "split-missing-key": ("split", _without("test_ids"), "BadValue"),
    "split-unknown-strategy": ("split", lambda obj: json.dumps({**obj, "strategy": "BOGUS"}),
                               "BadValue"),
    # Training ids copied onto the test side would be scored as test samples.
    "split-overlapping-sides": ("split", lambda obj: json.dumps(
        {**obj, "test_ids": obj["test_ids"] + obj["train_ids"][:3]}), "BadValue"),
    # A string of ids would be read as the set of its characters.
    "split-ids-a-string": ("split", lambda obj: json.dumps({**obj, "test_ids": obj["test_ids"][0]}),
                           "BadValue"),
    "split-id-not-a-string": ("split", lambda obj: json.dumps({**obj, "test_ids": [*obj["test_ids"], 7]}),
                              "BadValue"),
    "split-seed-not-an-integer": ("split", lambda obj: json.dumps({**obj, "seed": "x"}), "BadValue"),
    "split-retries-a-bool": ("split", lambda obj: json.dumps({**obj, "retries": True}), "BadValue"),
    "split-family-not-a-string": ("split", lambda obj: json.dumps({**obj, "held_out_family": 3}),
                                  "BadValue"),
}


@pytest.mark.parametrize("case", BROKEN_EVAL_INPUTS)
def test_a_broken_eval_input_is_a_typed_error(features_csv, tmp_path, capsys, case):
    which, broken, error = BROKEN_EVAL_INPUTS[case]
    files = {"model": tmp_path / "model.json", "split": tmp_path / "split.json"}
    assert main(["train", "--manifest", str(features_csv), "--learner", "batch",
                 "--out", str(files["model"])]) == 0
    assert main(["split", "--manifest", str(features_csv), "--strategy", "random",
                 "--out", str(files["split"])]) == 0
    files[which].write_text(broken(json.loads(files[which].read_text())))
    capsys.readouterr()
    out = tmp_path / "e.json"
    assert main(["eval", "--manifest", str(features_csv), "--model", str(files["model"]),
                 "--split", str(files["split"]), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    assert not out.exists()


def test_eval_scores_a_split_that_leaves_rows_out(features_csv, tmp_path):
    files = {"model": tmp_path / "model.json", "split": tmp_path / "split.json"}
    assert main(["train", "--manifest", str(features_csv), "--learner", "batch",
                 "--out", str(files["model"])]) == 0
    assert main(["split", "--manifest", str(features_csv), "--strategy", "random",
                 "--out", str(files["split"])]) == 0
    obj = json.loads(files["split"].read_text())
    kept = obj["test_ids"][:len(obj["test_ids"]) // 2]
    files["split"].write_text(json.dumps({**obj, "train_ids": obj["train_ids"][1:], "test_ids": kept}))
    out = tmp_path / "e.json"
    assert main(["eval", "--manifest", str(features_csv), "--model", str(files["model"]),
                 "--split", str(files["split"]), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["tp"] + result["fp"] + result["tn"] + result["fn"] == len(kept)


@pytest.mark.parametrize("flags", [["--learner", "online", "--grid", "--out", "MODEL"],
                                   ["--learner", "online", "--folds", "4", "--out", "MODEL"],
                                   ["--learner", "batch", "--folds", "4", "--out", "MODEL"],
                                   ["--learner", "batch"],
                                   ["--learner", "batch", "--k", "5", "--out", "MODEL"],
                                   ["--learner", "batch", "--poisson-lambda", "2.0", "--out", "MODEL"]])
def test_train_usage_errors_write_nothing(features_csv, tmp_path, capsys, flags):
    out = tmp_path / "model.json"
    args = ["train", "--manifest", str(features_csv)] + [str(out) if f == "MODEL" else f for f in flags]
    assert main(args) == 1
    assert not out.exists() and capsys.readouterr().out == ""


# The options each subcommand takes, besides -h: exactly the ones its cmd_* reads.
KEPT_OPTIONS = {
    "extract": {"--apk-dir", "--manifest", "--strict", "--jobs", "--out"},
    "synth": {"--config", "--preset", "--n-families", "--samples-per-family", "--skew",
              "--se-family-fraction", "--mixed-family-fraction", "--fingerprint-strength",
              "--se-string-fraction", "--strings-per-app", "--identifiers-per-app", "--scheme",
              "--seed", "--out"},
    "split": {"--manifest", "--strategy", "--seed", "--out"},
    "train": {"--manifest", "--learner", "--grid", "--folds", "--k", "--poisson-lambda",
              "--seed", "--out"},
    "eval": {"--manifest", "--model", "--split", "--side", "--format", "--out"},
    "prequential": {"--manifest", "--k", "--poisson-lambda", "--seed", "--out"},
    "lofo": {"--manifest", "--learner", "--seed", "--out"},
    "experiment": {"--manifest", "--strategy", "--learner", "--reps", "--strict", "--csv",
                   "--gnuplot", "--seed", "--jobs", "--out"},
    "praguard-check": {"--apk-dir", "--manifest", "--max-strings", "--out"},
}

SHARED_FLAGS = {"--seed": "3", "--jobs": "2", "--format": "json"}

# (lofo, --jobs) is left to test_lofo_cli_rejects_jobs.
REMOVED_PAIRS = [(name, flag) for name in KEPT_OPTIONS for flag in SHARED_FLAGS
                 if flag not in KEPT_OPTIONS[name] and (name, flag) != ("lofo", "--jobs")]


def test_each_subcommand_takes_exactly_its_options():
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(KEPT_OPTIONS)
    for name, parser in subparsers.items():
        options = {s for action in parser._actions for s in action.option_strings}
        assert options - {"-h", "--help"} == KEPT_OPTIONS[name], name


@pytest.fixture(scope="module")
def valid_commands(corpus_dir, features_csv, tmp_path_factory):
    """A working command line per subcommand, without its --out."""
    root = tmp_path_factory.mktemp("commands")
    model, split = root / "model.json", root / "split.json"
    assert main(["train", "--manifest", str(features_csv), "--learner", "batch",
                 "--out", str(model)]) == 0
    assert main(["split", "--manifest", str(features_csv), "--strategy", "random",
                 "--out", str(split)]) == 0
    feat = ["--manifest", str(features_csv)]
    return {
        "extract": ["extract", "--apk-dir", str(corpus_dir)],
        "synth": ["synth", "--n-families", "2", "--samples-per-family", "2", "2",
                  "--strings-per-app", "3", "5"],
        "split": ["split", *feat, "--strategy", "random"],
        "train": ["train", *feat, "--learner", "batch"],
        "eval": ["eval", *feat, "--model", str(model), "--split", str(split)],
        "prequential": ["prequential", *feat],
        "lofo": ["lofo", *feat, "--learner", "batch"],
        "experiment": ["experiment", *feat, "--strategy", "random", "--learner", "batch",
                       "--reps", "2"],
        "praguard-check": ["praguard-check", "--apk-dir", str(corpus_dir)],
    }


@pytest.mark.parametrize("name,flag", REMOVED_PAIRS)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(valid_commands, tmp_path, name, flag):
    ok, rejected = tmp_path / "ok", tmp_path / "rejected"
    assert main(valid_commands[name] + ["--out", str(ok)]) == 0
    assert ok.exists()
    assert main(valid_commands[name] + [flag, SHARED_FLAGS[flag], "--out", str(rejected)]) == 1
    assert not rejected.exists()


@pytest.mark.parametrize("name", ["split", "train", "prequential", "lofo", "experiment"])
def test_seedless_runs_use_seed_42(valid_commands, tmp_path, name):
    seedless, seeded = tmp_path / "seedless", tmp_path / "seeded"
    assert main(valid_commands[name] + ["--out", str(seedless)]) == 0
    assert main(valid_commands[name] + ["--seed", "42", "--out", str(seeded)]) == 0
    assert seedless.read_bytes() == seeded.read_bytes()


def test_every_readme_command_parses():
    # Every `strobe ...` line of the README's sh blocks, continuations joined
    # and comments dropped: the docs name no flag or subcommand the CLI lacks.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["strobe"]:
                commands.append(words[1:])
    assert len(commands) == 12
    for argv in commands:
        assert _build_parser().parse_args(argv).subcommand == argv[0]
