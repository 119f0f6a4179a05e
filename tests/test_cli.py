import csv
import hashlib
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
from strobe.dataset import Split, SplitStrategy, load_manifest, load_split
from strobe.dex import parse_dex
from strobe.errors import InvalidConfig
from strobe.evaluation import LearnerKind, holdout_eval, train_on_split
from strobe.learners import batch_train, grid_search, model_to_json, online_init, online_train
from strobe.synth import SynthConfig, gen_corpus, write_apk

from oracles import reference_prequential_eval, string_data_offset


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
    victim = next(i for i in range(len(dex.strings)) if i not in dex.identifier_ids)
    blob[string_data_offset(blob, victim) + 1] = 0x80
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


def _force_cpus(monkeypatch, n):
    """Extraction sees n usable CPUs, so it starts min(n, chunks) workers."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: n)


def test_extract_parallel_matches_serial(wide_corpus_dir, monkeypatch, tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    _force_cpus(monkeypatch, 1)
    main(["extract", "--apk-dir", str(wide_corpus_dir), "--out", str(serial)])
    _force_cpus(monkeypatch, 3)
    main(["extract", "--apk-dir", str(wide_corpus_dir), "--out", str(parallel)])
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("command", ["extract", "praguard-check"])
def test_a_parse_error_in_a_worker_reaches_main_unchanged(wide_corpus_dir, monkeypatch, tmp_path, capsys,
                                                          command):
    root = tmp_path / "corpus"
    shutil.copytree(wide_corpus_dir, root)
    sorted(root.rglob("*.apk"))[40].write_bytes(b"not a zip")  # in the second 32-sample chunk
    errors = []
    for cpus in (1, 2):
        _force_cpus(monkeypatch, cpus)
        out = tmp_path / f"out-{cpus}.csv"
        assert main([command, "--apk-dir", str(root), "--out", str(out)]) == 2
        assert not out.exists()
        errors.append(capsys.readouterr().err.splitlines())
    assert len(errors[0]) == 1 and errors[1] == errors[0]
    assert json.loads(errors[0][0]) == {"error": "NotAZip", "message": "no end of central directory record",
                                        "exit_code": 2}


# Per preset fixture: the SHA-256 of the feature CSV that `strobe extract`
# wrote for its corpus. A change to the APK or DEX reader, the string
# partition, the feature means or the CSV format that moves one byte changes it.
PRESET_FEATURE_CSVS = {
    "confounded": "82958a34de13c60f29599dbbf6897fe715c4b659715c4ab27da6084b19d98974",
    "control": "86fd5e9b11fb959b780696d20cfa5c585fd7cb4d6e635c5d525ccccb99466543",
    "stripped": "0ccf56bf99fd43cf46ac730e7c2c54113ccd2ee60646718070d7cef6d0fd922f",
}


@pytest.mark.parametrize("preset", PRESET_FEATURE_CSVS)
def test_preset_feature_csv_bytes_are_pinned(request, monkeypatch, tmp_path, preset):
    fixture = request.getfixturevalue(preset)
    assert hashlib.sha256(fixture["features"].read_bytes()).hexdigest() == PRESET_FEATURE_CSVS[preset]
    # The fixture extracted with as many workers as this machine gives it;
    # one worker and two must write the same bytes.
    for cpus in (1, 2):
        _force_cpus(monkeypatch, cpus)
        out = tmp_path / f"features-{cpus}.csv"
        assert main(["extract", "--apk-dir", str(fixture["dir"]), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PRESET_FEATURE_CSVS[preset]


# The SHA-256 of the verdict CSV that `strobe praguard-check` writes for the
# stripped preset's corpus.
STRIPPED_VERDICTS = "8e63430a497576965741aa5f78f2862d3d504d63b59318a49fc847105e740339"


def test_praguard_check_verdicts_on_the_stripped_preset_are_pinned(stripped, monkeypatch, tmp_path, capsys):
    for cpus in (1, 2):
        _force_cpus(monkeypatch, cpus)
        out = tmp_path / f"verdicts-{cpus}.csv"
        assert main(["praguard-check", "--apk-dir", str(stripped["dir"]), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == STRIPPED_VERDICTS
        assert capsys.readouterr().err == "flagged SE: 200/400; zero-string fraction among flagged: 100.0%\n"


class _InlinePool:
    """Stands in for ProcessPoolExecutor, mapping in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("fixture, cpus, workers", [
    ("wide_corpus_dir", 100000, [3]),
    ("wide_corpus_dir", 2, [2]),
    ("corpus_dir", 100000, []),  # one chunk is read in this process
])
def test_extract_starts_no_more_workers_than_chunks(request, monkeypatch, tmp_path,
                                                     fixture, cpus, workers):
    corpus = request.getfixturevalue(fixture)
    sizes = []

    def pool(max_workers):
        sizes.append(max_workers)
        return _InlinePool()

    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    serial, capped = tmp_path / "serial.csv", tmp_path / "capped.csv"
    _force_cpus(monkeypatch, 1)
    assert main(["extract", "--apk-dir", str(corpus), "--out", str(serial)]) == 0
    _force_cpus(monkeypatch, cpus)
    assert main(["extract", "--apk-dir", str(corpus), "--out", str(capped)]) == 0
    assert sizes == workers
    assert serial.read_bytes() == capped.read_bytes()


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
                                  json.dumps({"scheme": 5}),
                                  # A value of the right type, out of its range.
                                  json.dumps({"samples_per_family": [0, 3]}),
                                  json.dumps({"identifiers_per_app": [0, 5]}),
                                  json.dumps({"skew": -0.5}),
                                  json.dumps({"mixed_family_fraction": 1.5}),
                                  json.dumps({"fingerprint_strength": -1.0}),
                                  # An integer too large for a float, which passed as finite.
                                  pytest.param('{"skew": 1%s, "n_families": 2, "samples_per_family": [1, 2]}'
                                               % ("0" * 400), id="skew-too-large-for-a-float"),
                                  pytest.param('{"fingerprint_strength": 1%s}' % ("0" * 400),
                                               id="fingerprint_strength-too-large-for-a-float")])
def test_a_bad_synth_config_is_a_typed_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"
    assert not (tmp_path / "c").exists()


def test_synth_with_more_identifiers_than_names_is_a_typed_error(tmp_path, capsys):
    # Without the bound this config passes validate and generation never
    # ends, so the CLI runs only once validate is seen to reject it.
    bounds = (600, 600)
    with pytest.raises(InvalidConfig):
        SynthConfig(n_families=2, samples_per_family=(1, 1), identifiers_per_app=bounds, seed=1).validate()
    out = tmp_path / "c"
    assert main(["synth", "--n-families", "2", "--samples-per-family", "1", "1", "--seed", "1",
                 "--identifiers-per-app", *map(str, bounds), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidConfig"
    assert not (out / "manifest.csv").exists()


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


@pytest.mark.parametrize("seed", ["9", "42"])
def test_split_lofo_rejects_seed(features_csv, tmp_path, capsys, seed):
    # LOFO folds draw nothing at random, so a seed would be read and ignored.
    out = tmp_path / "lofo.json"
    assert main(["split", "--manifest", str(features_csv), "--strategy", "lofo",
                 "--seed", seed, "--out", str(out)]) == 1
    assert not out.exists() and capsys.readouterr().out == ""


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


@pytest.mark.parametrize("learner", [["batch"], ["batch", "--grid"], ["online"]],
                         ids=["batch", "batch-grid", "online"])
def test_train_on_a_split_then_eval_is_a_holdout(confounded, tmp_path, learner):
    # README's single-split recipe on the frozen corpus.
    features = str(confounded["features"])
    split, model, out = tmp_path / "split.json", tmp_path / "model.json", tmp_path / "eval.json"
    assert main(["split", "--manifest", features, "--strategy", "family-disjoint", "--seed", "7",
                 "--out", str(split)]) == 0
    assert main(["train", "--manifest", features, "--learner", *learner,
                 "--split", str(split), "--out", str(model)]) == 0
    assert main(["eval", "--manifest", features, "--model", str(model),
                 "--split", str(split), "--out", str(out)]) == 0
    corpus = confounded["corpus"]
    sides = load_split(split)
    train, test = corpus.rows(sides.train_ids), corpus.rows(sides.test_ids)
    X, y = corpus.X[train], corpus.y[train]
    if learner == ["online"]:
        expected = online_train(X, y, seed=42)
    elif learner == ["batch"]:
        expected = batch_train(X, y, seed=42)
    else:
        expected = batch_train(X, y, grid_search(corpus.by_ids(sides.train_ids), seed=42), seed=42)
    assert json.loads(model.read_text()) == json.loads(json.dumps(model_to_json(expected)))
    want = holdout_eval(expected, corpus.X[test], corpus.y[test]).to_json()
    assert out.read_text() == json.dumps(want, indent=2) + "\n"


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
    # split reads no features, so it takes either manifest form.
    outputs = []
    for source in (manifest, features):
        out = tmp_path / f"split-{source.stem}.json"
        assert main(["split", "--strategy", "family-disjoint", "--manifest", str(source), "--seed", "3",
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    out = tmp_path / "experiment.json"
    assert main(["experiment", "--strategy", "family-disjoint", "--learner", "batch", "--reps", "3",
                 "--manifest", str(features), "--seed", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["repetitions"] == 3


def test_extract_strict_omits_the_row_with_decode_failures(dodgy_corpus, tmp_path):
    root, dodgy = dodgy_corpus
    kept, strict = tmp_path / "kept.csv", tmp_path / "strict.csv"
    assert main(["extract", "--apk-dir", str(root), "--out", str(kept)]) == 0
    assert main(["extract", "--apk-dir", str(root), "--strict", "--out", str(strict)]) == 0
    rows = kept.read_text().splitlines()
    dodgy_row = next(row for row in rows if row.startswith(dodgy + ","))
    assert dodgy_row.endswith(",1")  # decode_failures
    assert strict.read_text().splitlines() == [row for row in rows if row != dodgy_row]


def test_experiment_on_the_strict_csv_equals_the_hand_cleaned_csv(dodgy_corpus, tmp_path):
    # experiment on extract --strict's CSV is experiment on the CSV without the dodgy row.
    root, dodgy = dodgy_corpus
    features, strict, clean = tmp_path / "all.csv", tmp_path / "strict.csv", tmp_path / "clean.csv"
    assert main(["extract", "--apk-dir", str(root), "--out", str(features)]) == 0
    assert main(["extract", "--apk-dir", str(root), "--strict", "--out", str(strict)]) == 0
    lines = features.read_text().splitlines(keepends=True)
    clean.write_text("".join(line for line in lines if not line.startswith(dodgy + ",")))
    outputs = {}
    for manifest in (features, strict, clean):
        out = tmp_path / f"{manifest.stem}.json"
        assert main(["experiment", "--strategy", "random", "--learner", "batch", "--reps", "3",
                     "--seed", "3", "--manifest", str(manifest), "--out", str(out)]) == 0
        outputs[manifest.stem] = out.read_bytes()
    assert outputs["strict"] == outputs["clean"] != outputs["all"]


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
    # The first APK is corrupt, so a threshold checked only after reading would fail with NotAZip.
    root = tmp_path / "corpus"
    shutil.copytree(corpus_dir, root)
    sorted(root.rglob("*.apk"))[0].write_bytes(b"not a zip")
    out = tmp_path / "verdicts.csv"
    assert main(["praguard-check", "--apk-dir", str(root), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NotAZip"
    assert main(["praguard-check", "--apk-dir", str(root), "--max-strings", "-1",
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


@pytest.fixture(scope="module")
def model_and_split(features_csv, tmp_path_factory):
    """A batch model trained on the CLI feature CSV, and a random split of it."""
    root = tmp_path_factory.mktemp("model_and_split")
    model, split = root / "model.json", root / "split.json"
    assert main(["train", "--manifest", str(features_csv), "--learner", "batch",
                 "--out", str(model)]) == 0
    assert main(["split", "--manifest", str(features_csv), "--strategy", "random",
                 "--out", str(split)]) == 0
    return model, split


def _feature_rows(keep):
    """A feature CSV of the header and the rows of the CLI corpus that keep(row_no, row) keeps."""
    return lambda features: b"".join(line for i, line in enumerate(features.splitlines(keepends=True))
                                     if i == 0 or keep(i, line))


_PATH_MANIFEST = b"sample_id,family,label,path\n"


def _lists_an_apk(features):
    """A path manifest whose one row names an x.apk that does not exist."""
    return _PATH_MANIFEST + b"s1,fam,SE,x.apk\n"


# Ways to break the manifest a command reads: the command's flags (MANIFEST,
# MANIFEST_DIR and EMPTY stand for the manifest, the directory that holds it
# as manifest.csv and an empty directory; MODEL and SPLIT for a working
# model and split), the manifest's bytes from the CLI feature CSV's, the
# error and the exit code.
BROKEN_MANIFESTS = {
    "split-row-not-utf8": (["split", "--manifest", "MANIFEST", "--strategy", "random"],
                           lambda f: _PATH_MANIFEST + b"s1,fam\xff,SE,x.apk\n", "BadValue", 3),
    "split-header-not-utf8": (["split", "--manifest", "MANIFEST", "--strategy", "random"],
                              lambda f: b"sample_id,fam\xffily,label,path\ns1,f,SE,x.apk\n",
                              "BadValue", 3),
    "extract-manifest-not-utf8": (["extract", "--apk-dir", "MANIFEST_DIR"],
                                  lambda f: _PATH_MANIFEST + b"s1,fam\xff,SE,x.apk\n", "BadValue", 3),
    "experiment-features-not-utf8": (["experiment", "--manifest", "MANIFEST", "--strategy", "random",
                                      "--learner", "batch", "--reps", "2"],
                                     lambda f: f.replace(b",fam0", b",f\xffm0", 1), "BadValue", 3),
    "split-field-too-large": (["split", "--manifest", "MANIFEST", "--strategy", "random"],
                              lambda f: _PATH_MANIFEST + b"s1," + b"f" * 200_000 + b",SE,x.apk\n",
                              "BadValue", 3),
    "split-empty-file": (["split", "--manifest", "MANIFEST", "--strategy", "random"],
                         lambda f: b"", "BadHeader", 3),
    "split-short-row": (["split", "--manifest", "MANIFEST", "--strategy", "random"],
                        lambda f: _PATH_MANIFEST + b"s1,fam,SE\n", "BadHeader", 3),
    "train-grid-more-folds-than-rows": (["train", "--manifest", "MANIFEST", "--learner", "batch",
                                         "--grid", "--folds", "3"],
                                        _feature_rows(lambda i, row: i <= 2), "TooSmall", 3),
    "train-grid-one-class": (["train", "--manifest", "MANIFEST", "--learner", "batch", "--grid"],
                             _feature_rows(lambda i, row: b",NOT_SE," not in row), "SingleClass", 3),
    # The five evaluation subcommands read features only: a path manifest is
    # refused before its missing x.apk is opened.
    "train-batch-path-manifest": (["train", "--manifest", "MANIFEST", "--learner", "batch"],
                                  _lists_an_apk, "BadValue", 3),
    "train-online-path-manifest": (["train", "--manifest", "MANIFEST", "--learner", "online"],
                                   _lists_an_apk, "BadValue", 3),
    "eval-path-manifest": (["eval", "--manifest", "MANIFEST", "--model", "MODEL", "--split", "SPLIT"],
                           _lists_an_apk, "BadValue", 3),
    "prequential-path-manifest": (["prequential", "--manifest", "MANIFEST"], _lists_an_apk, "BadValue", 3),
    "lofo-path-manifest": (["lofo", "--manifest", "MANIFEST", "--learner", "online"],
                           _lists_an_apk, "BadValue", 3),
    "experiment-path-manifest": (["experiment", "--manifest", "MANIFEST", "--strategy", "random",
                                  "--learner", "batch", "--reps", "2"], _lists_an_apk, "BadValue", 3),
    "extract-missing-apk": (["extract", "--apk-dir", "MANIFEST_DIR"], _lists_an_apk,
                            "FileNotFoundError", 4),
    "extract-feature-manifest": (["extract", "--apk-dir", "MANIFEST_DIR"],
                                 lambda f: f, "_UsageError", 1),
    "extract-no-apks": (["extract", "--apk-dir", "EMPTY"], lambda f: f, "_UsageError", 1),
}


@pytest.mark.parametrize("case", BROKEN_MANIFESTS)
def test_a_broken_manifest_is_a_typed_error(features_csv, model_and_split, tmp_path, capsys, case):
    flags, manifest_bytes, error, code = BROKEN_MANIFESTS[case]
    manifest, empty, out = tmp_path / "manifest.csv", tmp_path / "empty", tmp_path / "out"
    manifest.write_bytes(manifest_bytes(features_csv.read_bytes()))
    empty.mkdir()
    model, split = model_and_split
    places = {"MANIFEST": str(manifest), "MANIFEST_DIR": str(tmp_path), "EMPTY": str(empty),
              "MODEL": str(model), "SPLIT": str(split)}
    assert main([places.get(flag, flag) for flag in flags] + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert (json.loads(lines[0])["error"], json.loads(lines[0])["exit_code"]) == (error, code)
    assert captured.out == "" and not out.exists()


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


@pytest.mark.parametrize("side", ["train", "test"])
def test_train_rejects_a_split_with_unknown_ids(features_csv, tmp_path, capsys, side):
    first, *rest = sorted(s.sample_id for s in load_manifest(features_csv).samples)
    sides = {"train": frozenset(rest), "test": frozenset({first})}
    sides[side] |= {"ghost1"}
    split, model = tmp_path / "s.json", tmp_path / "m.json"
    split.write_text(json.dumps(Split(sides["train"], sides["test"], SplitStrategy.RANDOM, 0).to_json()))
    assert main(["train", "--manifest", str(features_csv), "--learner", "batch",
                 "--split", str(split), "--out", str(model)]) == 3
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "UnknownId"
    assert not model.exists()


def _without(key):
    return lambda obj: json.dumps({k: v for k, v in obj.items() if k != key})


def _narrow_online_model(obj):
    """An online model whose members' mean and m2 rows are 3 features wide."""
    online = model_to_json(online_init(k=2, seed=0))
    for member in online["learners"]:
        member["mean"], member["m2"] = ([row[:3] for row in member[key]] for key in ("mean", "m2"))
    return json.dumps(online)


def _online_model_with_float_counts(obj):
    """An online model whose first member's counts are not integers."""
    online = model_to_json(online_init(k=2, seed=0))
    online["learners"][0]["counts"] = [1.7, 2.2]
    return json.dumps(online)


def _online_model_with(key, value):
    """An online model whose field key holds value."""
    return lambda obj: json.dumps({**model_to_json(online_init(k=2, seed=0)), key: value})


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
    # The int64 conversion would truncate them to [1, 2].
    "model-online-float-counts": ("model", _online_model_with_float_counts, "BadConfig"),
    "model-epochs-a-string": ("model", lambda obj: json.dumps(
        {**obj, "hyperparams": {**obj["hyperparams"], "epochs": "x"}}), "BadConfig"),
    # A missing hyperparameter would load as its training default.
    "model-hyperparams-empty": ("model", lambda obj: json.dumps({**obj, "hyperparams": {}}), "BadConfig"),
    "model-hyperparams-no-epochs": ("model", lambda obj: json.dumps(
        {**obj, "hyperparams": {k: v for k, v in obj["hyperparams"].items() if k != "epochs"}}),
                                    "BadConfig"),
    # An integer literal too large for a double overflows where 1e400 would read as inf.
    "model-bias-out-of-range": ("model", lambda obj: json.dumps({**obj, "bias": 10**400}), "BadConfig"),
    # float() and numpy would convert each of these, or truncate it.
    "model-weights-strings": ("model", lambda obj: json.dumps(
        {**obj, "weights": [str(w) for w in obj["weights"]]}), "BadConfig"),
    "model-weights-bools": ("model", lambda obj: json.dumps({**obj, "weights": [True] * 8}),
                            "BadConfig"),
    "model-scaler-mean-bools": ("model", lambda obj: json.dumps(
        {**obj, "scaler": {**obj["scaler"], "mean": [True] * 8}}), "BadConfig"),
    "model-bias-a-bool": ("model", lambda obj: json.dumps({**obj, "bias": True}), "BadConfig"),
    "model-bias-a-string": ("model", lambda obj: json.dumps({**obj, "bias": "0.5"}), "BadConfig"),
    "model-online-float-seed": ("model", _online_model_with("seed", 1.7), "BadConfig"),
    "model-online-n_draws-a-string": ("model", _online_model_with("n_draws", "40"), "BadConfig"),
    "model-online-lambda-a-bool": ("model", _online_model_with("lam_poisson", True), "BadConfig"),
    "model-unknown-kind": ("model", lambda obj: json.dumps({**obj, "kind": "forest"}), "BadConfig"),
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
    "extract": {"--apk-dir", "--strict", "--out"},
    "synth": {"--config", "--preset", "--n-families", "--samples-per-family", "--skew",
              "--se-family-fraction", "--mixed-family-fraction", "--fingerprint-strength",
              "--se-string-fraction", "--strings-per-app", "--identifiers-per-app", "--scheme",
              "--seed", "--out"},
    "split": {"--manifest", "--strategy", "--seed", "--out"},
    "train": {"--manifest", "--learner", "--split", "--grid", "--folds", "--k", "--poisson-lambda",
              "--seed", "--out"},
    "eval": {"--manifest", "--model", "--split", "--side", "--format", "--out"},
    "prequential": {"--manifest", "--k", "--poisson-lambda", "--seed", "--out"},
    "lofo": {"--manifest", "--learner", "--seed", "--out"},
    "experiment": {"--manifest", "--strategy", "--learner", "--reps", "--csv", "--gnuplot",
                   "--seed", "--out"},
    "praguard-check": {"--apk-dir", "--max-strings", "--out"},
}

SHARED_FLAGS = {"--seed": "3", "--jobs": "2", "--format": "json", "--manifest": "manifest.csv"}

REMOVED_PAIRS = [(name, flag) for name in KEPT_OPTIONS for flag in SHARED_FLAGS
                 if flag not in KEPT_OPTIONS[name]]


def test_each_subcommand_takes_exactly_its_options():
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(KEPT_OPTIONS)
    for name, parser in subparsers.items():
        options = {s for action in parser._actions for s in action.option_strings}
        assert options - {"-h", "--help"} == KEPT_OPTIONS[name], name


@pytest.fixture(scope="module")
def valid_commands(corpus_dir, features_csv, model_and_split):
    """A working command line per subcommand, without its --out."""
    model, split = model_and_split
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
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(valid_commands, tmp_path, capsys, name, flag):
    ok, rejected = tmp_path / "ok", tmp_path / "rejected"
    assert main(valid_commands[name] + ["--out", str(ok)]) == 0
    assert ok.exists()
    capsys.readouterr()
    assert main(valid_commands[name] + [flag, SHARED_FLAGS[flag], "--out", str(rejected)]) == 1
    assert not rejected.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["exit_code"] == 1


def test_experiment_strict_is_a_usage_error(valid_commands, tmp_path, capsys):
    # extract --strict is the one way to drop the samples with decode failures.
    rejected = tmp_path / "rejected"
    assert main(valid_commands["experiment"] + ["--strict", "--out", str(rejected)]) == 1
    assert not rejected.exists()
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and json.loads(lines[0])["exit_code"] == 1


def test_a_path_manifest_error_names_extract(corpus_dir, tmp_path, capsys):
    # The corpus's own manifest.csv lists APKs that exist; experiment reads none of them.
    out = tmp_path / "exp.json"
    assert main(["experiment", "--manifest", str(corpus_dir / "manifest.csv"), "--strategy", "random",
                 "--learner", "batch", "--reps", "2", "--out", str(out)]) == 3
    assert "strobe extract" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


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


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    # The README's Python block, run where `strobe extract` has written the
    # features.csv of the corpus the block generates.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library use\n\n```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    monkeypatch.chdir(tmp_path)
    out, _ = gen_corpus(SynthConfig(n_families=10, seed=1), "corpus")
    assert main(["extract", "--apk-dir", str(out), "--out", "features.csv"]) == 0
    exec(compile(block, "README.md", "exec"), {})
    assert "EvalResult(" in capsys.readouterr().out
