import json

import pytest

from strobe.cli import main
from strobe.dataset import Split, SplitStrategy, load_manifest
from strobe.evaluation import LearnerKind, train_on_split
from strobe.learners import model_to_json
from strobe.synth import SynthConfig, gen_corpus


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


def test_extract_parallel_matches_serial(corpus_dir, tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    main(["extract", "--apk-dir", str(corpus_dir), "--out", str(serial)])
    main(["extract", "--apk-dir", str(corpus_dir), "--jobs", "3", "--out", str(parallel)])
    assert serial.read_bytes() == parallel.read_bytes()


def test_synth_cli_deterministic(tmp_path):
    args = ["synth", "--n-families", "3", "--samples-per-family", "2", "4",
            "--strings-per-app", "5", "9", "--seed", "21"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = sorted((tmp_path / "a").rglob("*.apk"))
    b = sorted((tmp_path / "b").rglob("*.apk"))
    assert [p.name for p in a] == [p.name for p in b]
    assert all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b))


def test_synth_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_families": 3, "samples_per_family": [2, 3], "seed": 5}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    corpus = load_manifest(tmp_path / "c" / "manifest.csv")
    assert len(corpus.family_index) == 3


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
                 "--k", "5", "--poisson-lambda", "3.0", "--seed", "4",
                 "--out", str(model)]) == 0
    corpus = load_manifest(features_csv)
    everything = Split(train_ids=frozenset(s.sample_id for s in corpus.samples),
                       test_ids=frozenset(), strategy=SplitStrategy.RANDOM, seed=4)
    expected = train_on_split(corpus, everything, LearnerKind.ONLINE, seed=4,
                              ensemble=5, lam_poisson=3.0)
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


def test_prequential_cli(features_csv, tmp_path):
    out = tmp_path / "preq.json"
    assert main(["prequential", "--manifest", str(features_csv), "--seed", "7",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == len(payload["running_accuracy"])
    assert payload["final_accuracy"] == payload["running_accuracy"][-1]


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


def test_stats_cli(features_csv, tmp_path):
    per_run = tmp_path / "runs.csv"
    main(["experiment", "--manifest", str(features_csv), "--strategy", "random",
          "--learner", "batch", "--reps", "4", "--seed", "6",
          "--out", str(tmp_path / "x.json"), "--csv", str(per_run)])
    out = tmp_path / "box.json"
    assert main(["stats", "--input", str(per_run), "--column", "accuracy",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["q1"] <= payload["median"] <= payload["q3"]


def test_praguard_check_cli(tmp_path, capsys):
    cfg = SynthConfig(n_families=4, samples_per_family=(3, 5), scheme="STRIP_ALL",
                      mixed_family_fraction=0.0, strings_per_app=(10, 14), seed=31)
    corpus_dir, _ = gen_corpus(cfg, tmp_path / "strip")
    out = tmp_path / "verdicts.csv"
    assert main(["praguard-check", "--apk-dir", str(corpus_dir), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sample_id,n_strings,verdict"
    assert any(line.endswith(",SE") for line in lines[1:])
    assert "zero-string fraction among flagged: 100.0%" in capsys.readouterr().out


def test_exit_code_usage_error():
    assert main(["extract", "--no-such-flag"]) == 1
    assert main(["synth"]) == 1  # missing --out


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
