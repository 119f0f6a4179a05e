import pytest
from hypothesis import settings

from strobe.cli import main
from strobe.dataset import load_manifest
from strobe.synth import confounded_preset, control_preset, gen_corpus, stripped_preset

# Property tests draw the same examples on every run and never time out, so
# the suite stays deterministic on a loaded machine.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=300, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def confounded(tmp_path_factory):
    """The frozen leakage corpus plus its extracted feature manifest."""
    root = tmp_path_factory.mktemp("confounded")
    out, _ = gen_corpus(confounded_preset(), root / "corpus")
    features = root / "features.csv"
    assert main(["extract", "--apk-dir", str(out), "--out", str(features)]) == 0
    return {"dir": out, "features": features, "corpus": load_manifest(features)}


@pytest.fixture(scope="session")
def control(tmp_path_factory):
    """The no-fingerprint, strong-signal control corpus."""
    root = tmp_path_factory.mktemp("control")
    out, _ = gen_corpus(control_preset(), root / "corpus")
    features = root / "features.csv"
    assert main(["extract", "--apk-dir", str(out), "--out", str(features)]) == 0
    return {"dir": out, "features": features, "corpus": load_manifest(features)}


@pytest.fixture(scope="session")
def stripped(tmp_path_factory):
    """Stripped SE apps mixed 50/50 with plaintext apps, and their feature CSV."""
    root = tmp_path_factory.mktemp("stripped")
    out, manifest = gen_corpus(stripped_preset(), root / "corpus")
    features = root / "features.csv"
    assert main(["extract", "--apk-dir", str(out), "--out", str(features)]) == 0
    return {"dir": out, "features": features, "corpus": load_manifest(manifest)}
