"""strobe: string-encryption detection for Android apps, with leakage-aware
evaluation and a synthetic DEX/APK corpus generator."""

__version__ = "0.1.0"

from .apk import AppStrings, extract_app_strings, list_dex_entries
from .dataset import (
    Corpus,
    Label,
    Sample,
    Split,
    SplitStrategy,
    family_disjoint_split,
    load_manifest,
    lofo_folds,
    lofo_splits,
    random_split,
    validate_split,
)
from .dex import DexFile, classify_strings, parse_dex
from .evaluation import (
    BoxStats,
    EvalResult,
    LearnerKind,
    box_stats,
    holdout_eval,
    prequential_eval,
    run_experiment,
    run_lofo,
)
from .features import FeatureVector, feature_vector, per_string_metrics, shannon_entropy
from .heuristic import detect_dexguard
from .learners import (
    BatchModel,
    HingeHyperparams,
    OnlineModel,
    Scaler,
    batch_train,
    fit_scaler,
    grid_search,
    online_fit,
    online_init,
    online_predict,
    online_train,
    online_update,
    predict,
)
from .mutf8 import decode_mutf8, encode_mutf8
from .synth import DexSpec, SynthConfig, build_dex, encrypt_string, gen_corpus

__all__ = [name for name in dir() if not name.startswith("_")]
