"""Span tracer for the benchmark's traced run.

The library is not instrumented. Instead, `Tracer.installed()` replaces each
layer's public functions, in the namespace where their callers look them up,
by wrappers that record a span (name, start, end, parent, trace id) per call,
and restores the originals on exit. The untraced run never calls it.

Calls that run a hundred thousand times a pass (the MUTF-8 codec, the online
learner's per-sample update and vote, per-sample prediction) are aggregated
per parent span instead of recorded one by one, which keeps memory and
overhead bounded. `GaussianBaseLearner.observe` is not wrapped at all; the
Poisson draw and replay counts are read from the trained models instead.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from strobe import apk, dataset, dex, evaluation, features, learners, synth
from strobe.dataset import MAX_SPLIT_RETRIES
from strobe.errors import Degenerate
from strobe.learners import OnlineModel


def _online_model_counts(tracer: "Tracer", model) -> None:
    if isinstance(model, OnlineModel):
        tracer.counters["learners.poisson_draws"] += model.n_draws
        tracer.counters["learners.replays"] += int(sum(m.counts.sum() for m in model.learners))


def _after_write_apk(tracer, args, result):
    tracer.counters["synth.bytes_written"] += Path(args[0]).stat().st_size


def _after_parse_dex(tracer, args, result):
    tracer.counters["dex.strings_parsed"] += len(result.strings)


def _after_list_dex_entries(tracer, args, result):
    tracer.counters["apk.bytes_read"] += len(args[0])


def _after_extract_app_strings(tracer, args, result):
    tracer.counters["apk.dex_files"] += result.dex_count


def _after_feature_vector(tracer, args, result):
    tracer.counters["features.strings"] += result.n_strings


def _after_random_split(tracer, args, result):
    tracer.counters["dataset.split_attempts"] += 1
    tracer.counters["dataset.splits_accepted"] += 1


def _after_family_disjoint_split(tracer, args, result):
    tracer.counters["dataset.split_attempts"] += result.retries + 1
    tracer.counters["dataset.splits_accepted"] += 1


def _error_family_disjoint_split(tracer, exc):
    if isinstance(exc, Degenerate):
        tracer.counters["dataset.split_attempts"] += MAX_SPLIT_RETRIES


def _after_train_on_split(tracer, args, result):
    _online_model_counts(tracer, result)


def _after_prequential_eval(tracer, args, result):
    _online_model_counts(tracer, args[0])


def _after_run_experiment(tracer, args, result):
    tracer.counters["evaluation.reps_skipped"] += sum(r.skipped for r in result.per_run)


# (owner, attribute, span name, after-hook, error-hook); a function imported
# by name into several modules is patched in each of them.
SPANS = [
    (synth, "gen_corpus", "synth.gen_corpus", None, None),
    (synth, "build_dex", "synth.build_dex", None, None),
    (synth, "write_apk", "synth.write_apk", _after_write_apk, None),
    (apk, "extract_app_strings", "apk.extract_app_strings", _after_extract_app_strings, None),
    (apk, "list_dex_entries", "apk.list_dex_entries", _after_list_dex_entries, None),
    (apk, "parse_dex", "dex.parse_dex", _after_parse_dex, None),
    (apk, "classify_strings", "dex.classify_strings", None, None),
    (features, "feature_vector", "features.feature_vector", _after_feature_vector, None),
    (dataset, "load_manifest", "dataset.load_manifest", None, None),
    (dataset, "family_disjoint_split", "dataset.family_disjoint_split",
     _after_family_disjoint_split, _error_family_disjoint_split),
    (dataset.Corpus, "by_ids", "dataset.by_ids", None, None),
    (evaluation, "random_split", "dataset.random_split", _after_random_split, None),
    (evaluation, "family_disjoint_split", "dataset.family_disjoint_split",
     _after_family_disjoint_split, _error_family_disjoint_split),
    (evaluation, "validate_split", "dataset.validate_split", None, None),
    (evaluation, "lofo_splits", "dataset.lofo_splits", None, None),
    (evaluation, "batch_train", "learners.batch_train", None, None),
    (learners, "batch_train", "learners.batch_train", None, None),
    (learners, "grid_search", "learners.grid_search", None, None),
    (evaluation, "run_experiment", "evaluation.run_experiment", _after_run_experiment, None),
    (evaluation, "train_on_split", "evaluation.train_on_split", _after_train_on_split, None),
    (evaluation, "holdout_eval", "evaluation.holdout_eval", None, None),
    (evaluation, "prequential_eval", "evaluation.prequential_eval", _after_prequential_eval, None),
    (evaluation, "run_lofo", "evaluation.run_lofo", None, None),
]

# (owner, attribute, aggregate name, count the first argument's bytes)
HOT = [
    (synth, "encode_mutf8", "mutf8.encode_mutf8", False),
    (dex, "decode_mutf8", "mutf8.decode_mutf8", True),
    (evaluation, "predict", "learners.predict", False),
    (learners, "predict", "learners.predict", False),
    (evaluation, "online_update", "learners.online_update", False),
    (evaluation, "online_predict", "learners.online_predict", False),
]


class Tracer:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self) -> None:
        # Each span is [name, start_ns, end_ns, parent index or -1, trace id,
        # error]; finished spans are frozen to tuples, which the garbage
        # collector stops scanning.
        self.spans: list = []
        # (parent index, name) -> [calls, busy_ns, errors, bytes]
        self.hot: dict[tuple[int, str], list[int]] = {}
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._next_trace = 0

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, after, on_error in SPANS:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._span(name, getattr(owner, attr), after, on_error))
            for owner, attr, name, count_bytes in HOT:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._aggregate(name, getattr(owner, attr), count_bytes))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _span(self, name, fn, after, on_error):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack:
                parent, trace_id = stack[-1], spans[stack[-1]][4]
            else:
                parent, trace_id = -1, self._next_trace
                self._next_trace += 1
            record = [name, perf_counter_ns(), 0, parent, trace_id, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                record[2] = perf_counter_ns()
                spans[stack.pop()] = tuple(record)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def _aggregate(self, name, fn, count_bytes):
        hot, stack = self.hot, self._stack

        def traced(*args, **kwargs):
            key = (stack[-1] if stack else -1, name)
            entry = hot.get(key)
            if entry is None:
                entry = hot[key] = [0, 0, 0, 0]
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                entry[2] += 1
                raise
            finally:
                entry[1] += perf_counter_ns() - start
                entry[0] += 1
                if count_bytes:
                    entry[3] += len(args[0])

        return traced

    # ------------------------------------------------------------------
    # Summaries

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (inclusive), self_s (busy minus child spans) and
        errors per span or aggregate name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (parent, _), (_, busy, _, _) in self.hot.items():
            if parent >= 0:
                child_ns[parent] += busy

        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0, "bytes": 0})
        for i, (name, start, end, _, _, error) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
            row["errors"] += error is not None
        for (_, name), (calls, busy, errors, nbytes) in self.hot.items():
            row = out[name]
            row["calls"] += calls
            row["busy_s"] += busy / 1e9
            row["self_s"] += busy / 1e9
            row["errors"] += errors
            row["bytes"] += nbytes
        return dict(out)

    def grid_fit_counts(self) -> tuple[int, int]:
        """(fits attempted, fits that trained) directly under grid_search."""
        attempted = valid = 0
        for name, _, _, parent, _, error in self.spans:
            if name == "learners.batch_train" and parent >= 0 \
                    and self.spans[parent][0] == "learners.grid_search":
                attempted += 1
                valid += error is None
        return attempted, valid

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit).

        A layer the workload never calls reports 0 calls and 0 s; a ratio
        with nothing attempted reports 0.
        """
        rows = self.per_name()
        zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0, "bytes": 0}

        def get(name: str, key: str) -> float:
            return rows.get(name, zero)[key]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {}

        def put(name: str, value: float, unit: str) -> None:
            m[name] = (value, unit)

        def timed(span: str, *keys: str) -> None:
            for key in keys:
                if key == "calls":
                    put(f"{span}.calls", get(span, "calls"), "count")
                else:
                    put(f"{span}.{key}", get(span, key), "s")

        c = self.counters
        timed("synth.gen_corpus", "busy_s")
        timed("synth.build_dex", "calls", "self_s")
        timed("synth.write_apk", "self_s")
        put("synth.bytes_written", c["synth.bytes_written"], "bytes")

        timed("mutf8.encode_mutf8", "calls", "busy_s")
        timed("mutf8.decode_mutf8", "calls", "busy_s")
        decodes = get("mutf8.decode_mutf8", "calls")
        put("mutf8.bytes_decoded", get("mutf8.decode_mutf8", "bytes"), "bytes")
        put("mutf8.decode_ok_ratio",
            ratio(decodes - get("mutf8.decode_mutf8", "errors"), decodes), "ratio")

        timed("dex.parse_dex", "calls", "self_s")
        timed("dex.classify_strings", "busy_s")
        put("dex.strings_parsed", c["dex.strings_parsed"], "count")

        timed("apk.extract_app_strings", "busy_s")
        timed("apk.list_dex_entries", "busy_s")
        put("apk.bytes_read", c["apk.bytes_read"], "bytes")
        put("apk.dex_per_app",
            ratio(c["apk.dex_files"], get("apk.extract_app_strings", "calls")), "ratio")

        timed("features.feature_vector", "busy_s")
        put("features.strings", c["features.strings"], "count")

        timed("dataset.load_manifest", "busy_s")
        timed("dataset.random_split", "busy_s")
        timed("dataset.family_disjoint_split", "busy_s")
        put("dataset.split_attempts", c["dataset.split_attempts"], "count")
        put("dataset.split_accept_ratio",
            ratio(c["dataset.splits_accepted"], c["dataset.split_attempts"]), "ratio")
        timed("dataset.validate_split", "busy_s")
        timed("dataset.by_ids", "calls", "busy_s")
        timed("dataset.lofo_splits", "busy_s")

        timed("learners.batch_train", "calls", "self_s")
        timed("learners.predict", "calls", "busy_s")
        timed("learners.grid_search", "self_s")
        attempted, valid = self.grid_fit_counts()
        put("learners.grid_valid_fit_ratio", ratio(valid, attempted), "ratio")
        timed("learners.online_update", "calls", "busy_s")
        put("learners.poisson_draws", c["learners.poisson_draws"], "count")
        put("learners.replays", c["learners.replays"], "count")
        timed("learners.online_predict", "calls", "busy_s")

        timed("evaluation.run_experiment", "busy_s")
        timed("evaluation.train_on_split", "self_s")
        timed("evaluation.holdout_eval", "self_s")
        put("evaluation.reps_skipped", c["evaluation.reps_skipped"], "count")
        timed("evaluation.prequential_eval", "self_s")
        timed("evaluation.run_lofo", "self_s")
        return m

    def write(self, path: Path) -> None:
        """Write spans, then per-parent aggregates, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, trace_id, error) in enumerate(self.spans):
                fh.write(json.dumps({
                    "span": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "trace_id": trace_id, "error": error,
                }) + "\n")
            for (parent, name), (calls, busy, errors, nbytes) in sorted(self.hot.items()):
                fh.write(json.dumps({
                    "aggregate": name, "parent": parent, "calls": calls,
                    "busy_ns": busy, "errors": errors, "bytes": nbytes,
                }) + "\n")
