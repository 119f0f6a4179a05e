import base64
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strobe import features
from strobe.apk import AppStrings, extract_app_strings
from strobe.features import (
    FeatureVector,
    csv_row,
    feature_vector,
    feature_vector_from_strings,
    per_string_metrics,
    shannon_entropy,
)

from oracles import compensated_sum, loop_sum, reference_feature_means


def app(strings, app_id="t"):
    return AppStrings(app_id=app_id, non_identifier_strings=tuple(strings),
                      dex_count=1, decode_failures=0)


def test_entropy_units():
    assert shannon_entropy("aaaa") == 0.0
    assert shannon_entropy("ab") == 1.0
    assert shannon_entropy("abcd") == 2.0


def test_entropy_degenerate():
    assert shannon_entropy("") == 0.0
    assert shannon_entropy("x") == 0.0


def test_entropy_bounded_by_log_length():
    rng = random.Random(5)
    for _ in range(200):
        s = "".join(rng.choice("abcdefgh") for _ in range(rng.randrange(1, 30)))
        h = shannon_entropy(s)
        assert 0.0 <= h <= math.log2(len(s)) + 1e-12


def test_per_string_metrics_counts():
    m = per_string_metrics("a==b")
    assert (m.eq_count, m.length, m.repeat_count, m.wordsize) == (2, 4, 1, 4)


def test_per_string_metrics_empty():
    m = per_string_metrics("")
    assert (m.entropy, m.wordsize, m.length, m.eq_count, m.dash_count,
            m.slash_count, m.plus_count, m.repeat_count) == (0.0, 0, 0, 0, 0, 0, 0, 0)


def test_per_string_metrics_multibyte():
    m = per_string_metrics("Ω+")
    assert (m.wordsize, m.length, m.plus_count) == (3, 2, 1)


def test_feature_vector_simple_means():
    fv = feature_vector(app(["aa", "bb"]))
    assert fv.avg_entropy == 0.0
    assert fv.avg_length == 2.0
    assert fv.avg_repeat == 1.0
    assert fv.n_strings == 2


def test_zero_strings_all_zero():
    fv = feature_vector(app([]))
    assert fv == FeatureVector()
    assert fv.n_strings == 0


def test_permutation_and_duplication_invariance():
    strings = ["alpha", "beta=gamma", "x/y", "-dash-", "++"]
    base = feature_vector(app(strings))
    shuffled = feature_vector(app(list(reversed(strings))))
    doubled = feature_vector(app(strings * 2))
    for name in ("avg_entropy", "avg_wordsize", "avg_length", "avg_eq",
                 "avg_dash", "avg_slash", "avg_plus", "avg_repeat"):
        assert getattr(base, name) == getattr(shuffled, name)
        assert abs(getattr(base, name) - getattr(doubled, name)) < 1e-12


def test_brute_force_oracle_seeded():
    rng = random.Random(99)
    pool = "abcdefghijklmnopqrstuvwxyz =/-+Ωé\U0001F600"
    strings = ["".join(rng.choice(pool) for _ in range(rng.randrange(0, 40)))
               for _ in range(1000)]
    fv = feature_vector_from_strings(strings)
    expected = reference_feature_means(strings)
    for got, want in zip(fv.as_tuple(), expected):
        assert abs(got - want) <= 1e-9


def test_base64_sensitivity():
    rng = random.Random(21)
    words = ["".join(rng.choice("abcdefghijk") for _ in range(rng.randrange(3, 12)))
             for _ in range(300)]
    plain = feature_vector_from_strings(words)
    encoded = [base64.b64encode(bytes(rng.randrange(256) for _ in range(len(w)))).decode()
               for w in words]
    obf = feature_vector_from_strings(encoded)
    assert obf.avg_entropy > plain.avg_entropy
    assert obf.avg_eq >= 0 and obf.avg_plus >= 0 and obf.avg_slash >= 0
    assert any(len(w) % 3 for w in words)
    assert obf.avg_eq > 0


def test_csv_row_formats_nine_significant_digits():
    fv = feature_vector(app(["abc", "a=c"]))
    row = csv_row("s1", "famX", "SE", fv, 2)
    assert row[0:3] == ["s1", "famX", "SE"]
    assert row[3] == f"{fv.avg_entropy:.9g}"
    assert row[-2:] == ["2", "2"]


def metric_means_hex(strings) -> list[str]:
    """The means of per_string_metrics over strings, bit for bit (float.hex
    shows a signed zero that == does not), and the string count."""
    metrics = [per_string_metrics(s) for s in strings]
    n = len(metrics)
    columns = zip(*((m.entropy, m.wordsize, m.length, m.eq_count, m.dash_count,
                     m.slash_count, m.plus_count, m.repeat_count) for m in metrics))
    return [(loop_sum(col) / n).hex() for col in columns] + [str(n)]


def vector_hex(strings) -> list[str]:
    fv = feature_vector_from_strings(strings)
    return [v.hex() for v in fv.as_tuple()] + [str(fv.n_strings)]


def test_feature_means_bit_equal_to_per_string_metrics():
    # The vector is computed over the joined strings, with one count dict
    # per string and entropy terms read from the _TERMS memo; it must equal
    # the plain means of per_string_metrics exactly, not merely within a
    # tolerance.
    rng = random.Random(31)
    bmp = "abcxyz =/-+Ωé€\uffff"
    astral = bmp + "\U0001F600\U00010000\U0010FFFF"
    for pool in (bmp, astral):
        for _ in range(50):
            strings = ["".join(rng.choice(pool) for _ in range(rng.randrange(0, 30)))
                       for _ in range(rng.randrange(1, 40))]
            assert vector_hex(strings) == metric_means_hex(strings)
    assert feature_vector_from_strings([]) == FeatureVector()


def test_feature_means_bit_equal_on_edge_strings():
    rng = random.Random(32)
    wide = "".join(map(chr, range(0x21, 0x7F))) + "Ωé€\uffff\U0001F600\U00010000"
    long_strings = ["".join(rng.choice(wide) for _ in range(n)) for n in (128, 129, 255, 1000)]
    long_strings.append(base64.b64encode(bytes(range(256))).decode())
    cases = [[""], ["x"], ["aaaa"], ["", "x", "aaaa"], ["\U0001F600"],
             ["\U0001F600\U0001F600a", "\U00010000\uffff"], long_strings,
             long_strings + ["", "aaaa", "\U0001F600"]]
    for strings in cases:
        assert vector_hex(strings) == metric_means_hex(strings), strings
    # A string of one repeated character has entropy -0.0, the negated sum
    # of one 0.0 term.
    assert per_string_metrics("aaaa").entropy.hex() == (-0.0).hex()


def test_lone_surrogates_fail_as_per_string_metrics_does():
    # decode_mutf8 never yields a lone surrogate; neither path measures one.
    for s in ("\ud800", "a\udc00b"):
        with pytest.raises(UnicodeEncodeError):
            per_string_metrics(s)
        with pytest.raises(UnicodeEncodeError):
            feature_vector_from_strings(["ok", s])


def test_feature_means_bit_equal_on_every_app_of_the_frozen_corpus(confounded):
    n_apps = 0
    for path in sorted(confounded["dir"].rglob("*.apk")):
        strings = extract_app_strings(path).non_identifier_strings
        if strings:
            assert vector_hex(strings) == metric_means_hex(strings), path.name
        n_apps += 1
    assert n_apps == len(confounded["corpus"].samples)


# ASCII, the rest of the BMP and astral characters, but no lone surrogate,
# which decode_mutf8 never yields. Most characters come from a small pool, so
# that counts above one, and so many (count, length) pairs, are common.
_CHAR = (st.characters(max_codepoint=0x7F)
         | st.characters(min_codepoint=0x80, max_codepoint=0xFFFF, exclude_categories=("Cs",))
         | st.characters(min_codepoint=0x10000))
_STRING_LISTS = st.lists(_CHAR, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.text(st.sampled_from(pool) | _CHAR, max_size=300),
                          min_size=1, max_size=12))


def memo_pairs() -> set[tuple[int, int]]:
    return {(c, n) for n, row in features._TERMS.items() for c in row}


@given(strings=_STRING_LISTS)
def test_memoized_entropy_terms_bit_equal_to_per_string_metrics(strings):
    want = metric_means_hex(strings)
    features._TERMS.clear()
    assert vector_hex(strings) == want
    assert memo_pairs() == {(c, len(s)) for s in strings if len(s) > 1
                            for c in Counter(s).values()}
    assert vector_hex(strings) == want
    features._TERMS.clear()
    vector_hex(strings[::-1])
    assert vector_hex(strings) == want


# --- the summation rule -------------------------------------------------------

# Plain and compensated summation (the builtin sum of floats from Python 3.12)
# give other bits for the entropy terms of each of these strings, and for the
# sum of their three entropies.
ORDER_SENSITIVE = ["+b-=fhibfgf", "+f+-bdjdd/c/ihbbfihb", "ie+bif-id/jijehbj/gfjdec"]


def loop_entropy(s: str) -> float:
    """Entropy with its terms added in a loop, in first-appearance order."""
    n = len(s)
    total = 0
    for ch in dict.fromkeys(s):
        total += (s.count(ch) / n) * math.log2(s.count(ch) / n)
    return -total


def test_left_sum_is_the_plain_left_fold():
    # Both bodies, whichever one this interpreter picked.
    bodies = (features.left_sum, features._left_fold)
    assert features.left_sum is (sum if sys.version_info < (3, 12) else features._left_fold)
    cancel = [1.0, 1e100, 1.0, -1e100]
    assert loop_sum(cancel) == 0.0 and compensated_sum(cancel) == 2.0
    for body in bodies:
        assert body(cancel) == 0.0
        assert body(iter(cancel)) == 0.0
        # Started from the integer 0, so 0 + -0.0 is +0.0.
        assert body([-0.0]).hex() == (0.0).hex()
        assert body([]) == 0
    rng = random.Random(17)
    differs = 0
    for _ in range(500):
        values = [rng.uniform(-1, 1) * 10.0 ** rng.randrange(-20, 20) for _ in range(rng.randrange(1, 30))]
        want = loop_sum(values).hex()
        differs += compensated_sum(values).hex() != want
        for body in bodies:
            assert body(values).hex() == want
    assert differs > 100


def test_feature_vector_sums_left_to_right():
    entropies = [loop_entropy(s) for s in ORDER_SENSITIVE]
    for s, entropy in zip(ORDER_SENSITIVE, entropies):
        terms = [(s.count(ch) / len(s)) * math.log2(s.count(ch) / len(s)) for ch in dict.fromkeys(s)]
        assert (-compensated_sum(terms)).hex() != entropy.hex()
        assert shannon_entropy(s).hex() == entropy.hex()
        assert feature_vector_from_strings([s]).avg_entropy.hex() == entropy.hex()
    n = len(ORDER_SENSITIVE)
    want = loop_sum(entropies) / n
    assert (compensated_sum(entropies) / n).hex() != want.hex()
    for strings in (ORDER_SENSITIVE, tuple(ORDER_SENSITIVE)):
        features._TERMS.clear()
        assert feature_vector_from_strings(strings).avg_entropy.hex() == want.hex()
        assert feature_vector_from_strings(strings).avg_entropy.hex() == want.hex()
