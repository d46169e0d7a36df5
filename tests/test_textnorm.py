from hypothesis import given, strategies as st

from arabner.textnorm import DEFAULT_STRIP_CODEPOINTS, normalize_text

DIACRITICS = [chr(c) for c in sorted(DEFAULT_STRIP_CODEPOINTS)]

# Arabic base letters plus a few marks that must NOT be stripped by default
BASE_LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
KEPT_MARKS = "ـٰٓ"  # tatweel, superscript alef, maddah


def test_default_strip_set_is_the_eight_marks():
    assert DEFAULT_STRIP_CODEPOINTS == frozenset(range(0x064B, 0x0653))
    assert len(DEFAULT_STRIP_CODEPOINTS) == 8


def test_paper_eyes_example():
    assert normalize_text("الْعَيْونُ") == "العيون"


def test_empty_and_identity():
    assert normalize_text("") == ""
    assert normalize_text("العيون") == "العيون"


def test_fully_vocalized_word():
    # expected output computed by filtering codepoints through the strip set
    word = "كِتَابٌ"
    expected = "".join(c for c in word if ord(c) not in DEFAULT_STRIP_CODEPOINTS)
    assert expected == "كتاب"
    assert normalize_text(word) == expected


def test_kept_marks_not_stripped():
    for c in KEPT_MARKS:
        assert normalize_text(f"ا{c}ب") == f"ا{c}ب"


arabic_text = st.text(alphabet=BASE_LETTERS + "".join(DIACRITICS) + KEPT_MARKS + " ", max_size=60)


@given(arabic_text)
def test_idempotence(s):
    once = normalize_text(s)
    assert normalize_text(once) == once


@given(arabic_text)
def test_length_monotone_and_subsequence(s):
    out = normalize_text(s)
    assert len(out) <= len(s)
    it = iter(s)
    assert all(c in it for c in out)  # subsequence of the input codepoints


@given(arabic_text, st.integers(0, 2**32))
def test_diacritic_injection_equivalence(s, seed):
    # inserting stripped diacritics anywhere must not change the result
    import random

    rng = random.Random(seed)
    chars = list(s)
    for _ in range(rng.randint(0, 8)):
        chars.insert(rng.randint(0, len(chars)), rng.choice(DIACRITICS))
    assert normalize_text("".join(chars)) == normalize_text(s)
