"""Arabic text normalization: removal of Tashkil and Tanween diacritics.

The same Arabic word is often written with or without short-vowel marks
(e.g. "الْعَيْونُ" vs "العيون").  Stripping those marks makes the variants
byte-identical, so vocabulary lookups treat them as one token.
"""

# The eight diacritics removed: the three Tanween marks (FATHATAN,
# DAMMATAN, KASRATAN) followed by the five Tashkil marks (FATHA, DAMMA,
# KASRA, SHADDA, SUKUN).  They form the contiguous Unicode run
# U+064B..U+0652; tatweel (U+0640) and superscript alef (U+0670) are kept.
DEFAULT_STRIP_CODEPOINTS = frozenset(range(0x064B, 0x0652 + 1))

# str.translate table deleting every codepoint of the strip set
_STRIP_TABLE = dict.fromkeys(DEFAULT_STRIP_CODEPOINTS)


def normalize_text(text: str) -> str:
    """Delete every codepoint in ``DEFAULT_STRIP_CODEPOINTS`` from ``text``.

    All other codepoints are preserved in order, so the result is a
    subsequence of the input and the operation is idempotent.
    """
    return text.translate(_STRIP_TABLE)
