"""Arabic text normalization: removal of Tashkil and Tanween diacritics.

The same Arabic word is often written with or without short-vowel marks
(e.g. "الْعَيْونُ" vs "العيون").  Stripping those marks makes the variants
byte-identical, so vocabulary lookups treat them as one token.
"""

from dataclasses import dataclass, field

# The eight diacritics removed by default: the three Tanween marks
# (FATHATAN, DAMMATAN, KASRATAN) followed by the five Tashkil marks
# (FATHA, DAMMA, KASRA, SHADDA, SUKUN).  They form the contiguous
# Unicode run U+064B..U+0652.
DEFAULT_STRIP_CODEPOINTS = frozenset(range(0x064B, 0x0652 + 1))


@dataclass(frozen=True)
class NormalizationConfig:
    """Which codepoints get deleted during normalization.

    The default covers exactly Tashkil + Tanween.  Callers may extend the
    set (e.g. with tatweel U+0640 or superscript alef U+0670), which are
    deliberately not stripped by default.
    """

    strip_set: frozenset[int] = field(default=DEFAULT_STRIP_CODEPOINTS)
    # str.translate table deleting strip_set, built once per config
    table: dict[int, None] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "strip_set", frozenset(self.strip_set))
        object.__setattr__(self, "table", dict.fromkeys(self.strip_set))


DEFAULT_CONFIG = NormalizationConfig()


def is_stripped_diacritic(c: str, cfg: NormalizationConfig = DEFAULT_CONFIG) -> bool:
    """True iff the single character ``c`` is deleted by normalization."""
    if len(c) != 1:
        raise ValueError(f"expected a single character, got {len(c)} characters")
    return ord(c) in cfg.strip_set


def normalize_text(text: str, cfg: NormalizationConfig = DEFAULT_CONFIG) -> str:
    """Delete every codepoint in ``cfg.strip_set`` from ``text``.

    All other codepoints are preserved in order, so the result is a
    subsequence of the input and the operation is idempotent.
    """
    return text.translate(cfg.table)
