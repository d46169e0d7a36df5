"""BIOES tag codec: the 37-tag label space, ids, span conversion, grammar checks.

Each token carries either "O" (outside any entity) or "<prefix>-<category>"
where the prefix marks the token's role inside an entity (Begin, Inside,
End, Single) and the category is one of nine entity classes.  9 categories
x 4 prefixes + O = 37 tags.
"""

from dataclasses import dataclass

PREFIXES = ("B", "I", "E", "S")

# Fixed category order; ids, checkpoints and report columns all follow it.
CATEGORIES = ("PER", "GPE", "LOC", "ORG", "TIM", "PRO", "MISC", "DIS", "GEO")


class TagParseError(ValueError):
    """A string is not one of the 37 valid tag forms."""


@dataclass(frozen=True)
class Tag:
    """A single BIOES tag; ``Tag()`` (both fields None) is the Outside tag."""

    prefix: str | None = None
    category: str | None = None

    def __post_init__(self):
        if (self.prefix is None) != (self.category is None):
            raise ValueError("prefix and category must be both set or both None")
        if self.prefix is not None and self.prefix not in PREFIXES:
            raise ValueError(f"unknown prefix {self.prefix!r}")
        if self.category is not None and self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")

    @property
    def is_outside(self) -> bool:
        return self.prefix is None

    def __str__(self) -> str:
        if self.is_outside:
            return "O"
        return f"{self.prefix}-{self.category}"


OUTSIDE = Tag()

# id 0 = O, then each category contributes B, I, E, S consecutively.
ALL_TAGS: tuple[Tag, ...] = (OUTSIDE,) + tuple(
    Tag(prefix, category) for category in CATEGORIES for prefix in PREFIXES
)
NUM_TAGS = len(ALL_TAGS)  # 37

_TAG_TO_ID = {tag: i for i, tag in enumerate(ALL_TAGS)}
_STR_TO_TAG = {str(tag): tag for tag in ALL_TAGS}


def tag_to_id(tag: Tag) -> int:
    return _TAG_TO_ID[tag]


def id_to_tag(i: int) -> Tag:
    if not 0 <= i < NUM_TAGS:
        raise ValueError(f"tag id {i} outside [0, {NUM_TAGS})")
    return ALL_TAGS[i]


def tag_strings() -> list[str]:
    """The 37 tag strings in id order (the checkpoint ordering fingerprint)."""
    return [str(t) for t in ALL_TAGS]


def parse_tag(s: str) -> Tag:
    """Parse "O" or "<prefix>-<category>" to its ALL_TAGS member; raises
    TagParseError otherwise."""
    tag = _STR_TO_TAG.get(s)
    if tag is not None:
        return tag
    prefix, sep, category = s.partition("-")
    if not sep:
        raise TagParseError(f"malformed tag {s!r}: expected 'O' or '<prefix>-<category>'")
    if prefix not in PREFIXES:
        raise TagParseError(f"unknown prefix {prefix!r} in tag {s!r}")
    # a known prefix with a known category is in the table
    raise TagParseError(f"unknown category {category!r} in tag {s!r}")


@dataclass(frozen=True)
class Violation:
    """First point where a tag sequence breaks the BIOES grammar."""

    position: int
    rule: str

    def __str__(self) -> str:
        return f"position {self.position}: {self.rule}"


def validate_sequence(tags: list[Tag]) -> Violation | None:
    """Check the BIOES grammar; None means the sequence is well formed.

    Rules: O and S-X may appear anywhere; B-X must be followed by I-X or
    E-X of the same category; I-X must be preceded by B-X/I-X and followed
    by I-X/E-X of the same category; E-X must be preceded by B-X/I-X of
    the same category; the sequence may not end in B-X or I-X.

    The scan walks transitions left to right, so a violation is reported
    at the first position that is inconsistent with what precedes it.
    """
    open_category = None  # category of an unclosed B/I run, if any
    for i, tag in enumerate(tags):
        if open_category is None:
            if tag.prefix == "I":
                return Violation(i, f"I-{tag.category} without preceding B-{tag.category}")
            if tag.prefix == "E":
                return Violation(i, f"E-{tag.category} without preceding B-{tag.category}")
        else:
            if tag.prefix not in ("I", "E"):
                return Violation(
                    i,
                    f"{tag} may not follow an open {open_category} entity; "
                    f"expected I-{open_category} or E-{open_category}",
                )
            if tag.category != open_category:
                return Violation(
                    i,
                    f"category mismatch: {tag} inside an open {open_category} entity",
                )
        if tag.prefix == "B":
            open_category = tag.category
        elif tag.prefix != "I":
            open_category = None
    if open_category is not None:
        return Violation(len(tags) - 1, "sequence may not end in B or I")
    return None


@dataclass(frozen=True)
class EntitySpan:
    """Inclusive token range [start, end] labeled with one category."""

    start: int
    end: int
    category: str

    def __post_init__(self):
        if not 0 <= self.start <= self.end:
            raise ValueError(f"bad span bounds ({self.start}, {self.end})")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")


class InvalidTagSequenceError(ValueError):
    """decode_spans was given a sequence failing validate_sequence."""

    def __init__(self, violation: Violation):
        super().__init__(f"invalid tag sequence at {violation}")
        self.violation = violation


def decode_spans(tags: list[Tag]) -> list[EntitySpan]:
    """Turn a valid tag sequence into its entity spans, left to right."""
    violation = validate_sequence(tags)
    if violation is not None:
        raise InvalidTagSequenceError(violation)
    spans = []
    start = None
    for i, tag in enumerate(tags):
        if tag.prefix == "S":
            spans.append(EntitySpan(i, i, tag.category))
        elif tag.prefix == "B":
            start = i
        elif tag.prefix == "E":
            spans.append(EntitySpan(start, i, tag.category))
            start = None
    return spans


def encode_spans(spans: list[EntitySpan], length: int) -> list[Tag]:
    """Inverse of decode_spans: spans must be sorted, disjoint, inside [0, length)."""
    tags = [OUTSIDE] * length
    prev_end = -1
    for span in spans:
        if span.start <= prev_end:
            raise ValueError(f"span {span} overlaps or is out of order")
        if span.end >= length:
            raise ValueError(f"span {span} exceeds sequence length {length}")
        if span.start == span.end:
            tags[span.start] = Tag("S", span.category)
        else:
            tags[span.start] = Tag("B", span.category)
            for i in range(span.start + 1, span.end):
                tags[i] = Tag("I", span.category)
            tags[span.end] = Tag("E", span.category)
        prev_end = span.end
    return tags
