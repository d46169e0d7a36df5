import itertools

import pytest
from hypothesis import given, strategies as st

from arabner.bioes import (
    ALL_TAGS,
    CATEGORIES,
    EntitySpan,
    InvalidTagSequenceError,
    NUM_TAGS,
    OUTSIDE,
    Tag,
    TagParseError,
    decode_spans,
    encode_spans,
    id_to_tag,
    parse_tag,
    tag_strings,
    tag_to_id,
    validate_sequence,
)


def brute_force_valid(tags):
    """Independent rule checker: tests each of the five grammar rules
    directly against neighbours, with no shared state machine."""
    n = len(tags)
    for i, t in enumerate(tags):
        nxt = tags[i + 1] if i + 1 < n else None
        prv = tags[i - 1] if i > 0 else None
        if t.prefix == "B":
            if nxt is None or nxt.prefix not in ("I", "E") or nxt.category != t.category:
                return False
        elif t.prefix == "I":
            if prv is None or prv.prefix not in ("B", "I") or prv.category != t.category:
                return False
            if nxt is None or nxt.prefix not in ("I", "E") or nxt.category != t.category:
                return False
        elif t.prefix == "E":
            if prv is None or prv.prefix not in ("B", "I") or prv.category != t.category:
                return False
    return True


def test_tag_count_and_ordering():
    assert NUM_TAGS == 37
    assert len(set(ALL_TAGS)) == 37
    assert tag_to_id(OUTSIDE) == 0
    assert tag_to_id(parse_tag("B-PER")) == 1
    assert tag_to_id(parse_tag("S-GEO")) == 36
    # each category contributes B, I, E, S consecutively in Table order
    assert tag_strings()[:6] == ["O", "B-PER", "I-PER", "E-PER", "S-PER", "B-GPE"]


def test_id_roundtrip():
    for i in range(NUM_TAGS):
        assert tag_to_id(id_to_tag(i)) == i
    for tag in ALL_TAGS:
        assert id_to_tag(tag_to_id(tag)) == tag
    with pytest.raises(ValueError):
        id_to_tag(37)
    with pytest.raises(ValueError):
        id_to_tag(-1)


def test_parse_tag():
    assert parse_tag("E-LOC") == Tag("E", "LOC")
    assert parse_tag("O") == OUTSIDE
    for bad in ("Q-PER", "B_PER", "X-PER", "B-CAT", "", "B-", "-PER", "o", "B-per"):
        with pytest.raises(TagParseError):
            parse_tag(bad)


@pytest.mark.parametrize(
    "make, problem",
    [
        (lambda: Tag("B", None), "both set or both None"),
        (lambda: Tag(None, "PER"), "both set or both None"),
        (lambda: Tag("Q", "PER"), "unknown prefix 'Q'"),
        (lambda: Tag("B", "XYZ"), "unknown category 'XYZ'"),
        (lambda: EntitySpan(-1, 0, "PER"), r"bad span bounds \(-1, 0\)"),
        (lambda: EntitySpan(3, 2, "PER"), r"bad span bounds \(3, 2\)"),
        (lambda: EntitySpan(0, 0, "XYZ"), "unknown category 'XYZ'"),
    ],
)
def test_tag_and_span_reject_bad_fields(make, problem):
    with pytest.raises(ValueError, match=problem):
        make()


def test_parse_roundtrips_string_form():
    for tag in ALL_TAGS:
        assert parse_tag(str(tag)) == tag


def tags(*strs):
    return [parse_tag(s) for s in strs]


def test_validate_examples():
    assert validate_sequence(tags("B-PER", "I-PER", "I-PER", "I-PER", "I-PER", "E-PER")) is None
    assert validate_sequence([]) is None
    v = validate_sequence(tags("I-PER"))
    assert v is not None and v.position == 0 and "without preceding B" in v.rule
    v = validate_sequence(tags("B-LOC", "E-PER"))
    assert v is not None and v.position == 1 and "mismatch" in v.rule
    v = validate_sequence(tags("B-LOC"))
    assert v is not None and v.position == 0
    v = validate_sequence(tags("O", "B-LOC", "I-LOC"))
    assert v is not None and v.position == 2


def test_validate_exhaustive_two_categories():
    # all sequences of length <= 3 over {O} + {B,I,E,S} x {PER, LOC}
    alphabet = tags("O", "B-PER", "I-PER", "E-PER", "S-PER", "B-LOC", "I-LOC", "E-LOC", "S-LOC")
    checked = 0
    for n in range(4):
        for seq in itertools.product(alphabet, repeat=n):
            seq = list(seq)
            assert (validate_sequence(seq) is None) == brute_force_valid(seq), seq
            checked += 1
    assert checked == 9**3 + 9**2 + 9 + 1


def test_decode_spans_examples():
    assert decode_spans(tags("B-PER", "I-PER", "I-PER", "I-PER", "I-PER", "E-PER")) == [
        EntitySpan(0, 5, "PER")
    ]
    assert decode_spans(tags("O", "O", "O")) == []
    assert decode_spans(
        tags("B-LOC", "E-LOC", "O", "B-LOC", "I-LOC", "I-LOC", "I-LOC", "E-LOC")
    ) == [EntitySpan(0, 1, "LOC"), EntitySpan(3, 7, "LOC")]
    with pytest.raises(InvalidTagSequenceError) as exc:
        decode_spans(tags("I-PER"))
    assert exc.value.violation.position == 0


def test_encode_spans_examples():
    assert encode_spans([EntitySpan(0, 5, "PER")], 6) == tags(
        "B-PER", "I-PER", "I-PER", "I-PER", "I-PER", "E-PER"
    )
    assert encode_spans([], 3) == tags("O", "O", "O")
    assert encode_spans([EntitySpan(1, 1, "DIS")], 3) == tags("O", "S-DIS", "O")
    with pytest.raises(ValueError):
        encode_spans([EntitySpan(0, 3, "PER")], 3)  # end out of range
    with pytest.raises(ValueError):
        encode_spans([EntitySpan(0, 2, "PER"), EntitySpan(2, 2, "LOC")], 5)  # overlap
    with pytest.raises(ValueError):
        encode_spans([EntitySpan(2, 3, "PER"), EntitySpan(0, 1, "LOC")], 5)  # unsorted


@st.composite
def span_lists(draw):
    length = draw(st.integers(0, 30))
    spans = []
    pos = 0
    while pos < length:
        start = draw(st.integers(pos, length - 1))
        end = draw(st.integers(start, min(start + 5, length - 1)))
        if draw(st.booleans()):
            spans.append(EntitySpan(start, end, draw(st.sampled_from(CATEGORIES))))
        pos = end + 2  # leave a gap so spans stay disjoint and sorted
    return spans, length


@given(span_lists())
def test_roundtrip_decode_encode(spans_length):
    spans, length = spans_length
    seq = encode_spans(spans, length)
    assert validate_sequence(seq) is None
    assert decode_spans(seq) == spans
    # and the inverse direction on the produced sequence
    assert encode_spans(decode_spans(seq), length) == seq


@given(st.lists(st.sampled_from(ALL_TAGS), max_size=8))
def test_random_sequences_agree_with_brute_force(seq):
    assert (validate_sequence(seq) is None) == brute_force_valid(seq)
