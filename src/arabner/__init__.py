"""arabner: a from-scratch BIOES sequence-labeling toolkit for Arabic NER."""

from .bioes import (
    CATEGORIES,
    EntitySpan,
    NUM_TAGS,
    Tag,
    decode_spans,
    encode_spans,
    id_to_tag,
    parse_tag,
    tag_to_id,
    validate_sequence,
)
from .corpus import (
    CorpusStats,
    TaggedSentence,
    Vocabulary,
    build_vocab,
    corpus_stats,
    encode_sentence,
    read_corpus,
)
from .model import (
    GRU,
    LSTM,
    ModelConfig,
    ModelParams,
    RowGrad,
    count_params,
    gru_step,
    init_params,
    lstm_step,
    model_backward,
    model_forward,
)
from .textnorm import normalize_text
from .training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    evaluate,
    load_checkpoint,
    predict_lines,
    predict_tags,
    save_checkpoint,
    token_accuracy,
    train,
)

__version__ = "0.1.0"
