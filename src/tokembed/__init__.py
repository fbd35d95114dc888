"""Context-sensitive token embeddings over fixed type embeddings, plus the
downstream predictors that consume them: a local POS tagger, a parent-
prediction dependency parser, and nearest-neighbor analysis tooling."""

__version__ = "0.1.0"

from .embeddings import (EmbeddingTable, Vocabulary, load_corpus,
                         load_word2vec_text, save_word2vec_text)
from .encoder import (FfnEncoder, Seq2SeqEncoder, WeightScheme, build_encoder,
                      load_encoder, train_encoder, window_weights, wre_loss)
from .features import (ResourceBundle, extended_features, pair_features,
                       word_features)
from .parser import (DepSentence, Parser, ParserConfig, attachment_f1,
                     train_parser)
from .tagger import Tagger, TaggerConfig, tagging_accuracy, train_tagger

__all__ = [
    "EmbeddingTable", "Vocabulary", "load_corpus", "load_word2vec_text",
    "save_word2vec_text", "FfnEncoder", "Seq2SeqEncoder", "WeightScheme",
    "build_encoder", "load_encoder", "train_encoder",
    "window_weights", "wre_loss", "ResourceBundle", "extended_features",
    "pair_features", "word_features", "DepSentence", "Parser", "ParserConfig",
    "attachment_f1", "train_parser", "Tagger", "TaggerConfig",
    "tagging_accuracy", "train_tagger", "__version__",
]
