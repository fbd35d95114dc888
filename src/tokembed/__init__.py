"""Context-sensitive token embeddings over fixed type embeddings, plus the
downstream predictors that consume them: a local POS tagger, a parent-
prediction dependency parser, and nearest-neighbor analysis tooling."""

__version__ = "0.1.0"
