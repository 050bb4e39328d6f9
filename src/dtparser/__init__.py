"""Decision-tree statistical parser.

Parse trees are built bottom-up, left-to-right by a canonical sequence
of tagging, labelling and attachment decisions; each decision is scored
by a grown-and-smoothed decision tree over features of the partial
parse, and a best-first (A*) search finds the most probable complete
derivation.
"""

from .config import Config, load_config
from .corpus import (RawLeaf, RawTree, build_vocabularies, format_tree,
                     parse_tree, parse_trees, read_treebank, split_corpus,
                     write_treebank)
from .errors import DTParserError
from .modelfile import load_model_set, save_model_set
from .models import ModelSet, train
from .parseval import aggregate, score_pair
from .search import exhaustive_parse, parse

__version__ = "0.1.0"

__all__ = [
    "Config",
    "DTParserError",
    "ModelSet",
    "RawLeaf",
    "RawTree",
    "aggregate",
    "build_vocabularies",
    "exhaustive_parse",
    "format_tree",
    "load_config",
    "load_model_set",
    "parse",
    "parse_tree",
    "parse_trees",
    "read_treebank",
    "save_model_set",
    "score_pair",
    "split_corpus",
    "train",
    "write_treebank",
]
