"""Treebank parsing, vocabularies and corpus splitting."""

import logging
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toylang
from dtparser.corpus import (FORMATS, UNK, RawLeaf, RawTree,
                             build_vocabularies, format_tree, internal_nodes,
                             leaves, parse_tree, parse_trees, postorder,
                             read_treebank, sentence_tags, sentence_words,
                             split_corpus, write_treebank)
from dtparser.errors import (BadSetting, EmptyConstituent, EmptyCorpus,
                             MissingTag, UnbalancedBrackets)

EXAMPLE = """
(S (N Each_DD1 code_NN1
      (Tn used_VVN
          (P by_II (N the_AT PC_NN1))))
   (V is_VBZ listed_VVN))
"""

EXAMPLE_PENN = """
(S (N (DD1 Each) (NN1 code)
      (Tn (VVN used)
          (P (II by) (N (AT the) (NN1 PC)))))
   (V (VBZ is) (VVN listed)))
"""


def test_parse_example_tree():
    tree = parse_tree(EXAMPLE)
    assert tree.label == "S"
    assert len(leaves(tree)) == 8
    assert len(internal_nodes(tree)) == 6
    assert sentence_words(tree) == ["Each", "code", "used", "by", "the",
                                    "PC", "is", "listed"]
    assert sentence_tags(tree) == ["DD1", "NN1", "VVN", "II", "AT", "NN1",
                                   "VBZ", "VVN"]
    assert [n.label for n in internal_nodes(tree)] == ["S", "N", "Tn", "P",
                                                       "N", "V"]


def test_penn_format_parses_to_same_tree():
    assert parse_tree(EXAMPLE_PENN, fmt="penn") == parse_tree(EXAMPLE)


def test_parse_single_leaf_constituent():
    tree = parse_tree("(X a_T)")
    assert tree == RawTree("X", (RawLeaf("a", "T"),))


def test_parse_trees_returns_every_tree():
    trees = parse_trees("(X a_T) (Y b_U c_V)")
    assert len(trees) == 2
    assert trees[1].children[0] == RawLeaf("b", "U")


def test_word_may_contain_underscores():
    leaf = parse_tree("(X vice_president_NN)").children[0]
    assert leaf == RawLeaf("vice_president", "NN")


def test_unbalanced_brackets():
    with pytest.raises(UnbalancedBrackets):
        parse_trees("(S (A b_T")
    with pytest.raises(UnbalancedBrackets):
        parse_trees("b_T)")
    with pytest.raises(UnbalancedBrackets) as err:
        parse_tree("(X a_T) (Y b_T)")  # parse_tree wants exactly one
    assert "exactly one" in str(err.value)


def test_missing_tag():
    with pytest.raises(MissingTag):
        parse_trees("(S word)")
    with pytest.raises(MissingTag):
        parse_trees("(S _T)")
    with pytest.raises(MissingTag):
        parse_trees("(S word_)")
    # penn: a preterminal must hold exactly one bare token
    with pytest.raises(MissingTag):
        parse_trees("(NN dog extra)", fmt="penn")
    with pytest.raises(MissingTag):
        parse_trees("(S (NN dog) extra)", fmt="penn")


def test_empty_constituent():
    with pytest.raises(EmptyConstituent):
        parse_trees("(S )")
    with pytest.raises(EmptyConstituent):
        parse_trees("( )")


def test_unknown_format_rejected():
    with pytest.raises(BadSetting, match="'latex'"):
        parse_trees("(X a_T)", fmt="latex")


def test_format_tree_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        tree = toylang.random_tree(rng)
        for fmt in ("underscore", "penn"):
            assert parse_tree(format_tree(tree, fmt), fmt) == tree


def test_format_tree_example_text():
    text = format_tree(parse_tree("(X a_T b_U)"))
    assert text == "(X a_T b_U)"
    assert format_tree(parse_tree("(X a_T b_U)"), fmt="penn") == \
        "(X (T a) (U b))"


def test_leaf_count_equals_token_count():
    rng = random.Random(11)
    for _ in range(20):
        tree = toylang.random_tree(rng)
        assert len(leaves(tree)) == len(sentence_words(tree))


def test_treebank_file_round_trip(tmp_path):
    trees = toylang.corpus(10, 3)
    path = tmp_path / "toy.mrg"
    write_treebank(trees, path)
    assert read_treebank(path) == trees


def test_postorder_puts_children_first_with_word_spans():
    tree = parse_tree("(S (N a_T b_T) (V c_T))")
    walked = [(node.label if isinstance(node, RawTree) else node.word,
               start, end) for node, start, end in postorder(tree)]
    assert walked == [("a", 0, 0), ("b", 1, 1), ("N", 0, 1), ("c", 2, 2),
                      ("V", 2, 2), ("S", 0, 2)]
    assert list(postorder(RawLeaf("a", "T"))) == [(RawLeaf("a", "T"), 0, 0)]


_SYMBOL = string.ascii_letters + string.digits + "-.,$'`<>"


def _trees():
    """Random trees whose text both formats can read back: tokens without
    whitespace or parentheses, and no underscore in a tag."""
    words = st.text(_SYMBOL + "_", min_size=1, max_size=4)
    tags = st.text(_SYMBOL, min_size=1, max_size=3)
    labels = st.text(_SYMBOL + "_", min_size=1, max_size=3)
    leaf = st.builds(RawLeaf, words, tags)
    nodes = st.recursive(
        leaf,
        lambda kids: st.builds(RawTree, labels,
                               st.lists(kids, min_size=1,
                                        max_size=4).map(tuple)),
        max_leaves=20)
    return st.builds(RawTree, labels,
                     st.lists(nodes, min_size=1, max_size=4).map(tuple))


@settings(max_examples=100, deadline=None)
@given(tree=_trees(), fmt=st.sampled_from(FORMATS))
def test_format_then_parse_gives_back_the_tree(tree, fmt):
    assert parse_tree(format_tree(tree, fmt), fmt) == tree


DEEP = toylang.DEEP
DEEP_TEXT = {
    ("unary-chain", "underscore"): "(A " * DEEP + "w_T" + ")" * DEEP,
    ("unary-chain", "penn"): "(A " * DEEP + "(T w)" + ")" * DEEP,
    ("right-branching", "underscore"):
        "(A w_T " * (DEEP - 1) + "(A w_T w_T)" + ")" * (DEEP - 1),
    ("right-branching", "penn"):
        "(A (T w) " * (DEEP - 1) + "(A (T w) (T w))" + ")" * (DEEP - 1),
}
DEEP_TREES = {"unary-chain": toylang.unary_chain,
              "right-branching": toylang.right_branching}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("shape", DEEP_TREES)
def test_trees_deeper_than_the_recursion_limit_read_and_write(shape, fmt):
    tree = DEEP_TREES[shape](DEEP)
    text = DEEP_TEXT[shape, fmt]
    assert format_tree(tree, fmt) == text
    read = parse_tree(text, fmt)
    assert read == tree
    for out_fmt in FORMATS:
        assert format_tree(read, out_fmt) == DEEP_TEXT[shape, out_fmt]
    n_words = 1 if shape == "unary-chain" else DEEP + 1
    assert sentence_words(read) == ["w"] * n_words
    assert sentence_tags(read) == ["T"] * n_words
    nodes = internal_nodes(read)
    assert len(nodes) == DEEP and nodes[0] is read
    assert all(node.label == "A" for node in nodes)
    assert [end - start for node, start, end in postorder(read)
            if isinstance(node, RawTree)][-1] == n_words - 1



@pytest.mark.parametrize("shape", DEEP_TREES)
def test_trees_deeper_than_the_recursion_limit_compare_hash_and_print(shape):
    tree, twin = DEEP_TREES[shape](DEEP), DEEP_TREES[shape](DEEP)
    text = DEEP_TEXT[shape, "underscore"]
    deepest = text.rindex("w_T")
    other = parse_tree(text[:deepest] + "w_U" + text[deepest + 3:])
    assert tree == twin and tree is not twin
    assert hash(tree) == hash(twin)
    assert tree != other and other != tree
    assert tree != DEEP_TREES[shape](DEEP - 1)
    assert len({tree, twin, other}) == 2
    assert repr(tree).count("RawTree(label='A', children=(") == DEEP


def test_repr_reads_like_the_dataclass_fields():
    assert repr(parse_tree("(S (N a_D) b_V)")) == (
        "RawTree(label='S', children=(RawTree(label='N', children="
        "(RawLeaf(word='a', tag='D'),)), RawLeaf(word='b', tag='V')))")

# --- vocabularies ---

def test_vocabulary_inventories():
    vocab = build_vocabularies([parse_tree(EXAMPLE)], unk_threshold=1)
    assert set(vocab.words[1:]) == {"Each", "code", "used", "by", "the",
                                    "PC", "is", "listed"}
    assert vocab.words[0] == UNK
    assert vocab.words[1:] == sorted(vocab.words[1:])
    assert vocab.tags == ["AT", "DD1", "II", "NN1", "VBZ", "VVN"]
    assert vocab.labels == ["N", "P", "S", "Tn", "V"]


def test_rare_words_fold_to_unk():
    # every word occurs once, so threshold 2 keeps none of them
    vocab = build_vocabularies([parse_tree(EXAMPLE)], unk_threshold=2)
    assert vocab.words == [UNK]
    assert vocab.word_symbol("Each") == UNK
    assert vocab.word_symbol("zyx") == UNK
    assert vocab.word_counts == {}  # only kept words keep their counts


def test_a_word_spelled_like_unk_is_the_unknown_symbol():
    trees = parse_trees("(S (NP <unk>_NNP) (VP runs_VB))\n" * 3
                        + "(S (NP rex_NNP) (VP sleeps_VB))\n" * 3)
    vocab = build_vocabularies(trees, unk_threshold=2)
    assert vocab.words == [UNK, "rex", "runs", "sleeps"]
    assert vocab.word_counts == {"rex": 3, "runs": 3, "sleeps": 3}
    assert vocab.word_symbol(UNK) == UNK


def test_kept_word_maps_to_itself():
    vocab = build_vocabularies(toylang.corpus(20, 1), unk_threshold=1)
    assert vocab.word_symbol("the") == "the"
    assert "the" in vocab.words
    assert vocab.word_symbol("NOSUCH") == UNK


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        build_vocabularies([])
    with pytest.raises(EmptyCorpus):
        split_corpus([])


# --- corpus splitting ---

def _numbered(n):
    return [RawTree(f"L{i}", (RawLeaf("w", "T"),)) for i in range(n)]


def test_split_sizes_and_order():
    trees = _numbered(100)
    grow, heldout = split_corpus(trees, 0.9, seed=0)
    assert len(grow) == 90 and len(heldout) == 10
    assert sorted(grow + heldout, key=lambda t: int(t.label[1:])) == trees
    # each side keeps the original corpus order
    for side in (grow, heldout):
        ids = [int(t.label[1:]) for t in side]
        assert ids == sorted(ids)


def test_split_is_seed_deterministic():
    trees = _numbered(40)
    assert split_corpus(trees, 0.8, seed=5) == split_corpus(trees, 0.8, seed=5)
    assert split_corpus(trees, 0.8, seed=5) != split_corpus(trees, 0.8, seed=6)


def test_split_single_tree_warns(caplog):
    with caplog.at_level(logging.WARNING):
        grow, heldout = split_corpus(_numbered(1), 0.9, seed=0)
    assert len(grow) == 1 and heldout == []
    assert any("no heldout" in r.message for r in caplog.records)


def test_split_fraction_out_of_range():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(BadSetting, match="grow_fraction"):
            split_corpus(_numbered(10), bad)
