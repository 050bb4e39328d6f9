"""Model persistence: bit-exact round trips and corruption detection."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toylang
from dtparser import cli, derivation, modelfile, models
from dtparser.config import Config
from dtparser.corpus import (UNK, RawLeaf, RawTree, parse_tree, split_corpus,
                             write_treebank)
from dtparser.errors import ModelFileError

from conftest import toy_config


@pytest.fixture(scope="module")
def saved(toy_model_set, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "toy.model"
    modelfile.save_model_set(toy_model_set, toy_config(), path)
    return path


@pytest.fixture(scope="module")
def loaded(saved):
    return modelfile.load_model_set(saved)


def _sample_events(model_set, trees, per_kind=10):
    ctx = model_set.context()
    events = {kind: [] for kind in derivation.KINDS}
    for tree in trees:
        for event in derivation.encode(tree, ctx):
            if len(events[event.kind]) < per_kind:
                events[event.kind].append(event)
    return events


def test_round_trip_predictions_are_bit_identical(toy_treebank, toy_model_set,
                                                  loaded):
    events = _sample_events(toy_model_set, toy_treebank[:6])
    for kind in derivation.KINDS:
        before = toy_model_set.models[kind]
        after = loaded.models[kind]
        assert events[kind], kind
        for event in events[kind]:
            assert np.array_equal(before.predict(event.history),
                                  after.predict(event.history))


def test_round_trip_preserves_structure(toy_model_set, loaded):
    for kind in derivation.KINDS:
        before = toy_model_set.models[kind]
        after = loaded.models[kind]
        assert after.bucket_lambdas == before.bucket_lambdas
        assert after.heldout_used == before.heldout_used
        assert len(after.nodes) == len(before.nodes)
        for ours, theirs in zip(before.nodes, after.nodes):
            assert ours.question == theirs.question
            assert np.array_equal(ours.counts, theirs.counts)


def test_a_trained_model_and_its_reload_are_alike(toy_model_set, loaded):
    for kind in derivation.KINDS:
        trained = toy_model_set.models[kind]
        again = loaded.models[kind]
        for table in ("parent", "yes", "no"):
            assert getattr(again.tree, table) == getattr(trained.tree, table)
        # both keep a distribution at each leaf and nothing elsewhere
        assert [dist is None for dist in again.smoothed] == \
            [not node.is_leaf for node in trained.nodes] == \
            [dist is None for dist in trained.smoothed]
        for ours, theirs in zip(trained.smoothed, again.smoothed):
            assert ours is None or np.array_equal(ours, theirs)


def test_predictions_are_read_only(toy_treebank, toy_model_set, loaded):
    events = _sample_events(toy_model_set, toy_treebank[:2], per_kind=1)
    for kind in derivation.KINDS:
        trained = toy_model_set.models[kind]
        again = loaded.models[kind]
        for model in (trained, again):
            assert not any(dist.flags.writeable
                           for dist in model.smoothed if dist is not None)
            history = events[kind][0].history
            with pytest.raises(ValueError):
                model.predict(history)[:] = 1e-9
            assert np.array_equal(trained.predict(history),
                                  again.predict(history))


def test_round_trip_preserves_settings(toy_model_set, loaded):
    assert loaded.u_max == toy_model_set.u_max
    assert loaded.vocab == toy_model_set.vocab
    assert loaded.class_trees == toy_model_set.class_trees


def test_round_trip_preserves_a_vocabulary_with_rare_words(tmp_path):
    """At the default threshold a word seen once folds into the unknown
    symbol; the reload still equals what training built."""
    config = toy_config().replace(unk_threshold=3)
    trees = toylang.corpus(50, 7) + [
        parse_tree("(S (NP zed_NNP) (VP naps_VB))")]
    grow, heldout = split_corpus(trees, config.grow_fraction, config.seed)
    trained = models.train(grow, heldout, config)
    assert "zed" not in trained.vocab.words
    path = tmp_path / "rare.model"
    modelfile.save_model_set(trained, config, path)
    loaded = modelfile.load_model_set(path)
    assert loaded.vocab == trained.vocab
    assert loaded.class_trees == trained.class_trees


def test_round_trip_preserves_head_rules(toy_treebank, toy_model_set, loaded):
    from dtparser.corpus import RawLeaf, internal_nodes
    for tree in toy_treebank[:10]:
        for node in internal_nodes(tree):
            symbols = [c.tag if isinstance(c, RawLeaf) else c.label
                       for c in node.children]
            assert loaded.heads.head_child(node.label, symbols) == \
                toy_model_set.heads.head_child(node.label, symbols)


def test_saving_twice_is_deterministic(toy_model_set, saved, tmp_path):
    again = tmp_path / "again.model"
    modelfile.save_model_set(toy_model_set, toy_config(), again)
    assert again.read_bytes() == saved.read_bytes()


# SHA-256 of the conftest toy model file, as saved with Python 3.11.7 and
# numpy 2.4.6.  A change that alters any byte of a saved model changes it.
TOY_MODEL_SHA256 = \
    "1f22a646c103b80f925e39a276fae4b68d34ee2401ddeffc70540a14ec887cf3"


def test_toy_model_file_bytes_are_pinned(saved):
    assert hashlib.sha256(saved.read_bytes()).hexdigest() == TOY_MODEL_SHA256


# SHA-256 of a model of 150 arbitrary random trees, whose unary chains
# train every extension; saved as the toy model pin above was.
RANDOM_MODEL_SHA256 = \
    "edafce2d00c2777d02feedc3f244b18b9e984a26dffb60c87e80e46fa7152def"
RANDOM_CONFIG = Config(unk_threshold=1, min_events=4, cluster_window=64)


@pytest.fixture(scope="module")
def random_saved(tmp_path_factory):
    trees = toylang.random_corpus(150, 41)
    grow, heldout = split_corpus(trees, RANDOM_CONFIG.grow_fraction,
                                 RANDOM_CONFIG.seed)
    path = tmp_path_factory.mktemp("models") / "random.model"
    modelfile.save_model_set(models.train(grow, heldout, RANDOM_CONFIG),
                             RANDOM_CONFIG, path)
    return path


def test_random_tree_model_file_bytes_are_pinned(random_saved, tmp_path):
    assert hashlib.sha256(random_saved.read_bytes()).hexdigest() == \
        RANDOM_MODEL_SHA256
    again = tmp_path / "again.model"
    modelfile.save_model_set(modelfile.load_model_set(random_saved),
                             RANDOM_CONFIG, again)
    assert again.read_bytes() == random_saved.read_bytes()


def _rewrite(saved, tmp_path, mutate):
    envelope = json.loads(saved.read_text())
    mutate(envelope)
    path = tmp_path / "tampered.model"
    path.write_text(json.dumps(envelope))
    return path


def _resealed_all(saved, tmp_path, mutate):
    """The saved file with `mutate` applied to its sections' data, by name,
    and every checksum recomputed, so only the content checks can object."""
    def reseal(envelope):
        data = {name: wrapped["data"]
                for name, wrapped in envelope["sections"].items()}
        mutate(data)
        envelope["sections"] = {
            name: {"sha256": modelfile._checksum(value), "data": value}
            for name, value in data.items()}
    return _rewrite(saved, tmp_path, reseal)


def _resealed(saved, tmp_path, section, mutate):
    """The saved file with `mutate` applied to one section's data, resealed."""
    return _resealed_all(saved, tmp_path, lambda data: mutate(data[section]))


def test_tampered_section_fails_its_checksum(saved, tmp_path):
    def mutate(envelope):
        envelope["sections"]["settings"]["data"]["u_max"] += 1
    path = _rewrite(saved, tmp_path, mutate)
    with pytest.raises(ModelFileError, match="checksum"):
        modelfile.load_model_set(path)


def test_missing_section_is_rejected(saved, tmp_path):
    def mutate(envelope):
        del envelope["sections"]["head_rules"]
    path = _rewrite(saved, tmp_path, mutate)
    with pytest.raises(ModelFileError, match="missing"):
        modelfile.load_model_set(path)


def test_unsupported_version_is_rejected(saved, tmp_path):
    path = _rewrite(saved, tmp_path, lambda env: env.update(version=99))
    with pytest.raises(ModelFileError, match="version"):
        modelfile.load_model_set(path)


def test_other_schema_version_is_rejected(toy_model_set, saved, tmp_path,
                                          capsys):
    """A version-1 file, which stored each leaf's distribution as `p`
    beside the counts and lambdas it derives from, is refused; so is a
    version-2 file, whose settings could ask to rescale each decision's
    legal values to sum to 1."""
    def version_1(settings, models):
        for kind, data in models.items():
            smoothed = toy_model_set.models[kind].smoothed
            for entry, dist in zip(data["nodes"], smoothed):
                if dist is not None:
                    entry["p"] = [float(x).hex() for x in dist]

    def version_2(settings, models):
        settings["renormalize"] = True
        settings["config"]["renormalize"] = "True"

    (tmp_path / "in.txt").write_text("the dog runs\n")
    for version, retire in ((1, version_1), (2, version_2)):
        def mutate(sections):
            retire(sections["settings"], sections["models"])
            sections["settings"]["schema_version"] = version
        path = _resealed_all(saved, tmp_path, mutate)
        with pytest.raises(ModelFileError, match=f"schema version {version}"):
            modelfile.load_model_set(path)
        assert cli.main(["parse", str(path), str(tmp_path / "in.txt")]) == \
            cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"schema version {version}" in captured.err


def test_bad_magic_is_rejected(saved, tmp_path):
    path = _rewrite(saved, tmp_path, lambda env: env.update(magic="nope"))
    with pytest.raises(ModelFileError, match="magic"):
        modelfile.load_model_set(path)


def test_non_json_is_rejected(tmp_path):
    path = tmp_path / "garbage.model"
    path.write_text("this is not a model\n")
    with pytest.raises(ModelFileError, match="not a model file"):
        modelfile.load_model_set(path)


@pytest.fixture(scope="module")
def classes_saved(toy_model_set, tmp_path_factory):
    path = tmp_path_factory.mktemp("classes") / "toy.classes"
    modelfile.save_classes(toy_model_set.vocab, toy_model_set.class_trees,
                           path)
    return path


def _train_with_classes(toy_treebank, tmp_path, classes):
    """The exit code of `train --classes` with classes file `classes`."""
    write_treebank(toy_treebank, tmp_path / "toy.mrg")
    return cli.main(["train", str(tmp_path / "toy.mrg"), "-o",
                     str(tmp_path / "toy.model"), "--classes", str(classes)])


def test_classes_file_round_trip(toy_model_set, classes_saved):
    vocab, class_trees = modelfile.load_classes(classes_saved)
    assert vocab == toy_model_set.vocab
    assert class_trees == toy_model_set.class_trees


_WORDS = st.sampled_from(("u", "v", "w", "x", "y", UNK)) | st.text(
    "abc", min_size=1, max_size=3)


@st.composite
def _trees(draw):
    """An S over one to four children, each a leaf or a constituent of one
    to three leaves; words repeat often, but some are seen once."""
    children = []
    for _ in range(draw(st.integers(1, 4))):
        kids = tuple(RawLeaf(draw(_WORDS), draw(st.sampled_from(("T1", "T2"))))
                     for _ in range(draw(st.integers(1, 3))))
        children.append(kids[0] if len(kids) == 1 and draw(st.booleans())
                        else RawTree(draw(st.sampled_from("AB")), kids))
    return RawTree("S", tuple(children))


@settings(max_examples=15, deadline=None)
@given(trees=st.lists(_trees(), min_size=2, max_size=8),
       unk_threshold=st.integers(1, 3))
def test_classes_and_model_files_reload_to_what_training_built(
        tmp_path_factory, trees, unk_threshold):
    config = toy_config().replace(unk_threshold=unk_threshold)
    grow, heldout = split_corpus(trees, config.grow_fraction, config.seed)
    trained = models.train(grow, heldout, config)
    root = tmp_path_factory.mktemp("reload")
    modelfile.save_classes(trained.vocab, trained.class_trees,
                           root / "t.classes")
    modelfile.save_model_set(trained, config, root / "t.model")
    loaded = modelfile.load_model_set(root / "t.model")
    for vocab, class_trees in (modelfile.load_classes(root / "t.classes"),
                               (loaded.vocab, loaded.class_trees)):
        assert vocab == trained.vocab
        assert class_trees == trained.class_trees


def test_classes_file_rejects_model_magic(saved):
    with pytest.raises(ModelFileError, match="magic"):
        modelfile.load_classes(saved)


def test_classes_file_edited_without_resealing_exits_2(
        toy_treebank, classes_saved, tmp_path, capsys):
    def swap(envelope):
        codes = envelope["sections"]["class_trees"]["data"]["word"]["codes"]
        assert codes["a"] != codes["ball"]
        codes["a"], codes["ball"] = codes["ball"], codes["a"]
    path = _rewrite(classes_saved, tmp_path, swap)
    with pytest.raises(ModelFileError, match="'class_trees' fails its"):
        modelfile.load_classes(path)
    assert _train_with_classes(toy_treebank, tmp_path, path) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "section 'class_trees' fails its checksum" in err


def test_old_format_classes_file_exits_2(toy_treebank, classes_saved,
                                         tmp_path, capsys):
    """The format before classes files shared the model file's envelope
    kept the two sections' data at the top level, unsealed."""
    def unwrap(envelope):
        for name, wrapped in envelope.pop("sections").items():
            envelope[name] = wrapped["data"]
    path = _rewrite(classes_saved, tmp_path, unwrap)
    assert _train_with_classes(toy_treebank, tmp_path, path) == cli.EXIT_DATA
    assert "lacks its 'sections' field" in capsys.readouterr().err


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("vocabularies"),
    lambda d: d["vocabularies"].update(words=3),
    lambda d: d["class_trees"].pop("extension"),
    lambda d: d["class_trees"]["tag"]["codes"].pop("DT"),
    lambda d: d["class_trees"]["word"].update(fallback=None),
    lambda d: _widen_word_tree(d["class_trees"]),
], ids=["missing-vocabularies", "int-words", "missing-extension-tree",
        "tag-tree-missing-a-tag", "no-word-fallback", "budget-over-63-bits"])
def test_broken_classes_file_exits_with_a_data_error(toy_treebank,
                                                     classes_saved, tmp_path,
                                                     capsys, mutate):
    path = _resealed_all(classes_saved, tmp_path, mutate)
    with pytest.raises(ModelFileError):
        modelfile.load_classes(path)
    assert _train_with_classes(toy_treebank, tmp_path, path) == cli.EXIT_DATA
    assert "dtparser train: error:" in capsys.readouterr().err


def test_classes_file_rejects_codes_beyond_the_depth(classes_saved, tmp_path):
    path = _resealed(classes_saved, tmp_path, "class_trees",
                     lambda d: d["tag"].update(depth=d["tag"]["depth"] - 1))
    with pytest.raises(ModelFileError, match="depth"):
        modelfile.load_classes(path)


@pytest.mark.parametrize("section, mutate, message", [
    ("vocabularies", lambda d: d.pop("words"), "lacks its 'words'"),
    ("vocabularies", lambda d: d.update(words=3), "'words' is 3"),
    ("vocabularies", lambda d: d["words"].append(["w", -1]), "pair"),
    ("vocabularies", lambda d: d["words"].append("w"), "pair"),
    ("vocabularies", lambda d: d["words"].reverse(), "start with"),
    ("vocabularies", lambda d: d.update(tags="NN"), "'tags'"),
    ("vocabularies", lambda d: d["labels"].append(7), "not a string"),
    ("vocabularies", lambda d: d.update(unk_threshold=None),
     "'unk_threshold'"),
    ("vocabularies", lambda d: d["words"].append(list(d["words"][1])),
     "'words' repeats"),
    ("vocabularies", lambda d: d["words"].insert(1, [UNK, 3]),
     f"'words' repeats '{UNK}'"),
    ("vocabularies", lambda d: d["tags"].append(d["tags"][0]),
     "'tags' repeats"),
    ("vocabularies", lambda d: d["labels"].append(d["labels"][0]),
     "'labels' repeats"),
    ("head_rules", lambda d: d.pop("rules"), "lacks its 'rules'"),
    ("head_rules", lambda d: d["rules"].append([1, 2]), "head rules entry"),
    ("head_rules", lambda d: d["rules"].append(["S", "sideways", []]),
     "head rules entry"),
    ("head_rules", lambda d: d["rules"].append(["S", "from-left", "NN"]),
     "head rules entry"),
    ("head_rules", lambda d: d.update(default_direction="sideways"),
     "default direction 'sideways'"),
    ("head_rules", lambda d: d.pop("default_direction"),
     "'default_direction'"),
    ("head_rules", lambda d: d.update(default_direction="from-left"),
     "default direction 'from-left' is not 'from-right'"),
], ids=["missing-words", "int-words", "negative-word-count", "bare-word",
        "unk-not-first", "string-tags", "int-label", "null-unk-threshold",
        "repeated-word", "repeated-unk", "repeated-tag", "repeated-label",
        "missing-rules", "int-rule", "sideways-rule", "string-children",
        "sideways-default", "missing-default", "from-left-default"])
def test_broken_vocabularies_or_head_rules_exit_with_a_data_error(
        saved, tmp_path, capsys, section, mutate, message):
    path = _resealed(saved, tmp_path, section, mutate)
    with pytest.raises(ModelFileError, match=message):
        modelfile.load_model_set(path)
    (tmp_path / "in.txt").write_text("rex runs\n")
    assert cli.main(["parse", str(path), str(tmp_path / "in.txt")]) == \
        cli.EXIT_DATA
    assert "dtparser parse: error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, symbol", [
    ("word", "dog"), ("tag", "DT"), ("label", "NP"),
    ("label", derivation.TAG_LABEL), ("extension", "left"),
])
def test_class_tree_missing_a_symbol_exits_with_a_data_error_at_load(
        saved, tmp_path, capsys, kind, symbol):
    path = _resealed(saved, tmp_path, "class_trees",
                     lambda d: d[kind]["codes"].pop(symbol))
    with pytest.raises(ModelFileError,
                       match=f"the {kind} class tree has no code for "
                             f"'{symbol}'"):
        modelfile.load_model_set(path)
    (tmp_path / "in.txt").write_text("the dog sees rex\n")
    assert cli.main(["parse", str(path), str(tmp_path / "in.txt")]) == \
        cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any sentence is parsed
    assert "dtparser parse: error:" in captured.err


def _first_code(data, kind, value):
    codes = data[kind]["codes"]
    codes[next(iter(codes))] = value


def _widen_word_tree(data):
    """A word tree 70 bits wide, one code using bit 66: wider than the
    int64 columns that training encodes codes into."""
    data["word"].update(budget=70, depth=70)
    _first_code(data, "word", 1 << 66)


@pytest.mark.parametrize("kind, mutate", [
    ("tag", lambda d: _first_code(d, "tag", "1")),
    ("tag", lambda d: _first_code(d, "tag", 1.0)),
    ("tag", lambda d: _first_code(d, "tag", True)),
    ("tag", lambda d: _first_code(d, "tag", -1)),
    ("tag", lambda d: d["tag"].update(depth=d["tag"]["budget"] + 1)),
    ("word", lambda d: d["word"].update(fallback="no such word")),
    ("word", lambda d: d["word"].pop("fallback")),
    ("word", lambda d: d["word"].update(fallback=None)),
    ("tag", lambda d: d["tag"].update(fallback="DT")),
    ("word", _widen_word_tree),
    ("tag", lambda d: d["tag"].update(codes=list(d["tag"]["codes"]))),
    ("tag", lambda d: d["tag"].update(depth="3")),
    ("label", lambda d: d.pop("label")),
    ("word", lambda d: d["word"]["codes"].update(
        dog=d["word"]["codes"]["the"])),
], ids=["string-code", "float-code", "bool-code", "negative-code",
        "depth-over-budget", "uncovered-fallback", "missing-fallback",
        "no-word-fallback", "tag-fallback", "budget-over-63-bits",
        "codes-as-list", "string-depth", "missing-label-tree",
        "untruncated-shared-code"])
def test_malformed_class_tree_is_rejected(saved, tmp_path, kind, mutate):
    """Each refusal names the file and the class tree it breaks."""
    path = _resealed(saved, tmp_path, "class_trees", mutate)
    with pytest.raises(ModelFileError) as caught:
        modelfile.load_model_set(path)
    assert str(caught.value).startswith(
        (f"{path}: the {kind} class tree ",
         f"{path}: class trees lacks its '{kind}' field"))


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(u_max="3"),
    lambda d: d.update(u_max=2.0),
    lambda d: d.update(u_max=-1),
    lambda d: d.pop("u_max"),
], ids=["string-u-max", "float-u-max", "negative-u-max", "missing-u-max"])
def test_malformed_settings_are_rejected(saved, tmp_path, mutate):
    path = _resealed(saved, tmp_path, "settings", mutate)
    with pytest.raises(ModelFileError, match="settings (field|lacks)"):
        modelfile.load_model_set(path)


def test_uncovered_fallback_exits_with_a_data_error(saved, tmp_path, capsys):
    path = _resealed(saved, tmp_path, "class_trees",
                     lambda d: d["word"].update(fallback="no such word"))
    (tmp_path / "in.txt").write_text("an unheardof word\n")
    assert cli.main(["parse", str(path), str(tmp_path / "in.txt")]) == \
        cli.EXIT_DATA
    assert "fallback" in capsys.readouterr().err


def _first_question(data, kind, position, value, asks=None):
    for entry in data[kind]["nodes"]:
        if entry["q"] is not None and asks in (None, entry["q"][1]):
            entry["q"][position] = value
            return
    raise AssertionError(f"the {kind} model asks no such question")


CUR_COUNT_SLOT = 4  # the current node's child count, a numeric slot


@pytest.mark.parametrize("mutate", [
    lambda d: _first_question(d, "tag", 1, "zzz"),
    lambda d: _first_question(d, "tag", 0, 999),
    lambda d: _first_question(d, "tag", 0, -1),
    lambda d: _first_question(d, "tag", 0, "0"),
    lambda d: _first_question(d, "tag", 2, "1"),
    lambda d: _first_question(d, "tag", 2, False),
    lambda d: _first_question(d, "tag", 2, 40, asks="bit"),
    lambda d: _first_question(d, "tag", 2, -1, asks="bit"),
    lambda d: _first_question(d, "tag", 1, "le", asks="bit"),
    lambda d: _first_question(d, "tag", 0, CUR_COUNT_SLOT, asks="bit"),
    lambda d: _first_question(d, "tag", 1, ["bit"]),
    lambda d: _first_question(d, "tag", slice(None), [0, "isnull", 7]),
    lambda d: _first_question(d, "tag", slice(None),
                              [CUR_COUNT_SLOT, "le", 5]),
], ids=["unknown-kind", "slot-999", "negative-slot", "string-slot",
        "string-arg", "bool-arg", "bit-beyond-depth", "negative-bit",
        "categorical-threshold", "numeric-bit", "list-kind",
        "isnull-argument", "threshold-not-asked"])
def test_malformed_question_is_rejected(saved, tmp_path, mutate):
    path = _resealed(saved, tmp_path, "models", mutate)
    with pytest.raises(ModelFileError, match="invalid question"):
        modelfile.load_model_set(path)


def _leaf(data, kind="tag"):
    return next(entry for entry in data[kind]["nodes"] if entry["q"] is None)


def _cut_after_first_question(data, kind="tag"):
    nodes = data[kind]["nodes"]
    first = next(i for i, entry in enumerate(nodes) if entry["q"] is not None)
    del nodes[first + 1:]


def _first_lambda(data, value):
    lambdas = data["tag"]["lambdas"]
    lambdas[next(iter(lambdas))] = value


def _underflowing_chain(data, depth=200):
    """Make the tag model's tree a chain `depth` questions deep whose every
    node saw one event, of future 1, under lambda 0.9999: each node keeps
    1e-4 of its parent's probability of future 0, which underflows to 0."""
    node = {"q": [0, "isnull", 0], "counts": {"1": 1}}
    leaf = {"q": None, "counts": {"1": 1}}
    data["tag"]["nodes"] = [node, leaf] * depth + [leaf]
    data["tag"]["lambdas"] = {"0": 0.9999.hex()}


@pytest.mark.parametrize("mutate, message", [
    (_cut_after_first_question, "ends inside its tree"),
    # the tag model's futures are the toy grammar's tags
    (lambda d: _leaf(d)["counts"].update({str(len(toylang.TAGS)): 1}),
     "future"),
    (lambda d: _leaf(d)["counts"].update({"0": -1}), "count -1"),
    (lambda d: _leaf(d)["counts"].update({"0": 1.0}), "count 1.0"),
    (lambda d: _leaf(d)["counts"].update({"0": 1 << 63}), "count 9"),
    (lambda d: _leaf(d)["counts"].clear(), "no events"),
    (lambda d: d["tag"]["lambdas"].update(x="0x1p-1"), "malformed lambda"),
    (lambda d: d["tag"]["lambdas"].popitem(), "lambda None"),
    (lambda d: _first_lambda(d, (1.0).hex()), r"lambda 1\.0, not"),
    (lambda d: _first_lambda(d, (-0.1).hex()), r"lambda -0\.1, not"),
    (lambda d: _first_lambda(d, "nan"), "lambda nan, not"),
    (_underflowing_chain, "node 1[0-9][0-9] smooths to a distribution"),
    (lambda d: d.pop("label"), "'label'"),
], ids=["cut-after-internal-node", "count-of-no-future", "negative-count",
        "float-count", "count-beyond-int64", "node-without-events",
        "bad-lambda-bucket", "bucket-without-lambda", "lambda-one",
        "negative-lambda", "nan-lambda", "underflowing-chain",
        "missing-label-model"])
def test_broken_tree_section_is_rejected(saved, tmp_path, capsys, mutate,
                                         message):
    path = _resealed(saved, tmp_path, "models", mutate)
    with pytest.raises(ModelFileError, match=message):
        modelfile.load_model_set(path)
    (tmp_path / "in.txt").write_text("rex runs\n")
    assert cli.main(["parse", str(path), str(tmp_path / "in.txt")]) == \
        cli.EXIT_DATA
    assert "dtparser parse: error:" in capsys.readouterr().err


def _deep_tag_tree(data, depth=3000):
    """Make the tag model's tree a chain `depth` questions deep: each
    internal node's yes branch is a leaf, its no branch the next node."""
    nodes = data["tag"]["nodes"]
    question = {"q": [0, "isnull", 0], "counts": nodes[0]["counts"]}
    data["tag"]["nodes"] = [question, _leaf(data)] * depth + [_leaf(data)]


def test_a_tree_deeper_than_the_recursion_limit_loads_and_parses(
        saved, tmp_path, capsys):
    path = _resealed(saved, tmp_path, "models", _deep_tag_tree)
    tree = modelfile.load_model_set(path).models["tag"].tree
    assert tree.complete and len(tree.nodes) == 6001
    (tmp_path / "in.txt").write_text("rex runs\n")
    assert cli.main(["parse", str(path), str(tmp_path / "in.txt")]) == \
        cli.EXIT_OK
    assert capsys.readouterr().out.startswith("(")


def test_out_of_range_bits_exit_with_a_data_error(saved, tmp_path, capsys):
    def widen(data):
        for entry in data["tag"]["nodes"]:
            if entry["q"] is not None and entry["q"][1] == "bit":
                entry["q"][2] = 40
    path = _resealed(saved, tmp_path, "models", widen)
    (tmp_path / "in.txt").write_text("a bone runs rex\n")
    assert cli.main(["parse", str(path), str(tmp_path / "in.txt")]) == \
        cli.EXIT_DATA
    assert "class tree's depth" in capsys.readouterr().err


def test_relabelled_bit_questions_exit_with_a_data_error(saved, tmp_path,
                                                         capsys):
    def relabel(data):
        for entry in data["tag"]["nodes"]:
            if entry["q"] is not None and entry["q"][1] == "bit":
                entry["q"][1] = "zzz"
    path = _resealed(saved, tmp_path, "models", relabel)
    (tmp_path / "in.txt").write_text("a bone runs rex\n")
    assert cli.main(["parse", str(path), str(tmp_path / "in.txt")]) == \
        cli.EXIT_DATA
    assert "zzz" in capsys.readouterr().err


# Values a mutated model field may take: well-formed ones and junk.
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 1 << 64),
                    st.floats(), st.floats().map(float.hex),
                    st.text(max_size=3))
_QUESTIONS = st.one_of(
    st.none(), _VALUES,
    st.lists(st.one_of(st.integers(-1, 60),
                       st.sampled_from(["isnull", "bit", "le", "zzz"]),
                       _VALUES), max_size=4),
    st.tuples(st.integers(-1, 60),
              st.sampled_from(["isnull", "bit", "le"]),
              st.integers(-1, 40)).map(list))


def _mutate_anywhere(data, draw):
    """Drop or alter one value at a drawn place inside JSON object `data`."""
    node = data
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        inner = node[key]
        if not (isinstance(inner, (dict, list)) and inner
                and draw(st.booleans())):
            break
        node = inner
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(_VALUES)


def _mutate_models(models, draw):
    """Drop or alter one count, lambda, question or node of a model."""
    model = models[draw(st.sampled_from(derivation.KINDS))]
    nodes = model["nodes"]
    at = draw(st.integers(0, len(nodes) - 1))
    drop = draw(st.booleans())
    part = draw(st.sampled_from(["count", "lambda", "question", "node"]))
    if part in ("count", "lambda"):
        table = nodes[at]["counts"] if part == "count" else model["lambdas"]
        key = draw(st.sampled_from(sorted(table)))
        if drop:
            del table[key]
        else:
            table[key] = draw(_VALUES)
    elif part == "question":
        nodes[at]["q"] = draw(_QUESTIONS)
    elif drop:
        del nodes[at]
    else:
        nodes.insert(at, dict(nodes[draw(st.integers(0, len(nodes) - 1))]))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_mutated_section_loads_or_exits_with_a_data_error(
        saved, tmp_path_factory, data):
    """Alter one section of a model file, a model's counts, lambdas,
    questions or nodes or any value of another section, and reseal it:
    `parse` then either works or exits 2, never 3."""
    section = data.draw(st.sampled_from(modelfile.MODEL_SECTIONS))
    mutate = _mutate_models if section == "models" else _mutate_anywhere
    root = tmp_path_factory.mktemp("mutated")
    path = _resealed(saved, root, section,
                     lambda value: mutate(value, data.draw))
    (root / "in.txt").write_text("the dog sees rex\nrex runs\n")
    code = cli.main(["parse", str(path), str(root / "in.txt"),
                     "-o", str(root / "out.txt")])
    assert code in (cli.EXIT_OK, cli.EXIT_DATA)
    if code == cli.EXIT_OK:
        assert len((root / "out.txt").read_text().splitlines()) == 2


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_mutated_classes_file_trains_or_exits_with_a_data_error(
        toy_treebank, classes_saved, tmp_path_factory, data):
    """Alter any value of a classes file's section and reseal it: `train
    --classes` then either works or exits 2, never 3."""
    section = data.draw(st.sampled_from(modelfile.CLASSES_SECTIONS))
    root = tmp_path_factory.mktemp("mutated")
    path = _resealed(classes_saved, root, section,
                     lambda value: _mutate_anywhere(value, data.draw))
    assert _train_with_classes(toy_treebank[:10], root, path) in (
        cli.EXIT_OK, cli.EXIT_DATA)
