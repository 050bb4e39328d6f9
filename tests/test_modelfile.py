"""Model persistence: bit-exact round trips and corruption detection."""

import hashlib
import json

import numpy as np
import pytest

from dtparser import cli, derivation, modelfile, models
from dtparser.dtm import iter_nodes
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
            assert before.distribution(event.history) == \
                after.distribution(event.history)


def test_round_trip_preserves_structure(toy_model_set, loaded):
    for kind in derivation.KINDS:
        before = toy_model_set.models[kind]
        after = loaded.models[kind]
        assert after.bucket_lambdas == before.bucket_lambdas
        assert after.heldout_used == before.heldout_used
        assert len(after.nodes) == len(before.nodes)
        for ours, theirs in zip(iter_nodes(before.root), iter_nodes(after.root)):
            assert ours.question == theirs.question
            assert np.array_equal(ours.counts, theirs.counts)
            if ours.is_leaf:  # only leaf distributions are persisted
                assert np.array_equal(before.smoothed[ours.node_id],
                                      after.smoothed[theirs.node_id])


def test_round_trip_preserves_settings(toy_model_set, loaded):
    assert loaded.u_max == toy_model_set.u_max
    assert loaded.renormalize == toy_model_set.renormalize
    assert loaded.vocab == toy_model_set.vocab
    for kind, tree in toy_model_set.class_trees.items():
        assert loaded.class_trees[kind].export_text() == tree.export_text()


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
    "65fbabdd6270696f10810cc4984c2f934607053c091d85143f9ef1d1e4d07af6"


def test_toy_model_file_bytes_are_pinned(saved):
    assert hashlib.sha256(saved.read_bytes()).hexdigest() == TOY_MODEL_SHA256


def _rewrite(saved, tmp_path, mutate):
    envelope = json.loads(saved.read_text())
    mutate(envelope)
    path = tmp_path / "tampered.model"
    path.write_text(json.dumps(envelope))
    return path


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


def test_other_schema_version_is_rejected(saved, tmp_path, capsys):
    def mutate(envelope):
        section = envelope["sections"]["settings"]
        section["data"]["schema_version"] = 2
        section["sha256"] = modelfile._checksum(section["data"])
    path = _rewrite(saved, tmp_path, mutate)
    with pytest.raises(ModelFileError, match="schema version 2"):
        modelfile.load_model_set(path)
    (tmp_path / "in.txt").write_text("the dog runs\n")
    assert cli.main(["parse", str(path), str(tmp_path / "in.txt")]) == \
        cli.EXIT_DATA
    assert "schema version 2" in capsys.readouterr().err


def test_bad_magic_is_rejected(saved, tmp_path):
    path = _rewrite(saved, tmp_path, lambda env: env.update(magic="nope"))
    with pytest.raises(ModelFileError, match="magic"):
        modelfile.load_model_set(path)


def test_non_json_is_rejected(tmp_path):
    path = tmp_path / "garbage.model"
    path.write_text("this is not a model\n")
    with pytest.raises(ModelFileError, match="not a model file"):
        modelfile.load_model_set(path)


def test_classes_file_round_trip(toy_model_set, tmp_path):
    path = tmp_path / "toy.classes"
    modelfile.save_classes(toy_model_set.vocab, toy_model_set.class_trees, path)
    vocab, class_trees = modelfile.load_classes(path)
    assert vocab == toy_model_set.vocab
    assert set(class_trees) == set(toy_model_set.class_trees)
    for kind, tree in toy_model_set.class_trees.items():
        assert class_trees[kind].export_text() == tree.export_text()


def test_classes_file_rejects_model_magic(saved):
    with pytest.raises(ModelFileError, match="magic"):
        modelfile.load_classes(saved)


def test_classes_file_rejects_codes_beyond_the_depth(toy_model_set, tmp_path):
    path = tmp_path / "toy.classes"
    modelfile.save_classes(toy_model_set.vocab, toy_model_set.class_trees, path)
    data = json.loads(path.read_text())
    data["class_trees"]["tag"]["depth"] -= 1
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFileError, match="depth"):
        modelfile.load_classes(path)


def _resealed(saved, tmp_path, section, mutate):
    """The saved model with `mutate` applied to one section's data and that
    section's checksum recomputed, so only the content checks can object."""
    def reseal(envelope):
        wrapped = envelope["sections"][section]
        mutate(wrapped["data"])
        wrapped["sha256"] = modelfile._checksum(wrapped["data"])
    return _rewrite(saved, tmp_path, reseal)


def _first_code(data, kind, value):
    codes = data[kind]["codes"]
    codes[next(iter(codes))] = value


@pytest.mark.parametrize("mutate", [
    lambda d: _first_code(d, "tag", "1"),
    lambda d: _first_code(d, "tag", 1.0),
    lambda d: _first_code(d, "tag", True),
    lambda d: _first_code(d, "tag", -1),
    lambda d: d["tag"].update(depth=d["tag"]["budget"] + 1),
    lambda d: d["word"].update(fallback="no such word"),
], ids=["string-code", "float-code", "bool-code", "negative-code",
        "depth-over-budget", "uncovered-fallback"])
def test_malformed_class_tree_is_rejected(saved, tmp_path, mutate):
    path = _resealed(saved, tmp_path, "class_trees", mutate)
    with pytest.raises(ModelFileError, match="class tree"):
        modelfile.load_model_set(path)


def test_uncovered_fallback_exits_with_a_data_error(saved, tmp_path, capsys):
    path = _resealed(saved, tmp_path, "class_trees",
                     lambda d: d["word"].update(fallback="no such word"))
    (tmp_path / "in.txt").write_text("an unheardof word\n")
    assert cli.main(["parse", str(path), str(tmp_path / "in.txt")]) == \
        cli.EXIT_DATA
    assert "fallback" in capsys.readouterr().err


def _first_question(data, kind, position, value):
    for entry in data[kind]["nodes"]:
        if entry["q"] is not None:
            entry["q"][position] = value
            return
    raise AssertionError(f"the {kind} model asks no question")


@pytest.mark.parametrize("mutate", [
    lambda d: _first_question(d, "tag", 1, "zzz"),
    lambda d: _first_question(d, "tag", 0, 999),
    lambda d: _first_question(d, "tag", 0, -1),
    lambda d: _first_question(d, "tag", 0, "0"),
    lambda d: _first_question(d, "tag", 2, "1"),
    lambda d: _first_question(d, "tag", 2, False),
], ids=["unknown-kind", "slot-999", "negative-slot", "string-slot",
        "string-arg", "bool-arg"])
def test_malformed_question_is_rejected(saved, tmp_path, mutate):
    path = _resealed(saved, tmp_path, "models", mutate)
    with pytest.raises(ModelFileError, match="invalid question"):
        modelfile.load_model_set(path)


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
