"""Model persistence: bit-exact round trips and corruption detection."""

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
