"""End-to-end CLI coverage: classes/train/parse/eval/report."""

import dataclasses
import io
import json
import multiprocessing
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import toylang
from dtparser import cli, corpus, modelfile, models, search
from dtparser.config import Config
from dtparser.corpus import format_tree, leaves, write_treebank
from dtparser.errors import DTParserError, UnknownId
from dtparser.search import SearchResult

from conftest import toy_config

CONFIG_TEXT = "min_events=2\ncluster_window=64\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, toy_treebank):
    """Treebank, classes and model files built once through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    write_treebank(toy_treebank, root / "toy.mrg")
    (root / "toy.conf").write_text(CONFIG_TEXT)
    common = ["--config", str(root / "toy.conf"), "--seed", "13"]
    assert cli.main(["classes", str(root / "toy.mrg"), "-o",
                     str(root / "toy.classes"), "--unk-threshold", "1"]
                    + common) == 0
    assert cli.main(["train", str(root / "toy.mrg"), "-o",
                     str(root / "toy.model"), "--unk-threshold", "1"]
                    + common) == 0
    return root


@pytest.fixture(scope="module")
def model_path(workdir):
    return str(workdir / "toy.model")


def _flags(workdir):
    return ["--config", str(workdir / "toy.conf"), "--seed", "13",
            "--unk-threshold", "1"]


# --- classes ---

def test_classes_summary(workdir, toy_treebank, toy_model_set, capsys, tmp_path):
    out = tmp_path / "again.classes"
    assert cli.main(["classes", str(workdir / "toy.mrg"), "-o", str(out)]
                    + _flags(workdir)) == 0
    lines = capsys.readouterr().out.splitlines()
    vocab = toy_model_set.vocab
    distinct = {leaf.word for tree in toy_treebank for leaf in leaves(tree)}
    assert lines[0] == f"trees: {len(toy_treebank)}"
    assert lines[1].startswith(
        f"vocabulary: {len(vocab.words) - 1} of {len(distinct)} ")
    kinds = [line.split()[0] for line in lines[2:6]]
    assert kinds == ["word", "tag", "label", "extension"]
    depth, budget = map(int, re.search(
        r"depth (\d+) of (\d+) bits", lines[2]).groups())
    assert budget == 30 and depth <= budget


def test_classes_output_is_deterministic(workdir, tmp_path):
    out = tmp_path / "again.classes"
    assert cli.main(["classes", str(workdir / "toy.mrg"), "-o", str(out)]
                    + _flags(workdir)) == 0
    assert out.read_bytes() == (workdir / "toy.classes").read_bytes()


def test_classes_export_text(workdir, tmp_path):
    out = tmp_path / "x.classes"
    export = tmp_path / "tables"
    assert cli.main(["classes", str(workdir / "toy.mrg"), "-o", str(out),
                     "--export-text", str(export)] + _flags(workdir)) == 0
    _, class_trees = modelfile.load_classes(out)
    for kind in ("word", "tag", "label", "extension"):
        assert (export / f"{kind}.classes").read_text() == \
            class_trees[kind].export_text()


def test_classes_rejects_an_empty_treebank(tmp_path, capsys):
    empty = tmp_path / "empty.mrg"
    empty.write_text("")
    code = cli.main(["classes", str(empty), "-o", str(tmp_path / "c")])
    assert code == cli.EXIT_DATA
    assert "dtparser classes: error:" in capsys.readouterr().err


# --- train ---

def test_train_summary(workdir, toy_treebank, capsys, tmp_path):
    assert cli.main(["train", str(workdir / "toy.mrg"), "-o",
                     str(tmp_path / "m")] + _flags(workdir)) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    n = len(toy_treebank)
    grow = int(n * 0.9)
    assert lines[0] == f"trees: {n} ({grow} grow, {n - grow} heldout)"
    n_leaves = sum(len(leaves(t)) for t in toy_treebank)
    n_internal = sum(len(corpus.internal_nodes(t)) for t in toy_treebank)
    assert f"tag events: {n_leaves}" in lines
    assert f"label events: {n_internal}" in lines
    assert f"extension events: {n_leaves + n_internal}" in lines
    assert "unary chain cap: 2" in lines  # longest observed chain in the toy set
    assert out.count("lambda buckets") == 3


def _em_endings(out):
    """(iterations, how EM ended) of each `<kind> model:` line of `out`."""
    return {kind: (int(n), stop) for kind, n, stop in re.findall(
        r"^(\w+) model: .*, (\d+) EM iterations \((.*)\)$", out, re.M)}


def test_train_reports_how_em_ended(workdir, capsys, tmp_path):
    """On the toy treebank EM meets its tolerance on every model; with
    em_max_iterations=5 it stops at that cap on every model."""
    assert cli.main(["train", str(workdir / "toy.mrg"), "-o",
                     str(tmp_path / "m")] + _flags(workdir)) == 0
    assert _em_endings(capsys.readouterr().out) == {
        "tag": (28, "met em_tolerance"), "label": (22, "met em_tolerance"),
        "extension": (47, "met em_tolerance")}
    conf = tmp_path / "capped.conf"
    conf.write_text(CONFIG_TEXT + "em_max_iterations=5\n")
    assert cli.main(["train", str(workdir / "toy.mrg"), "-o",
                     str(tmp_path / "capped"), "--config", str(conf),
                     "--seed", "13", "--unk-threshold", "1"]) == 0
    capped = (5, "stopped at em_max_iterations=5")
    assert _em_endings(capsys.readouterr().out) == dict.fromkeys(
        ("tag", "label", "extension"), capped)


def test_train_matches_the_library_path(workdir, toy_model_set, tmp_path):
    direct = tmp_path / "direct.model"
    modelfile.save_model_set(toy_model_set, toy_config(), direct)
    assert direct.read_bytes() == (workdir / "toy.model").read_bytes()


def test_train_reuses_a_classes_file(workdir, tmp_path):
    out = tmp_path / "reused.model"
    assert cli.main(["train", str(workdir / "toy.mrg"), "-o", str(out),
                     "--classes", str(workdir / "toy.classes")]
                    + _flags(workdir)) == 0
    assert out.read_bytes() == (workdir / "toy.model").read_bytes()


def test_train_u_max_flag(workdir, tmp_path, capsys):
    out = tmp_path / "u3.model"
    assert cli.main(["train", str(workdir / "toy.mrg"), "-o", str(out),
                     "--u-max", "3"] + _flags(workdir)) == 0
    assert "unary chain cap: 3" in capsys.readouterr().out
    assert modelfile.load_model_set(out).u_max == 3


# --- parse ---

def _write_sentences(path, sentences):
    path.write_text("".join(" ".join(words) + "\n" for words in sentences))


def test_parse_lines_match_the_library(workdir, model_path, tmp_path, capsys):
    sentences = toylang.short_sentences(6, 77)
    _write_sentences(tmp_path / "in.txt", sentences)
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(sentences)
    model_set = modelfile.load_model_set(model_path)
    for words, line in zip(sentences, lines):
        tree_text, logprob, status = line.split("\t")
        result = search.parse(model_set, words, Config())
        assert tree_text == format_tree(result.tree)
        assert logprob == f"{result.logprob:.6f}"
        assert status == result.status == "optimal"


def test_parse_skips_blank_and_overlong_lines(model_path, tmp_path, capsys):
    (tmp_path / "in.txt").write_text("the dog runs\n\n" + "w " * 41 + "\n")
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "SKIP\t\tempty line"
    assert lines[2] == "SKIP\t\t41 words exceed the 40-word limit"


def test_parse_max_length_flag(model_path, tmp_path, capsys):
    (tmp_path / "in.txt").write_text("a big dog runs\n")
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt"),
                     "--max-length", "3"]) == 0
    assert capsys.readouterr().out == "SKIP\t\t4 words exceed the 3-word limit\n"


def test_parse_reads_stdin(model_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("the dog runs\n"))
    assert cli.main(["parse", model_path]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "\toptimal" in out


@given(st.text(alphabet="ab \n\r\x0b\x0c\x1c\x85\u2028"))
def test_parse_reads_the_lines_str_splitlines_finds(text):
    lines = [line.split() for line in text.splitlines()]
    undecodable = []
    assert list(cli._sentences(io.StringIO(text), undecodable)) == lines
    assert list(cli._sentences(io.BytesIO(text.encode("utf-8")),
                               undecodable)) == lines
    assert undecodable == []


def test_parse_answers_each_line_before_the_next_is_written(model_path):
    """`parse` reads its input as it goes and flushes each output line, so
    a pipe consumer has line 1's parse before it writes line 2."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
            [sys.executable, "-m", "dtparser.cli", "parse", model_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env) as proc:
        try:
            proc.stdin.write("the dog runs\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "no output for line 1 while line 2 was unwritten"
            assert proc.stdout.readline().endswith("\toptimal\n")
            proc.stdin.write("rex runs\n")
            proc.stdin.close()
            assert proc.stdout.readline().endswith("\toptimal\n")
            assert proc.wait(timeout=60) == cli.EXIT_OK
        finally:
            proc.kill()


def test_parse_writes_output_files(model_path, tmp_path, capsys):
    (tmp_path / "in.txt").write_text("the dog runs\n")
    out = tmp_path / "out.txt"
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt"),
                     "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert "\toptimal" in out.read_text()


def test_parse_workers_preserve_order(workdir, model_path, tmp_path, capsys):
    sentences = toylang.short_sentences(10, 78)
    _write_sentences(tmp_path / "in.txt", sentences)
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt")]) == 0
    serial = capsys.readouterr().out
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt"),
                     "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched line parser")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_parse_prints_finished_lines_as_they_come(model_path, tmp_path,
                                                  capsys, monkeypatch,
                                                  workers):
    sentences = toylang.short_sentences(16, 79)
    _write_sentences(tmp_path / "in.txt", sentences)
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt")]) == 0
    finished = capsys.readouterr().out.splitlines()
    real = cli._parse_line

    def failing(model_set, words, config):
        if words == ["boom"]:
            raise DTParserError("boom")
        return real(model_set, words, config)

    monkeypatch.setattr(cli, "_parse_line", failing)
    _write_sentences(tmp_path / "in.txt", sentences + [["boom"]])
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt"),
                     "--workers", workers]) == cli.EXIT_DATA
    printed = capsys.readouterr().out.splitlines()
    # Lines finished before the failing one are already out, in order.
    assert printed and printed == finished[:len(printed)]
    if workers == "1":
        assert printed == finished


def test_parse_memory_cap_is_reported(model_path, tmp_path, capsys):
    _write_sentences(tmp_path / "in.txt",
                     ["the old ball runs a old cat in the park".split()])
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt"),
                     "--max-hypotheses", "10"]) == 0
    line = capsys.readouterr().out.rstrip("\n")
    assert line.endswith("\tsearch-error-memory")
    assert line.startswith("(")


def test_parse_reports_no_parse_lines(model_path, tmp_path, capsys, monkeypatch):
    dead = SearchResult(tree=None, logprob=float("-inf"),
                        status=search.STATUS_NO_PARSE, expanded=0)
    monkeypatch.setattr(cli.search, "parse", lambda *a, **k: dead)
    (tmp_path / "in.txt").write_text("the dog runs\n")
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt")]) == 0
    assert capsys.readouterr().out == "NOPARSE\t\tno-parse\n"


def test_one_failed_sentence_does_not_sink_the_batch(model_path, tmp_path,
                                                     capsys, caplog,
                                                     monkeypatch):
    sentences = toylang.short_sentences(6, 80)
    _write_sentences(tmp_path / "in.txt", sentences)
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt")]) == 0
    finished = capsys.readouterr().out.splitlines()
    real = search.parse

    def failing(model_set, words, config):
        if words == ["boom"]:
            raise RuntimeError("search fell over\n\tat one sentence")
        return real(model_set, words, config)

    monkeypatch.setattr(cli.search, "parse", failing)
    _write_sentences(tmp_path / "in.txt",
                     sentences[:3] + [["boom"]] + sentences[3:])
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt")]) == \
        cli.EXIT_INTERNAL
    printed = capsys.readouterr().out.splitlines()
    assert printed == finished[:3] + [
        "ERROR\t\tRuntimeError: search fell over at one sentence"] + \
        finished[3:]
    failures = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(failures) == 1 and failures[0].exc_info is not None


def test_parse_rejects_a_corrupt_model(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("{}")
    (tmp_path / "in.txt").write_text("a\nb\n")
    for workers in ("1", "2"):  # refused before any worker starts
        assert cli.main(["parse", str(bad), str(tmp_path / "in.txt"),
                         "--workers", workers]) == cli.EXIT_DATA
        assert "dtparser parse: error:" in capsys.readouterr().err


def test_parse_missing_input_file(model_path, capsys):
    assert cli.main(["parse", model_path, "/nonexistent.txt"]) == cli.EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_parse_exits_2_at_a_line_that_is_not_utf8(model_path, tmp_path,
                                                  capsys):
    (tmp_path / "in.txt").write_bytes(b"the dog runs\n\xff\xfe bad\nrex runs\n")
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt")]) == \
        cli.EXIT_DATA
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].endswith("\toptimal")
    assert "dtparser parse: error:" in captured.err
    assert "utf-8" in captured.err and "Traceback" not in captured.err
    assert f"{tmp_path / 'in.txt'}:2: " in captured.err


def test_parse_workers_print_the_lines_before_one_that_is_not_utf8(
        model_path, tmp_path, capsys):
    """The worker pool reads every line ahead, and the line that does not
    decode ends the input: the lines before it are parsed and printed
    before `parse` exits 2, as they are without workers."""
    (tmp_path / "in.txt").write_bytes(b"the dog runs\n\xff\xfe bad\n")
    assert cli.main(["parse", model_path, str(tmp_path / "in.txt"),
                     "--workers", "2"]) == cli.EXIT_DATA
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].endswith("\toptimal")
    assert f"{tmp_path / 'in.txt'}:2: not utf-8" in captured.err
    assert "Traceback" not in captured.err


# --- eval / report ---

def test_eval_gold_against_itself(workdir, capsys):
    tb = str(workdir / "toy.mrg")
    assert cli.main(["eval", tb, tb, "--ranges", "1:40"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "Measure,1-40"
    assert "Comparisons,50" in lines
    for row in ("Tagging Accuracy", "Precision", "Recall",
                "Labelled Precision", "Labelled Recall"):
        assert f"{row},100.0%" in lines
    assert "Crossings Per Sentence,0.00" in lines


def test_eval_default_ranges(workdir, capsys):
    tb = str(workdir / "toy.mrg")
    assert cli.main(["eval", tb, tb]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Measure,4-40,4-25,10-20"


def test_eval_toggles_still_score_perfectly(workdir, capsys):
    tb = str(workdir / "toy.mrg")
    assert cli.main(["eval", tb, tb, "--ranges", "1:40", "--no-root",
                     "--unique"]) == 0
    out = capsys.readouterr().out
    assert "Labelled Precision,100.0%" in out and "Recall,100.0%" in out


def test_eval_sentence_tsv(workdir, tmp_path, capsys):
    tb = str(workdir / "toy.mrg")
    tsv = tmp_path / "sentences.tsv"
    assert cli.main(["eval", tb, tb, "--sentences", str(tsv)]) == 0
    capsys.readouterr()
    lines = tsv.read_text().splitlines()
    assert lines[0].split("\t") == [
        "sentence", "length", "gold", "test", "correct", "correct_labelled",
        "crossings", "tags_correct"]
    assert len(lines) == 51
    assert lines[1].startswith("0\t")


def test_eval_bad_ranges(workdir, capsys):
    tb = str(workdir / "toy.mrg")
    assert cli.main(["eval", tb, tb, "--ranges", "3"]) == cli.EXIT_DATA
    assert "bad length range" in capsys.readouterr().err


def test_eval_tree_count_mismatch(workdir, toy_treebank, tmp_path, capsys):
    short = tmp_path / "short.mrg"
    write_treebank(toy_treebank[:-1], short)
    code = cli.main(["eval", str(workdir / "toy.mrg"), str(short)])
    assert code == cli.EXIT_DATA
    assert "49" in capsys.readouterr().err


def test_eval_word_mismatch(workdir, toy_treebank, tmp_path, capsys):
    text = format_tree(toy_treebank[0])
    first_word = leaves(toy_treebank[0])[0].word
    mangled = tmp_path / "mangled.mrg"
    lines = [text.replace(f"{first_word}_", "zzz_", 1)]
    lines += [format_tree(t) for t in toy_treebank[1:]]
    mangled.write_text("\n".join(lines) + "\n")
    code = cli.main(["eval", str(workdir / "toy.mrg"), str(mangled)])
    assert code == cli.EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_report_appends_a_length_profile(workdir, toy_treebank, capsys):
    tb = str(workdir / "toy.mrg")
    assert cli.main(["report", tb, tb, "--ranges", "1:40"]) == 0
    out = capsys.readouterr().out
    header = "Length,Crossings Per Sentence,Precision,Recall,Frequency"
    assert f"\n\n{header}\n" in out
    profile = out.split(header + "\n", 1)[1].strip().splitlines()
    frequencies = [int(row.split(",")[-1]) for row in profile]
    assert sum(frequencies) == len(toy_treebank)
    assert all(row.split(",")[2] == "100.0%" for row in profile)


def test_trees_deeper_than_the_recursion_limit_train_and_score(tmp_path,
                                                                capsys):
    deep = toylang.DEEP
    tb = str(tmp_path / "deep.mrg")
    write_treebank(toylang.corpus(20, 3) + [toylang.unary_chain(deep),
                                           toylang.right_branching(deep)], tb)
    classes = str(tmp_path / "deep.classes")
    assert cli.main(["classes", tb, "-o", classes]) == 0
    assert cli.main(["train", tb, "-o", str(tmp_path / "deep.model"),
                     "--classes", classes]) == 0
    assert f"unary chain cap: {deep}" in capsys.readouterr().out
    for command in ("eval", "report"):
        assert cli.main([command, tb, tb, "--ranges", f"1:{deep + 1}"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "Comparisons,22" in lines
        assert "Labelled Recall,100.0%" in lines


# --- plumbing ---

def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == cli.EXIT_USAGE
    with pytest.raises(SystemExit) as err:
        cli.main(["train", "treebank.mrg"])  # -o is required
    assert err.value.code == cli.EXIT_USAGE
    capsys.readouterr()


def test_missing_treebank_exits_2(tmp_path, capsys):
    code = cli.main(["classes", "/no/such/file", "-o", str(tmp_path / "c")])
    assert code == cli.EXIT_DATA
    assert "dtparser classes: error:" in capsys.readouterr().err


def test_train_exits_2_on_a_treebank_that_is_not_utf8(workdir, tmp_path,
                                                       capsys):
    treebank = tmp_path / "bad.mrg"
    treebank.write_bytes((workdir / "toy.mrg").read_bytes()
                         + b"(S (NP \xff_NNP) (VP runs_VBZ))\n")
    assert cli.main(["train", str(treebank), "-o", str(tmp_path / "m")]
                    + _flags(workdir)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "dtparser train: error:" in err
    lines = (workdir / "toy.mrg").read_text().count("\n")
    assert f"{treebank}:{lines + 1}: not utf-8" in err
    assert not (tmp_path / "m").exists()


def test_config_file_that_is_not_utf8_exits_2(workdir, tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"min_events=2\n# caf\xe9\n")
    assert cli.main(["train", str(workdir / "toy.mrg"), "-o",
                     str(tmp_path / "m"), "--config", str(conf)]) == \
        cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "dtparser train: error:" in err
    assert f"{conf}:2: not utf-8" in err


@pytest.mark.parametrize("setting, message", [
    ("format=xml", "setting format='xml' is not a str in {underscore, penn}"),
    ("extension_bits=2", "5 symbols do not fit in a budget of 2 bits"),
], ids=["format", "extension-bits"])
def test_config_value_that_training_rejects_exits_2(workdir, tmp_path, capsys,
                                                    setting, message):
    conf = tmp_path / "bad.conf"
    conf.write_text(CONFIG_TEXT + setting + "\n")
    assert cli.main(["train", str(workdir / "toy.mrg"), "-o",
                     str(tmp_path / "m"), "--config", str(conf)]) == \
        cli.EXIT_DATA
    assert f"dtparser train: error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command, setting", [
    ("train", "lambda_max=0"), ("train", "lambda_max=1.0"),
    ("train", "lambda_max=1.5"), ("train", "lambda_max=nan"),
    ("train", "unk_threshold=0"), ("train", "u_max=-1"),
    ("train", "min_gain=-1"), ("train", "min_gain=nan"),
    ("train", "em_tolerance=-1"), ("train", "cluster_window=0"),
    ("train", "word_bits=0"), ("train", "tag_bits=0"),
    ("train", "label_bits=0"), ("train", "word_bits=64"),
    ("train", "grow_fraction=1.0"), ("train", "format=xml"),
    ("parse", "--max-hypotheses=0"), ("parse", "--max-hypotheses=-1"),
    ("parse", "--max-length=-5"), ("parse", "--workers=0"),
    ("parse", "--workers=-2"), ("parse", "max_length=forty"),
    ("parse", "--format=xml"),
])
def test_a_setting_outside_its_domain_exits_2(workdir, model_path, tmp_path,
                                              capsys, command, setting):
    """A flag, or a config file line, outside its setting's domain is
    refused before any file is written, with a message naming the key."""
    key = setting.lstrip("-").partition("=")[0].replace("-", "_")
    flags = [setting]
    if not setting.startswith("--"):
        (tmp_path / "bad.conf").write_text(CONFIG_TEXT + setting + "\n")
        flags = ["--config", str(tmp_path / "bad.conf")]
    (tmp_path / "in.txt").write_text("the dog runs\n")
    args = {"train": ["train", str(workdir / "toy.mrg")],
            "parse": ["parse", model_path, str(tmp_path / "in.txt")]}[command]
    assert cli.main(args + ["-o", str(tmp_path / "m")] + flags) == \
        cli.EXIT_DATA
    captured = capsys.readouterr()
    assert f"dtparser {command}: error: setting {key}=" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "m").exists()


def test_a_lambda_cap_below_one_half_trains(workdir, tmp_path):
    conf = tmp_path / "lambda.conf"
    conf.write_text(CONFIG_TEXT + "lambda_max=0.3\n")
    assert cli.main(["train", str(workdir / "toy.mrg"), "-o",
                     str(tmp_path / "m"), "--config", str(conf),
                     "--unk-threshold", "1"]) == cli.EXIT_OK
    model_set = modelfile.load_model_set(tmp_path / "m")
    assert all(0.0 <= lam <= 0.3 for model in model_set.models.values()
               for lam in model.bucket_lambdas.values())


def test_a_model_that_fails_to_train_is_named(toy_treebank):
    """An error raised while one model trains names that model: here a
    word class tree without the unknown-word fallback meets a word rarer
    than `unk_threshold`."""
    config = toy_config().replace(unk_threshold=5)
    vocab, class_trees = models.build_classes(toy_treebank, config)
    class_trees["word"] = dataclasses.replace(class_trees["word"],
                                              fallback=None)
    grow, heldout = corpus.split_corpus(toy_treebank, config.grow_fraction,
                                        config.seed)
    with pytest.raises(UnknownId, match="^tag model: symbol "):
        models.train(grow, heldout, config, classes=(vocab, class_trees))


@pytest.mark.parametrize("setting", [
    "--unk-threshold=3", "unk_threshold=2", "word_bits=12", "tag_bits=9",
    "label_bits=7", "extension_bits=4",
])
def test_a_setting_the_classes_file_fixes_must_match_it(workdir, tmp_path,
                                                       capsys, setting):
    """The classes file was built with unk_threshold 1 and the default
    bit budgets, which fix the vocabulary and the codes; training through
    it with another value is refused before any file is written, with a
    message naming the key and both values."""
    key, _, value = setting.lstrip("-").replace("-", "_").partition("=")
    flag = setting.startswith("--")
    conf = tmp_path / "other.conf"
    conf.write_text(CONFIG_TEXT + "unk_threshold=1\n"
                    + ("" if flag else setting + "\n"))
    built = 1 if key == "unk_threshold" else getattr(Config(), key)
    assert cli.main(["train", str(workdir / "toy.mrg"), "-o",
                     str(tmp_path / "m"), "--config", str(conf),
                     "--classes", str(workdir / "toy.classes")]
                    + ([setting] if flag else [])) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert (f"dtparser train: error: setting {key}={value}, but the classes "
            f"were built with {key}={built}") in captured.err
    assert captured.out == ""
    assert not (tmp_path / "m").exists()


def test_renormalize_is_an_unknown_setting(workdir, tmp_path, capsys):
    conf = tmp_path / "renormalize.conf"
    conf.write_text(CONFIG_TEXT + "renormalize=true\n")
    assert cli.main(["train", str(workdir / "toy.mrg"), "-o",
                     str(tmp_path / "m"), "--config", str(conf)]) == \
        cli.EXIT_DATA
    assert f"{conf}:3: unknown setting 'renormalize=true'" in \
        capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_flags_override_config_files(tmp_path):
    conf = tmp_path / "x.conf"
    conf.write_text("seed=99\nmin_events=7\n")
    parser = cli._build_parser()
    base = ["train", "tb", "-o", "m", "--config", str(conf)]
    settings = cli._load_settings(parser.parse_args(base + ["--seed", "5"]))
    assert settings.seed == 5
    assert settings.min_events == 7
    settings = cli._load_settings(parser.parse_args(base))
    assert settings.seed == 99
