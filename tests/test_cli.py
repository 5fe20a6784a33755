"""End-to-end pipeline exercise of the command-line entry point.

A module-scoped fixture drives every subcommand once, on a deliberately tiny
model, then individual tests inspect artifacts, exit codes, and determinism.
"""

import json
from types import SimpleNamespace

import pytest

from daptlab import cli
from daptlab.finetune import FinetuneConfig
from daptlab.model import ModelConfig
from daptlab.pretrain import TrainConfig
from daptlab.synth import PAIR_WORDS, classification_records, tagging_records

POOL = PAIR_WORDS[:16]

MODEL_SETS = ["--set", "model.num_layers=3", "--set", "model.hidden=8",
              "--set", "model.num_heads=2", "--set", "model.ffn_dim=16",
              "--set", "model.max_seq=16", "--set", "model.dropout=0.0"]

FINETUNE_SETS = MODEL_SETS + ["--set", "finetune.epochs=1",
                              "--set", "finetune.lr=1e-3",
                              "--set", "finetune.batch_size=8"]


def run_ok(argv):
    code = cli.main(argv)
    assert code == 0, f"command failed: {argv}"


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    run = root / "run"

    base_docs = [" ".join(POOL[(i + j) % 16] for j in range(8)) for i in range(16)]
    cloze_docs = ["are virus and malware similar yes",
                  "no virus and malware are similar",
                  "yes no are and similar virus malware",
                  "malware virus similar and are no yes"]
    records = [{"id": f"n{i}", "source": "nvd", "text": t}
               for i, t in enumerate(base_docs + cloze_docs)]
    records.append({"id": "t0", "source": "twitter",
                    "text": "security advisory today"})
    records.append({"id": "b0", "source": "blog", "text": "too short"})
    dump = root / "dump.jsonl"
    write_jsonl(dump, records)
    with open(dump, "a", encoding="utf-8") as handle:
        handle.write("{not json\n")  # one malformed line, under the 10% limit

    domain_docs = [" ".join(POOL[(i + j) % 16] for j in range(7, -1, -1))
                   for i in range(12)]
    domain = root / "domain.jsonl"
    write_jsonl(domain, [{"id": f"d{i}", "source": "nvd", "text": t}
                         for i, t in enumerate(domain_docs)])

    pairs = root / "pairs.jsonl"
    write_jsonl(pairs, [{"word1": POOL[0], "word2": POOL[1]},
                        {"word1": POOL[2], "word2": POOL[3]}])

    classify = root / "classify.jsonl"
    write_jsonl(classify, classification_records(24, seed=3))
    tagged = root / "tagged.jsonl"
    write_jsonl(tagged, tagging_records(20, seed=4))

    base_scores = root / "base_scores.json"
    base_scores.write_text(json.dumps({"total_score": 0.600994}))
    adapted_scores = root / "adapted_scores.json"
    adapted_scores.write_text(json.dumps({"total_score": 0.546831}))

    out = ["--out", str(run)]
    corpus = ["--corpus", str(run / "corpus.jsonl")]
    vocab = ["--vocab", str(run / "vocab.txt")]

    run_ok(["corpus-build", str(dump)] + out)
    run_ok(["tokenizer-train"] + corpus + out +
           ["--set", "tokenizer.vocab_size=140", "--set", "tokenizer.min_frequency=1"])
    run_ok(["corpus-stats"] + corpus + vocab + out)
    run_ok(["pretrain"] + corpus + vocab + out + MODEL_SETS +
           ["--set", "train.base.epochs=3", "--set", "train.base.batch_size=8",
            "--set", "train.base.warmup_steps=2"])
    run_ok(["dapt", "--corpus", str(domain), "--checkpoint", str(run / "base.ckpt"),
            "--name", "adapted"] + vocab + out + MODEL_SETS +
           ["--set", "train.dapt.epochs=1", "--set", "train.dapt.batch_size=8",
            "--set", "train.dapt.warmup_steps=1"])
    for ckpt in ("base", "adapted"):
        run_ok(["eval-cluster"] + corpus + vocab + out +
               ["--checkpoint", str(run / f"{ckpt}.ckpt"),
                "--set", "eval.k_min=2", "--set", "eval.k_max=3"])
        run_ok(["eval-similarity", "--pairs", str(pairs)] + vocab + out +
               ["--checkpoint", str(run / f"{ckpt}.ckpt")])
    run_ok(["finetune-classify", "--data", str(classify),
            "--checkpoint", str(run / "base.ckpt")] + vocab + out + FINETUNE_SETS)
    run_ok(["finetune-tag", "--data", str(tagged),
            "--checkpoint", str(run / "base.ckpt")] + vocab + out + FINETUNE_SETS)
    run_ok(["forgetting", "--base", str(base_scores),
            "--adapted", str(adapted_scores)] + out)
    run_ok(["report", str(run)])
    return root, run


class TestPipelineArtifacts:
    def test_corpus_build_outputs(self, pipeline):
        _, run = pipeline
        lines = (run / "corpus.jsonl").read_text().splitlines()
        assert len(lines) == 21  # 20 nvd + 1 twitter; the short blog is dropped
        report = (run / "drop_report.tsv").read_text()
        assert "blog\t1" in report
        assert "kept\t21" in report

    def test_tokenizer_and_stats_outputs(self, pipeline):
        _, run = pipeline
        pieces = (run / "vocab.txt").read_text().splitlines()
        for word in ("yes", "no", "are", "similar") + POOL[:4]:
            assert word in pieces
        stats = (run / "corpus_stats.tsv").read_text().splitlines()
        assert stats[0] == "Source\tMin\tMax\tSum\tMedian\tMean\tEntries"
        assert stats[-1].startswith("total\t")

    def test_train_outputs(self, pipeline):
        _, run = pipeline
        for name in ("base", "adapted"):
            assert (run / f"{name}.ckpt").stat().st_size > 0
            loss = (run / f"{name}_loss.tsv").read_text().splitlines()
            assert loss[0] == "step\tloss"
        assert len((run / "adapted_loss.tsv").read_text().splitlines()) == 3  # 2 steps

    def test_eval_outputs(self, pipeline):
        _, run = pipeline
        for name in ("base", "adapted"):
            cluster = (run / f"cluster_{name}.tsv").read_text().splitlines()
            assert cluster[0] == "model\tk\tsilhouette"
            assert [row.split("\t")[1] for row in cluster[1:]] == ["2", "3"]
            similarity = (run / f"similarity_{name}.tsv").read_text().splitlines()
            assert similarity[0] == "model\tf1"
            assert similarity[1].startswith(f"{name}\t")
            # two positives balanced with two sampled negatives
            assert len(similarity[4:]) == 4

    def test_finetune_outputs(self, pipeline):
        _, run = pipeline
        table = (run / "classify_classify_base.tsv").read_text().splitlines()
        assert table[0].startswith("task\tmodel\tmetric")
        row = table[1].split("\t")
        assert row[:3] == ["classify", "base", "f1"]
        assert len(row[6].split(",")) == 5  # one value per seed
        tag_row = (run / "tag_tagged_base.tsv").read_text().splitlines()[1].split("\t")
        assert tag_row[:3] == ["tagged", "base", "span_f1"]
        assert tag_row[7] == "token_f1"

    def test_forgetting_output(self, pipeline):
        _, run = pipeline
        text = (run / "forgetting.tsv").read_text()
        assert text.splitlines()[0] == "task\tbase\tadapted\tdelta\tnote"
        assert "total_score\t0.6010\t0.5468\t-0.0542\t-" in text
        assert text.splitlines()[-1] == "mean\t-\t-\t-0.0542\t-"

    def test_report_merges_sections(self, pipeline):
        _, run = pipeline
        text = (run / "report.txt").read_text()
        for section in ("# clustering (silhouette)", "# word similarity (cloze)",
                        "# classification (mean (std) over seeds)",
                        "# tagging (mean (std) over seeds)", "# forgetting"):
            assert section in text
        cluster_lines = text.split("# clustering (silhouette)\n")[1].splitlines()
        assert cluster_lines[0] == "k\tadapted\tbase"
        for row in cluster_lines[1:3]:
            assert row.count("*") == 1  # exactly one best cell per k

    def test_report_rerun_is_byte_identical(self, pipeline):
        _, run = pipeline
        before = (run / "report.txt").read_bytes()
        run_ok(["report", str(run)])
        assert (run / "report.txt").read_bytes() == before

    def test_eval_cluster_rerun_is_byte_identical(self, pipeline):
        _, run = pipeline
        path = run / "cluster_base.tsv"
        before = path.read_bytes()
        run_ok(["eval-cluster", "--corpus", str(run / "corpus.jsonl"),
                "--vocab", str(run / "vocab.txt"),
                "--checkpoint", str(run / "base.ckpt"), "--out", str(run),
                "--set", "eval.k_min=2", "--set", "eval.k_max=3"])
        assert path.read_bytes() == before

    def test_pretrain_rerun_is_byte_identical(self, pipeline):
        _, run = pipeline
        other = run.parent / "run_again"
        run_ok(["pretrain", "--corpus", str(run / "corpus.jsonl"),
                "--vocab", str(run / "vocab.txt"), "--out", str(other)] +
               MODEL_SETS +
               ["--set", "train.base.epochs=3", "--set", "train.base.batch_size=8",
                "--set", "train.base.warmup_steps=2"])
        assert (other / "base.ckpt").read_bytes() == (run / "base.ckpt").read_bytes()
        assert (other / "base_loss.tsv").read_bytes() == (run / "base_loss.tsv").read_bytes()

    def test_model_name_flag_renames_artifacts(self, pipeline):
        _, run = pipeline
        run_ok(["eval-cluster", "--corpus", str(run / "corpus.jsonl"),
                "--vocab", str(run / "vocab.txt"),
                "--checkpoint", str(run / "base.ckpt"), "--model-name", "probe",
                "--out", str(run), "--set", "eval.k_min=2", "--set", "eval.k_max=2"])
        lines = (run / "cluster_probe.tsv").read_text().splitlines()
        assert lines[1].startswith("probe\t2\t")

    def test_config_file_supplies_paths(self, pipeline, capsys):
        root, run = pipeline
        ini = root / "settings.ini"
        ini.write_text(f"[paths]\ncorpus = {run / 'corpus.jsonl'}\n"
                       f"vocab = {run / 'vocab.txt'}\nout = {run}\n")
        run_ok(["corpus-stats", "--config", str(ini)])
        assert "total\t" in capsys.readouterr().out


class TestReportGrid:
    def test_missing_cell_tie_and_single_model(self, tmp_path):
        (tmp_path / "cluster_a.tsv").write_text(
            "model\tk\tsilhouette\na\t2\t0.100000\na\t3\t0.300000\na\t4\t0.200000\n")
        (tmp_path / "cluster_b.tsv").write_text(
            "model\tk\tsilhouette\nb\t2\t0.100000\nb\t4\t0.400000\n")
        (tmp_path / "similarity_a.tsv").write_text("model\tf1\na\t0.500000\n")
        run_ok(["report", str(tmp_path)])
        assert (tmp_path / "report.txt").read_text() == (
            "# clustering (silhouette)\n"
            "k\ta\tb\n"
            "2\t0.100000*\t0.100000*\n"  # a tie stars both cells
            "3\t0.300000\t-\n"  # a missing cell reads '-'; a lone cell is not starred
            "4\t0.200000\t0.400000*\n"
            "\n"
            "# word similarity (cloze)\n"
            "metric\ta\n"
            "f1\t0.500000\n")  # one model in the section: no star


class TestErrorHandling:
    def test_no_command(self, capsys):
        assert cli.main([]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "error: a command is required" in err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("daptlab ")

    def test_missing_dump_file(self, capsys, tmp_path):
        assert cli.main(["corpus-build", str(tmp_path / "nope.jsonl"),
                         "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dump file not found")
        assert err.count("\n") == 1  # single line

    def test_no_dumps_configured(self, capsys, tmp_path):
        assert cli.main(["corpus-build", "--out", str(tmp_path)]) == 1
        assert "no dump files given" in capsys.readouterr().err

    def test_missing_config_file(self, capsys, tmp_path):
        assert cli.main(["corpus-build", "--config", str(tmp_path / "no.ini")]) == 1
        assert "config file not found" in capsys.readouterr().err

    def test_bad_set_override(self, capsys, tmp_path):
        assert cli.main(["corpus-build", "--set", "oops", "--out", str(tmp_path)]) == 1
        assert "bad --set override" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "out = somewhere\n",
        "[paths]\nout = a\nout = b\n",
        "[paths]\nout = a\n[paths]\nvocab = v\n",
    ], ids=["no-section-header", "duplicate-option", "duplicate-section"])
    def test_malformed_config_file(self, capsys, tmp_path, monkeypatch, text):
        monkeypatch.chdir(tmp_path)
        dump = tmp_path / "dump.jsonl"
        write_jsonl(dump, [{"id": "n0", "source": "nvd", "text": "a b c"}])
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        assert cli.main(["corpus-build", str(dump), "--config", str(ini),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad config file {ini}: ")
        assert err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [ini, dump]

    def test_percent_in_config_value_is_literal(self, tmp_path):
        dump = tmp_path / "dump.jsonl"
        write_jsonl(dump, [{"id": "n0", "source": "nvd", "text": "a b c"}])
        ini = tmp_path / "pct.ini"
        ini.write_text(f"[paths]\nout = {tmp_path / '100%'}\n")
        run_ok(["corpus-build", str(dump), "--config", str(ini)])
        assert (tmp_path / "100%" / "corpus.jsonl").is_file()

    def test_bad_config_value(self, pipeline, capsys, tmp_path):
        _, run = pipeline
        assert cli.main(["pretrain", "--corpus", str(run / "corpus.jsonl"),
                         "--vocab", str(run / "vocab.txt"), "--out", str(tmp_path),
                         "--set", "model.num_layers=many"]) == 1
        assert "bad config value [model] num_layers" in capsys.readouterr().err

    def test_bad_k_range(self, pipeline, capsys, tmp_path):
        _, run = pipeline
        assert cli.main(["eval-cluster", "--corpus", str(run / "corpus.jsonl"),
                         "--vocab", str(run / "vocab.txt"),
                         "--checkpoint", str(run / "base.ckpt"),
                         "--out", str(tmp_path),
                         "--set", "eval.k_min=5", "--set", "eval.k_max=3"]) == 1
        assert "bad k range" in capsys.readouterr().err

    def test_vocab_checkpoint_mismatch(self, pipeline, capsys, tmp_path):
        _, run = pipeline
        small = tmp_path / "small_vocab.txt"
        small.write_text((run / "vocab.txt").read_text() + "extrapiece\n")
        assert cli.main(["eval-cluster", "--corpus", str(run / "corpus.jsonl"),
                         "--vocab", str(small),
                         "--checkpoint", str(run / "base.ckpt"),
                         "--out", str(tmp_path)]) == 1
        assert "does not match checkpoint" in capsys.readouterr().err

    def test_finetune_tag_bad_record(self, pipeline, capsys, tmp_path):
        _, run = pipeline
        data = tmp_path / "tagged.jsonl"
        write_jsonl(data, tagging_records(4, seed=0) + [{"words": ["a"], "tags": ["O"]}])
        out = tmp_path / "out"
        assert cli.main(["finetune-tag", "--data", str(data),
                         "--checkpoint", str(run / "base.ckpt"),
                         "--vocab", str(run / "vocab.txt"), "--out", str(out)] +
                        FINETUNE_SETS) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: record 4 needs tokens and tags")
        assert not out.exists() or list(out.iterdir()) == []

    def test_forgetting_bad_json(self, pipeline, capsys, tmp_path):
        root, _ = pipeline
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert cli.main(["forgetting", "--base", str(broken),
                         "--adapted", str(root / "adapted_scores.json"),
                         "--out", str(tmp_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_forgetting_non_numeric_score(self, pipeline, capsys, tmp_path):
        root, _ = pipeline
        bad = tmp_path / "bad.json"
        bad.write_text('{"total_score": "high"}')
        assert cli.main(["forgetting", "--base", str(bad),
                         "--adapted", str(root / "adapted_scores.json"),
                         "--out", str(tmp_path)]) == 1
        assert "is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity",
                                     pytest.param("9" * 400, id="400-digit")])
    def test_forgetting_non_finite_score(self, capsys, tmp_path, raw):
        base, adapted = tmp_path / "base.json", tmp_path / "adapted.json"
        base.write_text('{"relevance": 0.5, "entities": 0.6}')
        adapted.write_text(f'{{"relevance": 0.5, "entities": {raw}}}')
        out = tmp_path / "out"
        assert cli.main(["forgetting", "--base", str(base), "--adapted", str(adapted),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.strip() == ("error: adapted score file: score for task 'entities' "
                               "is not a finite number")
        assert not (out / "forgetting.tsv").exists()

    def test_report_empty_dir(self, capsys, tmp_path):
        assert cli.main(["report", str(tmp_path)]) == 1
        assert "no result files found" in capsys.readouterr().err

    def test_report_missing_dir(self, capsys, tmp_path):
        assert cli.main(["report", str(tmp_path / "ghost")]) == 1
        assert "run directory not found" in capsys.readouterr().err

    def test_report_conflicting_duplicates(self, capsys, tmp_path):
        (tmp_path / "cluster_a.tsv").write_text(
            "model\tk\tsilhouette\ndesk\t2\t0.100000\n")
        (tmp_path / "cluster_b.tsv").write_text(
            "model\tk\tsilhouette\ndesk\t2\t0.200000\n")
        assert cli.main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "conflicting duplicate rows" in err
        assert "cluster_a.tsv" in err and "cluster_b.tsv" in err

    @pytest.mark.parametrize("name,content", [
        ("cluster_m.tsv", "model\tk\tsilhouette\nm\t2\n"),
        ("similarity_m.tsv", "model\tf1\n"),
        ("classify_t_m.tsv", "task\tmodel\tmetric\nt\tm\tf1\n"),
        ("tag_t_m.tsv", "task\tmodel\tmetric\nt\tm\tspan_f1\n"),
    ])
    def test_report_malformed_table(self, capsys, tmp_path, name, content):
        (tmp_path / name).write_text(content)
        assert cli.main(["report", str(tmp_path)]) == 1
        assert "malformed" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_two(self, pipeline, capsys, tmp_path):
        _, run = pipeline
        assert cli.main(["pretrain", "--corpus", str(run / "corpus.jsonl"),
                         "--vocab", str(run / "vocab.txt"), "--out", str(tmp_path)] +
                        MODEL_SETS +
                        ["--set", "train.base.peak_lr=1e12",
                         "--set", "train.base.epochs=3",
                         "--set", "train.base.batch_size=8",
                         "--set", "train.base.warmup_steps=2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert not (tmp_path / "base.ckpt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finetune_divergence_exits_two(self, pipeline, capsys, tmp_path):
        root, run = pipeline
        assert cli.main(["finetune-classify", "--data", str(root / "classify.jsonl"),
                         "--checkpoint", str(run / "base.ckpt"),
                         "--vocab", str(run / "vocab.txt"), "--out", str(tmp_path)] +
                        FINETUNE_SETS + ["--set", "finetune.lr=1e12"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite loss" in err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("command,flag,value", [
        ("corpus-build", "--seed", "1"),
        ("corpus-stats", "--seed", "1"),
        ("tokenizer-train", "--seed", "1"),
        ("forgetting", "--seed", "1"),
        ("report", "--seed", "1"),
        ("report", "--out", "elsewhere"),
        ("report", "--set", "paths.out=elsewhere"),
    ])
    def test_flag_the_command_does_not_read(self, pipeline, capsys, tmp_path,
                                            monkeypatch, command, flag, value):
        root, run = pipeline
        monkeypatch.chdir(tmp_path)
        report_dir = tmp_path / "results"
        report_dir.mkdir()
        (report_dir / "cluster_a.tsv").write_text("model\tk\tsilhouette\na\t2\t0.1\n")
        out = ["--out", str(tmp_path / "out")]
        inputs = {
            "corpus-build": [str(root / "dump.jsonl")] + out,
            "corpus-stats": ["--corpus", str(run / "corpus.jsonl"),
                             "--vocab", str(run / "vocab.txt")] + out,
            "tokenizer-train": ["--corpus", str(run / "corpus.jsonl")] + out,
            "forgetting": ["--base", str(root / "base_scores.json"),
                           "--adapted", str(root / "adapted_scores.json")] + out,
            "report": [str(report_dir)],
        }
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as exc:
            cli.main([command] + inputs[command] + [flag, value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: daptlab ")
        assert f"error: unrecognized arguments: {flag} {value}" in err
        assert sorted(tmp_path.rglob("*")) == before


class TestSeedFlag:
    """--seed overrides the command's seed, over any INI value."""

    def pretrain(self, run, out, *extra):
        run_ok(["pretrain", "--corpus", str(run / "corpus.jsonl"),
                "--vocab", str(run / "vocab.txt"), "--out", str(out)] + MODEL_SETS +
               ["--set", "train.base.epochs=3", "--set", "train.base.batch_size=8",
                "--set", "train.base.warmup_steps=2", *extra])
        return (out / "base.ckpt").read_bytes()

    def test_pretrain_flag_equals_ini_seed(self, pipeline, tmp_path):
        _, run = pipeline
        flag = self.pretrain(run, tmp_path / "flag", "--seed", "2")
        assert flag == self.pretrain(run, tmp_path / "ini", "--set", "train.base.seed=2")
        assert flag != (run / "base.ckpt").read_bytes()  # the fixture ran seed 0

    def test_pretrain_flag_wins_over_ini(self, pipeline, tmp_path):
        _, run = pipeline
        both = self.pretrain(run, tmp_path / "both", "--set", "train.base.seed=5",
                             "--seed", "2")
        assert both == self.pretrain(run, tmp_path / "ini", "--set", "train.base.seed=2")

    def test_eval_cluster(self, pipeline, tmp_path):
        _, run = pipeline
        tables = []
        for name, extra in (("flag", ["--seed", "1"]), ("ini", ["--set", "eval.seed=1"])):
            run_ok(["eval-cluster", "--corpus", str(run / "corpus.jsonl"),
                    "--vocab", str(run / "vocab.txt"),
                    "--checkpoint", str(run / "base.ckpt"), "--out", str(tmp_path / name),
                    "--set", "eval.k_min=2", "--set", "eval.k_max=3", *extra])
            tables.append((tmp_path / name / "cluster_base.tsv").read_bytes())
        assert tables[0] == tables[1]

    def test_finetune_seeds_start_at_the_flag(self, pipeline, tmp_path):
        root, run = pipeline
        tables = []
        for name, extra in (("flag", ["--seed", "3"]),
                            ("ini", ["--set", "finetune.seeds=3 4 5 6 7"])):
            run_ok(["finetune-classify", "--data", str(root / "classify.jsonl"),
                    "--checkpoint", str(run / "base.ckpt"),
                    "--vocab", str(run / "vocab.txt"), "--out", str(tmp_path / name)] +
                   FINETUNE_SETS + extra)
            tables.append((tmp_path / name / "classify_classify_base.tsv").read_bytes())
        assert tables[0] == tables[1]


# INI keys the CLI does not read; setting them must change no built config.
IGNORED_SETS = ["model.type_vocab=3", "model.vocab_size=7", "train.base.max_seq=8",
                "finetune.max_seq=8"]


class TestConfigDefaults:
    """A key left out of the INI takes the config dataclass's own default."""

    @pytest.mark.parametrize("overrides", [[], IGNORED_SETS], ids=["empty", "ignored"])
    def test_model_and_train_configs(self, overrides):
        cp = cli.load_config(None, overrides)
        assert cli.model_config_from(cp, 50) == ModelConfig.desk(50)
        assert cli.train_config_from(cp, "train.base", 1e-4, None) == \
            TrainConfig(peak_lr=1e-4)
        assert cli.train_config_from(cp, "train.dapt", 2e-5, None) == \
            TrainConfig(peak_lr=2e-5)

    @pytest.mark.parametrize("overrides", [[], IGNORED_SETS], ids=["empty", "ignored"])
    def test_finetune_config(self, pipeline, monkeypatch, tmp_path, overrides):
        root, run = pipeline
        seen = []

        def capture(config, params, vocab, dataset, seeds, ft, **kwargs):
            seen.append(ft)
            return SimpleNamespace(render=lambda: "", formatted="-")

        monkeypatch.setattr(cli, "finetune_classify", capture)
        argv = ["finetune-classify", "--data", str(root / "classify.jsonl"),
                "--vocab", str(run / "vocab.txt"), "--checkpoint", str(run / "base.ckpt"),
                "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert cli.main(argv) == 0
        assert seen == [FinetuneConfig()]


class TestDaptCorpusGuard:
    def dapt_argv(self, root, run, out):
        return (["dapt", "--corpus", str(root / "domain.jsonl"),
                 "--checkpoint", str(run / "base.ckpt"),
                 "--vocab", str(run / "vocab.txt"), "--out", str(out)] + MODEL_SETS +
                ["--set", "train.dapt.epochs=1", "--set", "train.dapt.batch_size=8",
                 "--set", "train.dapt.warmup_steps=1"])

    def test_missing_base_corpus_is_an_error(self, pipeline, capsys, tmp_path):
        root, run = pipeline
        argv = self.dapt_argv(root, run, tmp_path) + [
            "--set", f"paths.corpus={tmp_path / 'gone.jsonl'}"]
        assert cli.main(argv) == 1
        assert "base corpus not found" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unset_base_corpus_is_reported(self, pipeline, capsys, tmp_path):
        root, run = pipeline
        assert cli.main(self.dapt_argv(root, run, tmp_path)) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "skipping the corpus-size guard" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dapt.ckpt", "dapt_loss.tsv"]

    def test_configured_base_corpus_applies_guard(self, pipeline, capsys, tmp_path):
        root, run = pipeline
        # the domain corpus is not smaller than itself, so the guard refuses
        argv = self.dapt_argv(root, run, tmp_path) + [
            "--set", f"paths.corpus={root / 'domain.jsonl'}"]
        assert cli.main(argv) == 1
        assert "must be smaller than the base corpus" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
