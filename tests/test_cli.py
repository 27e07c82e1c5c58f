import errno
import math
import os
import random
import signal
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from qatrigger import cli, combiner
from qatrigger.baselines import load_embeddings
from qatrigger.cli import (
    RunConfig,
    build_parser,
    build_resources,
    load_config,
    main,
    read_features,
)
from qatrigger.combiner import (
    DEFAULT_MANIFEST,
    FEATURE_NAMES,
    FeatureResources,
    TrainConfig,
    load_model,
    loss_and_gradient,
    save_model,
    sigmoid,
    train,
)
from qatrigger.corpus import _read_index, attach_parses, load_scores, load_wikiqa
from qatrigger.errors import ConfigError, IngestionError
from qatrigger.evaluation import QuestionIndex
from qatrigger.ged import GedConfig, load_pos_table
from qatrigger.graphsim import LEVELS, load_df_table

from oracles import reference_df_table, reference_read_features


def run(*argv):
    return main(list(argv))


@pytest.fixture
def mini_config(mini_dir):
    return str(mini_dir / "config.ini")


# Every configuration key: (section, key, value, RunConfig field, parsed value).
EVERY_KEY = [
    *(("data", name, f"{name}.txt", name, Path(f"{name}.txt")) for name in (
        "train", "dev", "test", "conllu_train", "conllu_dev", "conllu_test",
        "index_train", "index_dev", "index_test", "scores", "embeddings",
    )),
    *(("resources", name, f"{name}.tsv", name, Path(f"{name}.tsv")) for name in (
        "df_word", "df_pair", "df_triplet", "pos_costs",
    )),
    ("features", "manifest", " bm25 ,ged,", "manifest", ("bm25", "ged")),
    ("hyper", "alpha1", "1.5", "alpha1", 1.5),
    ("hyper", "alpha2", "2.5", "alpha2", 2.5),
    ("hyper", "alpha3", "3.5", "alpha3", 3.5),
    ("hyper", "m", "4", "subgraph_m", 4),
    ("hyper", "edge_weight", "0.25", "edge_weight", 0.25),
    ("hyper", "delete_cost", "0.75", "delete_cost", 0.75),
    ("hyper", "k1", "1.25", "k1", 1.25),
    ("hyper", "b", "0.5", "b", 0.5),
    ("hyper", "n_max", "2", "n_max", 2),
    ("hyper", "l2", "0.001", "l2", 0.001),
    ("hyper", "threshold", "0.3", "threshold", 0.3),
    ("baselines", "bm25_threshold", "1.75", "bm25_threshold", 1.75),
    ("baselines", "ngram_threshold", "0.125", "ngram_threshold", 0.125),
    ("baselines", "semvec_threshold", "0.5", "semvec_threshold", 0.5),
]


class TestConfig:
    @pytest.mark.parametrize(
        "section, key, value, name, expected",
        EVERY_KEY,
        ids=[f"{section}.{key}" for section, key, *_ in EVERY_KEY],
    )
    def test_every_key_through_file_flag_and_env(
        self, section, key, value, name, expected, tmp_path
    ):
        assert sorted(row[3] for row in EVERY_KEY) == sorted(f.name for f in fields(RunConfig))
        config_file = tmp_path / "config.ini"
        config_file.write_text(f"[{section}]\n{key} = {value}\n")
        env_name = f"QATRIGGER_{section.upper()}_{key.upper()}"
        configs = {
            "file": load_config(config_file, env={}),
            "flag": load_config(None, overrides=[f"{section}.{key}={value}"], env={}),
            "env": load_config(None, env={env_name: value}),
        }
        default = RunConfig()
        for source, config in configs.items():
            wanted = expected
            if source == "file" and isinstance(expected, Path):
                wanted = config_file.parent.resolve() / expected
            assert getattr(config, name) == wanted, source
            assert getattr(default, name) != wanted
            others = [f.name for f in fields(RunConfig) if f.name != name]
            assert [getattr(config, f) for f in others] == [getattr(default, f) for f in others]
        if isinstance(expected, (int, float)):
            integer = isinstance(expected, int)
            # Each bad value and the error it must raise.
            bad = {"x": "not an integer" if integer else "not a number"}
            for value in ("nan", "inf", "-inf"):
                bad[value] = "not an integer" if integer else "not a finite number"
            for value, message in bad.items():
                with pytest.raises(ConfigError) as error:
                    load_config(None, overrides=[f"{section}.{key}={value}"], env={})
                assert str(error.value) == f"[{section}] {key}: {message}: {value!r}"

    def test_defaults_carry_published_hyperparameters(self):
        config = load_config(None, env={})
        hyper = [f.name for f in fields(RunConfig) if f.metadata["section"] == "hyper"]
        published = {
            "alpha1": 7.0, "alpha2": 5.0, "alpha3": 2.0, "subgraph_m": 3,
            "edge_weight": 0.5, "delete_cost": 1.0, "k1": 1.5, "b": 0.75, "n_max": 3,
            "l2": 1e-4, "threshold": 0.14,
        }
        # repr tells 3 from 3.0, so an integer key must default to an int.
        assert {name: repr(getattr(config, name)) for name in hyper} == {
            name: repr(value) for name, value in published.items()
        }
        assert config.semvec_threshold == 0.70

    def test_every_feature_key_reaches_its_library_field(self, tmp_path):
        # Distinct values, so a key copied into the wrong field fails.
        overrides = [
            "features.manifest=ged,rel_cov,graph_cov_ans,bm25,ngram",
            "hyper.alpha1=1.25", "hyper.alpha2=2.25", "hyper.alpha3=3.25", "hyper.m=5",
            "hyper.edge_weight=0.375", "hyper.delete_cost=0.625",
            "hyper.k1=1.125", "hyper.b=0.25", "hyper.n_max=4",
        ]
        config = load_config(None, overrides=overrides, env={})
        resources = build_resources(config, config.manifest, None)
        assert resources.alphas == (1.25, 2.25, 3.25)
        assert resources.subgraph_m == 5
        assert (resources.k1, resources.b, resources.n_max) == (1.125, 0.25, 4)
        assert resources.ged_config == GedConfig(edge_weight=0.375, delete_cost=0.625)

        pos_costs = tmp_path / "pos_costs.tsv"
        pos_costs.write_text("DEFAULT\t0.875\nNOUN\tVERB\t0.125\n")
        config = load_config(
            None, overrides=[*overrides, f"resources.pos_costs={pos_costs}"], env={}
        )
        ged_config = build_resources(config, config.manifest, None).ged_config
        assert ged_config == GedConfig(
            pos_table=load_pos_table(pos_costs), edge_weight=0.375, delete_cost=0.625
        )
        assert ged_config.pos_table != GedConfig().pos_table

    def test_df_tables_from_an_unparsed_train_split_are_a_config_error(self, mini_dir):
        # build_resources builds DF tables from the train split it is given;
        # one loaded without parses has no graph to count.
        config = load_config(
            mini_dir / "config.ini", overrides=["features.manifest=sim_word"], env={}
        )
        unparsed = cli.load_split(config, "train", with_parses=False)
        with pytest.raises(
            ConfigError, match=r"^graph features need parses: set \[data\] conllu_train$"
        ):
            build_resources(config, config.manifest, unparsed)

    def test_every_train_key_reaches_the_model(self, mini_config, mini_dir, tmp_path):
        features = mini_dir / "golden_features_train.tsv"
        model = tmp_path / "model.txt"
        assert run(
            "--config", mini_config,
            "--set", "hyper.l2=0.01", "--set", "hyper.threshold=0.3",
            "train", "--features", str(features), "--model", str(model),
        ) == 0
        names, keys, x = read_features(features)
        hyper = TrainConfig(l2=0.01, threshold=0.3)
        expected = tmp_path / "expected.txt"
        save_model(train(x, [label for _, _, label in keys], names, hyper), expected)
        assert model.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "setting, command",
        [
            ("hyper.l2=nan", ["train", "--features", "{golden}", "--model", "{out}"]),
            ("hyper.edge_weight=inf", ["featurize", "--split", "dev", "--out", "{out}"]),
            ("hyper.alpha1=nan", ["featurize", "--split", "dev", "--out", "{out}"]),
        ],
        ids=["l2-train", "edge_weight-featurize", "alpha1-featurize"],
    )
    def test_non_finite_value_fails_with_one_config_error(
        self, setting, command, mini_config, mini_dir, tmp_path, capsys
    ):
        out = tmp_path / "out.txt"
        golden = mini_dir / "golden_features_train.tsv"
        argv = [arg.format(golden=golden, out=out) for arg in command]
        code = run("--config", mini_config, "--set", setting, *argv)
        target, value = setting.split("=")
        section, key = target.split(".")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error:config: [{section}] {key}: not a finite number: {value!r}\n"
        )
        assert not out.exists()

    def test_file_paths_resolve_relative_to_config(self, mini_config, mini_dir):
        config = load_config(mini_config, env={})
        assert config.train == mini_dir / "train.tsv"
        assert config.alpha1 == 0.0

    def test_set_overrides_beat_file(self, mini_config):
        config = load_config(mini_config, overrides=["hyper.alpha1=9"], env={})
        assert config.alpha1 == 9.0

    def test_env_overrides_apply(self, mini_config):
        config = load_config(mini_config, env={"QATRIGGER_HYPER_M": "4"})
        assert config.subgraph_m == 4

    def test_flag_beats_env(self, mini_config):
        config = load_config(
            mini_config, overrides=["hyper.m=5"], env={"QATRIGGER_HYPER_M": "4"}
        )
        assert config.subgraph_m == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(None, overrides=["hyper.bogus=1"], env={})

    @pytest.mark.parametrize(
        "source, key",
        [("file", "seed"), ("file", "lr"), ("file", "epochs"), ("env", "lr"), ("flag", "epochs")],
        ids=["file-seed", "file-lr", "file-epochs", "env-lr", "flag-epochs"],
    )
    def test_deleted_key_rejected(self, source, key, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.ini"
        config.write_text(f"[hyper]\n{key} = 200\n" if source == "file" else "[hyper]\n")
        flags = ["--set", f"hyper.{key}=200"] if source == "flag" else []
        if source == "env":
            monkeypatch.setenv(f"QATRIGGER_HYPER_{key.upper()}", "200")
        code = run("--config", str(config), *flags, "build-df", "--out-dir", str(tmp_path))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error:config: unknown configuration key [hyper] {key}"]

    @pytest.mark.parametrize(
        "content, message",
        [
            ("m = 3\n", "File contains no section headers. file: "),
            ("[hyper]\nm = 3\nm = 4\n", "[line 3]: option 'm' in section 'hyper' already exists"),
        ],
        ids=["no-section", "repeated-key"],
    )
    def test_malformed_config_file_fails_with_one_config_error(
        self, tmp_path, capsys, content, message
    ):
        config = tmp_path / "config.ini"
        config.write_text(content)
        code = run("--config", str(config), "build-df", "--out-dir", str(tmp_path))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:config:"), err
        assert message in err[0] and str(config) in err[0]

    def test_missing_config_file_fails_with_one_config_error(self, tmp_path, capsys):
        config = tmp_path / "absent.ini"
        code = run("--config", str(config), "build-df", "--out-dir", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err == f"error:config: config file not found: {config}\n"

    def test_help_documents_positional_alignment_and_env(self, capsys):
        parser = build_parser()
        help_text = parser.format_help()
        assert "positionally" in help_text
        assert "QATRIGGER_" in help_text


# Each [hyper] range rule: a key and value that break it, the library object
# the key sets with the field value that breaks it, and the message both give.
RANGE_RULES = [
    ("alpha1", "-1", FeatureResources, {"alphas": (-1.0, 5.0, 2.0)}, "alphas must be >= 0"),
    ("alpha3", "-0.5", FeatureResources, {"alphas": (7.0, 5.0, -0.5)}, "alphas must be >= 0"),
    ("m", "-2", FeatureResources, {"subgraph_m": -2}, "subgraph_m must be >= 0"),
    ("b", "1.5", FeatureResources, {"b": 1.5}, "b must be in [0, 1]"),
    ("b", "-0.25", FeatureResources, {"b": -0.25}, "b must be in [0, 1]"),
    ("k1", "-1", FeatureResources, {"k1": -1.0}, "k1 must be >= 0 and n_max >= 1"),
    ("n_max", "0", FeatureResources, {"n_max": 0}, "k1 must be >= 0 and n_max >= 1"),
    ("n_max", str(2**53 + 1), FeatureResources, {"n_max": 2**53 + 1},
     "n_max must be at most 2**53"),
    ("edge_weight", "-0.5", GedConfig, {"edge_weight": -0.5},
     "edge_weight and delete_cost must be >= 0"),
    ("delete_cost", "-1", GedConfig, {"delete_cost": -1.0},
     "edge_weight and delete_cost must be >= 0"),
    ("l2", "-0.001", TrainConfig, {"l2": -0.001}, "l2 must be >= 0"),
]


class TestRangeRules:
    """Each [hyper] range rule is checked by the library object that owns the
    field, and the CLI reports that object's message as its config error."""

    @pytest.mark.parametrize(
        "key, value, owner, kwargs, message",
        RANGE_RULES,
        ids=[f"{key}={value}" for key, value, *_ in RANGE_RULES],
    )
    def test_library_object_config_and_cli_give_one_message(
        self, key, value, owner, kwargs, message, mini_config, mini_dir, tmp_path, capsys
    ):
        with pytest.raises(ValueError) as built:
            owner(**kwargs)
        assert str(built.value) == message

        with pytest.raises(ConfigError) as loaded:
            load_config(None, overrides=[f"hyper.{key}={value}"], env={})
        assert str(loaded.value) == message

        out = tmp_path / "out.txt"
        if owner is TrainConfig:
            command = ["train", "--features", str(mini_dir / "golden_features_train.tsv")]
            command += ["--model", str(out)]
        else:
            command = ["featurize", "--split", "dev", "--out", str(out)]
        code = run("--config", mini_config, "--set", f"hyper.{key}={value}", *command)
        assert code == 2
        assert capsys.readouterr().err == f"error:config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "owner, kwargs, message",
        [
            (TrainConfig, {"l2": math.nan}, "l2 must be finite, got nan"),
            (TrainConfig, {"threshold": math.inf}, "threshold must be finite, got inf"),
            (GedConfig, {"edge_weight": math.inf}, "edge_weight must be finite, got inf"),
            (GedConfig, {"delete_cost": -math.inf}, "delete_cost must be finite, got -inf"),
            (FeatureResources, {"alphas": (1.0, math.nan, 0.0)},
             "alphas must be finite, got (1.0, nan, 0.0)"),
            (FeatureResources, {"b": math.nan}, "b must be finite, got nan"),
            (FeatureResources, {"k1": math.inf}, "k1 must be finite, got inf"),
            (FeatureResources, {"alphas": (7.0, 5.0)},
             "alphas must be three values, got (7.0, 5.0)"),
        ],
        ids=[
            "l2-nan", "threshold-inf", "edge_weight-inf", "delete_cost-minus-inf",
            "alpha2-nan", "b-nan", "k1-inf", "two-alphas",
        ],
    )
    def test_library_object_rejects_values_config_text_cannot_hold(self, owner, kwargs, message):
        # The config parser rejects nan and inf as text, so only a library
        # caller can pass them, or a wrong number of alphas.
        with pytest.raises(ValueError) as built:
            owner(**kwargs)
        assert str(built.value) == message

    def test_feature_resources_change_only_through_checked_replace(self):
        resources = FeatureResources()
        with pytest.raises(FrozenInstanceError):
            resources.b = 5.0
        with pytest.raises(ValueError, match=r"b must be in \[0, 1\]"):
            replace(resources, b=5.0)

    def test_bounds_are_allowed(self):
        FeatureResources(alphas=(0.0, 0.0, 0.0), subgraph_m=0, k1=0.0, b=0.0, n_max=1)
        FeatureResources(b=1.0)
        GedConfig(edge_weight=0.0, delete_cost=0.0)
        TrainConfig(l2=0.0, threshold=-7.5)
        FeatureResources(n_max=2**53)
        overrides = ["hyper.b=1", "hyper.m=0", "hyper.n_max=1", "hyper.l2=0"]
        config = load_config(None, overrides=overrides, env={})
        assert (config.b, config.subgraph_m, config.n_max) == (1.0, 0, 1)

    def test_integer_of_any_size_is_range_checked(self):
        huge = "9" * 400
        assert load_config(None, overrides=[f"hyper.m={huge}"], env={}).subgraph_m == int(huge)
        with pytest.raises(ConfigError) as error:
            load_config(None, overrides=[f"hyper.m=-{huge}"], env={})
        assert str(error.value) == "subgraph_m must be >= 0"


class TestFeaturize:
    def test_matches_committed_golden_file(self, mini_config, mini_dir, tmp_path):
        out = tmp_path / "features.tsv"
        assert run("--config", mini_config, "featurize", "--split", "train", "--out", str(out)) == 0
        assert out.read_bytes() == (mini_dir / "golden_features_train.tsv").read_bytes()

    def test_every_feature_matches_committed_lexical_golden_file(
        self, mini_config, mini_dir, tmp_path
    ):
        out = tmp_path / "features.tsv"
        assert run(
            "--config", mini_config, "--set", f"features.manifest={','.join(FEATURE_NAMES)}",
            "featurize", "--split", "train", "--out", str(out),
        ) == 0
        golden = mini_dir / "golden_features_lexical_train.tsv"
        assert out.read_bytes() == golden.read_bytes()

    def test_failed_run_leaves_no_partial_file(self, mini_config, mini_dir, tmp_path, capsys):
        # The missing score is met after 41 rows are written; train must not
        # find those rows and fit a model to them.
        scores = tmp_path / "scores.tsv"
        lines = (mini_dir / "scores.tsv").read_text().splitlines(True)
        kept = [line for line in lines if not line.startswith("train-q12\ttrain-q12-c3\t")]
        assert len(kept) == len(lines) - 1
        scores.write_text("".join(kept))
        out = tmp_path / "features.tsv"
        code = run(
            "--config", mini_config, "--set", f"data.scores={scores}",
            "--set", "features.manifest=ext_score,bm25",
            "featurize", "--split", "train", "--out", str(out),
        )
        assert code == 2
        assert "train-q12-c3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("manifest", [DEFAULT_MANIFEST, FEATURE_NAMES],
                             ids=["default", "all"])
    def test_batch_boundaries_change_no_row(self, manifest, mini_config, tmp_path,
                                            monkeypatch):
        # One group per batch, two groups (5 + 5 or 4 + 4 texts), the default
        # cap and the whole split in one batch write the same bytes.
        batches = []
        extract = cli.extract_features
        monkeypatch.setattr(cli, "extract_features",
                            lambda groups, *args: batches.append(len(groups))
                            or extract(groups, *args))
        for split in ("train", "dev", "test"):
            outputs = []
            for cap, sizes in ((1, [1] * 12), (10, [2] * 6), (cli._BATCH_TEXTS, [12]),
                               (10**9, [12])):
                monkeypatch.setattr(cli, "_BATCH_TEXTS", cap)
                batches.clear()
                out = tmp_path / f"{split}-{cap}.tsv"
                assert run("--config", mini_config,
                           "--set", f"features.manifest={','.join(manifest)}",
                           "featurize", "--split", split, "--out", str(out)) == 0
                assert batches == sizes
                outputs.append(out.read_bytes())
            assert outputs == [outputs[0]] * 4, split

    @pytest.mark.parametrize("factor", [2.0**600, 2.0**-600], ids=["2**600", "2**-600"])
    def test_semvec_is_unchanged_by_scaling_the_table_by_a_power_of_two(
        self, factor, mini_config, mini_dir, tmp_path
    ):
        # At 2**600 every square overflows and at 2**-600 every square
        # underflows to 0; each pair is scored again from rescaled means,
        # with no warning, so the column keeps its bits.
        scaled = tmp_path / "embeddings.txt"
        with scaled.open("w") as handle:
            for line in (mini_dir / "embeddings.txt").read_text().splitlines():
                word, *values = line.split()
                values = [repr(float(v) * factor) for v in values]
                handle.write(" ".join([word, *values]) + "\n")
        outputs = []
        for embeddings in (mini_dir / "embeddings.txt", scaled):
            out = tmp_path / f"semvec-{len(outputs)}.tsv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # as `python -W error`
                assert run("--config", mini_config, "--set", f"data.embeddings={embeddings}",
                           "--set", "features.manifest=semvec",
                           "featurize", "--split", "train", "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]
        assert len(set(outputs[0].splitlines())) == 45

    def test_pos_costs_are_read_only_with_ged(self, mini_config, tmp_path):
        outputs = []
        for extra in ([], ["--set", f"resources.pos_costs={tmp_path / 'missing.tsv'}"]):
            out = tmp_path / f"features-{len(extra)}.tsv"
            assert run(
                "--config", mini_config, "--set", "features.manifest=bm25", *extra,
                "featurize", "--split", "train", "--out", str(out),
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_crlf_and_blank_lines_in_tab_separated_inputs_change_nothing(
        self, mini_config, mini_dir, tmp_path
    ):
        # Every tab-separated input is copied with CRLF endings, a blank
        # first line and a blank line in its middle; the CoNLL-U files are
        # not, since a blank line ends a block there.
        assert run("--config", mini_config, "build-df", "--out-dir", str(tmp_path)) == 0
        sources = {
            "data.train": mini_dir / "train.tsv",
            "data.index_train": mini_dir / "index_train.tsv",
            "data.scores": mini_dir / "scores.tsv",
            "resources.pos_costs": mini_dir / "pos_costs.tsv",
            **{f"resources.df_{level}": tmp_path / f"df_{level}.tsv"
               for level in ("word", "pair", "triplet")},
            "features": mini_dir / "golden_features_train.tsv",
        }
        copies = {key: tmp_path / f"crlf-{key}.tsv" for key in sources}
        for key, source in sources.items():
            lines = source.read_text().splitlines()
            middle = len(lines) // 2
            lines[middle:middle] = [""]
            lines.insert(0, "")
            copies[key].write_text("\r\n".join(lines) + "\r\n", newline="")
        overrides = [arg for key, copy in copies.items() if key != "features"
                     for arg in ("--set", f"{key}={copy}")]
        for manifest, golden in [
            (DEFAULT_MANIFEST, "golden_features_train.tsv"),
            (FEATURE_NAMES, "golden_features_lexical_train.tsv"),
        ]:
            out = tmp_path / golden
            assert run(
                "--config", mini_config, *overrides,
                "--set", f"features.manifest={','.join(manifest)}",
                "featurize", "--split", "train", "--out", str(out),
            ) == 0
            assert out.read_bytes() == (mini_dir / golden).read_bytes()
        model = tmp_path / "model.txt"
        assert run(
            "--config", mini_config, "train", "--features", str(copies["features"]),
            "--model", str(model),
        ) == 0
        assert model.read_bytes() == (mini_dir / "golden_model_train.txt").read_bytes()

    def test_every_feature_is_independent_of_the_hash_seed(
        self, mini_config, mini_dir, tmp_path
    ):
        # Set and dict iteration order varies with PYTHONHASHSEED; no output may.
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"features-{seed}.tsv"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
            subprocess.run(
                [sys.executable, "-m", "qatrigger.cli", "--config", mini_config,
                 "--set", f"features.manifest={','.join(FEATURE_NAMES)}",
                 "featurize", "--split", "train", "--out", str(out)],
                env=env, capture_output=True, timeout=120, check=True,
            )
            outputs.append(out.read_bytes())
        golden = (mini_dir / "golden_features_lexical_train.tsv").read_bytes()
        assert outputs == [golden, golden]

    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_141_without_an_error_line(
        self, mini_config, tmp_path, flags
    ):
        # The reader closes its end before the first write; buffered output
        # fails at the final flush, unbuffered output at the first print.
        src = Path(__file__).resolve().parent.parent / "src"
        read_end, write_end = os.pipe()
        os.close(read_end)
        out = tmp_path / "features.tsv"
        try:
            child = subprocess.run(
                [sys.executable, *flags, "-m", "qatrigger.cli", "--config", mini_config,
                 "featurize", "--split", "train", "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=str(src)), stdout=write_end,
                stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (141, b"")
        assert out.is_file()

    def test_empty_manifest_fails_cleanly(self, mini_config, tmp_path, capsys):
        code = run(
            "--config", mini_config, "--set", "features.manifest=",
            "featurize", "--split", "train", "--out", str(tmp_path / "x.tsv"),
        )
        assert code != 0
        assert "error:config" in capsys.readouterr().err

    def test_feature_named_twice_fails_with_one_config_error(
        self, mini_config, mini_dir, tmp_path, capsys
    ):
        message = "features named twice in manifest: ged"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_config(mini_config, ["features.manifest=ged,ged"], env={})
        for command in (
            ["featurize", "--split", "train", "--out", str(tmp_path / "x.tsv")],
            ["train", "--features", str(mini_dir / "golden_features_train.tsv"),
             "--model", str(tmp_path / "m.txt")],
        ):
            code = run("--config", mini_config, "--set", "features.manifest=ged,ged", *command)
            assert code == 2
            assert capsys.readouterr().err == f"error:config: {message}\n"
        assert sorted(tmp_path.iterdir()) == []

    def test_single_feature_manifest_gives_four_columns(self, mini_config, tmp_path):
        out = tmp_path / "features.tsv"
        run(
            "--config", mini_config, "--set", "features.manifest=rel_cov",
            "featurize", "--split", "train", "--out", str(out),
        )
        header = out.read_text().splitlines()[0].split("\t")
        assert header == ["question_id", "candidate_id", "gold_label", "rel_cov"]

    def test_ext_score_column_passes_scores_through(self, mini_config, mini_dir, tmp_path):
        out = tmp_path / "features.tsv"
        run(
            "--config", mini_config, "--set", "features.manifest=ext_score",
            "featurize", "--split", "dev", "--out", str(out),
        )
        names, keys, matrix = read_features(out)
        assert names == ("ext_score",)
        scores = {}
        for line in (mini_dir / "scores.tsv").read_text().splitlines():
            qid, cid, value = line.split("\t")
            scores[(qid, cid)] = float(value)
        for (qid, cid, _), values in zip(keys, matrix):
            assert values[0] == scores[(qid, cid)]

    def test_missing_corpus_fails_with_data_category(self, tmp_path, capsys):
        code = run(
            "--set", "data.train=/nonexistent/x.tsv",
            "featurize", "--split", "train", "--out", str(tmp_path / "x.tsv"),
        )
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:")


def test_feature_header_is_the_first_non_empty_row_only(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("\n\n" + GOOD_FEATURES)
    names, keys, matrix = read_features(path)
    assert (names, keys, matrix.tolist()) == (
        ("ged",), [("q1", "c2", 0), ("q1", "c1", 1)], [[0.25], [0.5]]
    )
    path.write_text("\n" + GOOD_FEATURES + FEATURES_HEAD.splitlines(True)[0])
    with pytest.raises(IngestionError, match="line 5: not a number: 'gold_label'"):
        read_features(path)


# Tokens a feature file mutation writes over one field or inserts into a
# line.  numpy's reader strips a leading or trailing \x1f and float() does
# not, so that token must reach the row loop too.
FEATURE_TOKENS = [
    "\t", "\n", "\r", "", "nan", "inf", "1e999", "1_0", "01", "+1", "-0", "2", "-1", "\x00",
    " ", "\u0661", "\ufeff", "9" * 400, "\x1f",
]


def feature_outcome(read, path):
    """The names, keys and matrix shape and bytes that `read` gives for
    `path`, or the text of the IngestionError it raises."""
    try:
        names, keys, matrix = read(path)
    except IngestionError as exc:
        return str(exc)
    return names, keys, matrix.shape, matrix.dtype, matrix.tobytes()


def mutated_feature_files(rng, n_files, source, directory):
    """Write and yield `n_files` copies of the feature file `source`, each
    with one to three seeded mutations: a FEATURE_TOKENS token written over
    a random field or over the label, or inserted at a random character, or
    a line repeated, which repeats its pair."""
    lines = source.read_text(encoding="utf-8").splitlines(True)
    for case in range(n_files):
        mutated = list(lines)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(mutated))
            token = rng.choice(FEATURE_TOKENS)
            op = rng.randrange(4)
            if op < 2:
                fields = mutated[i].rstrip("\n").split("\t")
                fields[2 if op and len(fields) > 2 else rng.randrange(len(fields))] = token
                mutated[i] = "\t".join(fields) + "\n"
            elif op == 2:
                at = rng.randrange(len(mutated[i]) + 1)
                mutated[i] = mutated[i][:at] + token + mutated[i][at:]
            else:
                mutated.insert(i, mutated[rng.randrange(1, len(mutated))])
        path = directory / f"features{case}.tsv"
        path.write_bytes("".join(mutated).encode())
        yield path


class TestFeatureReader:
    """read_features parses a valid file with numpy's reader and reads any
    other one again with the row loop, which oracles.reference_read_features
    keeps as first written."""

    @pytest.fixture
    def row_loop_calls(self, monkeypatch):
        """The paths read_features hands to its row loop."""
        calls = []
        row_loop = cli._read_feature_rows

        def counted(path):
            calls.append(path)
            return row_loop(path)

        monkeypatch.setattr(cli, "_read_feature_rows", counted)
        return calls

    def test_mutated_files_read_as_the_row_loop_reads_them(
        self, row_loop_calls, mini_dir, tmp_path
    ):
        # Each of 300 seeded mutated files gives equal names and keys and a
        # bit-equal matrix, or the same message, as the reference.
        tally = Counter()
        rng = random.Random(2801)
        source = mini_dir / "golden_features_lexical_train.tsv"
        for path in mutated_feature_files(rng, 300, source, tmp_path):
            expected = feature_outcome(reference_read_features, path)
            assert feature_outcome(read_features, path) == expected, path.read_bytes()
            read_by = "row loop" if path in row_loop_calls else "numpy"
            tally[read_by, "rejected" if isinstance(expected, str) else "accepted"] += 1
        assert tally[("numpy", "rejected")] == 0
        assert min(tally.values()) >= 5 and len(tally) == 3, tally

    def test_valid_file_never_reaches_the_row_loop(self, mini_dir, tmp_path, monkeypatch):
        rng = random.Random(2802)
        big = tmp_path / "big.tsv"
        big.write_text("question_id\tcandidate_id\tgold_label\tbm25\text_score\n" + "".join(
            f"q{i // 10}\tc{i}\t{rng.randint(0, 1)}\t{rng.uniform(-9, 9)!r}\t{rng.random()!r}\n"
            for i in range(20000)
        ))
        lexical = mini_dir / "golden_features_lexical_train.tsv"
        blank_crlf = tmp_path / "blank_crlf.tsv"
        blank_crlf.write_bytes(b"\r\n" + lexical.read_bytes().replace(b"\n", b"\r\n\n"))
        paths = [mini_dir / "golden_features_train.tsv", lexical, blank_crlf, big]
        expected = [feature_outcome(reference_read_features, path) for path in paths]

        def row_loop(path):
            raise AssertionError(f"{path} reached the row loop")

        monkeypatch.setattr(cli, "_read_feature_rows", row_loop)
        assert [feature_outcome(read_features, path) for path in paths] == expected

    @pytest.mark.parametrize("row, outcome", [
        ("q1\tc1\t1\t1_0\n", ([("q1", "c2", 0), ("q1", "c1", 1)], [[0.25], [10.0]])),
        ("q1\tc1\t1\t\u0661\n", ([("q1", "c2", 0), ("q1", "c1", 1)], [[0.25], [1.0]])),
        ("q1\tc1\t01\t0.5\n", ([("q1", "c2", 0), ("q1", "c1", 1)], [[0.25], [0.5]])),
        ("q1\tc1\t-0\t0.5\n", ([("q1", "c2", 0), ("q1", "c1", 0)], [[0.25], [0.5]])),
        ("q1\tc1\t1\t0.5\x1f\n", "line 3: not a number: '0.5\\x1f'"),
    ])
    def test_spelling_numpy_rejects_goes_through_the_row_loop(
        self, row, outcome, row_loop_calls, tmp_path
    ):
        path = tmp_path / "features.tsv"
        path.write_text(FEATURES_HEAD + row, encoding="utf-8")
        got = feature_outcome(read_features, path)
        assert row_loop_calls == [path]
        assert got == feature_outcome(reference_read_features, path)
        if isinstance(outcome, str):
            assert got == f"{path}: {outcome}"
        else:
            names, keys, matrix = read_features(path)
            assert (keys, matrix.tolist()) == outcome


class TestTrainTunePredictEvaluate:
    @pytest.fixture
    def pipeline(self, mini_config, tmp_path):
        paths = {
            "train": tmp_path / "train.tsv",
            "dev": tmp_path / "dev.tsv",
            "test": tmp_path / "test.tsv",
            "model": tmp_path / "model.txt",
        }
        for split in ("train", "dev", "test"):
            assert run(
                "--config", mini_config,
                "featurize", "--split", split, "--out", str(paths[split]),
            ) == 0
        assert run(
            "--config", mini_config,
            "train", "--features", str(paths["train"]), "--model", str(paths["model"]),
        ) == 0
        return paths

    def test_model_round_trips_byte_identically(self, pipeline, tmp_path):
        from qatrigger.combiner import save_model

        model = load_model(pipeline["model"])
        again = tmp_path / "again.txt"
        save_model(model, again)
        assert again.read_bytes() == pipeline["model"].read_bytes()

    def test_retraining_is_byte_identical(self, mini_config, pipeline, tmp_path):
        other = tmp_path / "model2.txt"
        run(
            "--config", mini_config,
            "train", "--features", str(pipeline["train"]), "--model", str(other),
        )
        assert other.read_bytes() == pipeline["model"].read_bytes()

    def test_train_reports_full_accuracy_on_separable_features(
        self, mini_config, pipeline, tmp_path, capsys
    ):
        run(
            "--config", mini_config,
            "train", "--features", str(pipeline["train"]), "--model", str(tmp_path / "m.txt"),
        )
        out = capsys.readouterr().out
        assert "train_accuracy=1.0000" in out
        assert "final_loss=" in out
        # Training stops at the optimum; the line reports how near it is.
        assert float(out.split("grad_norm=")[1].split()[0]) < 1e-8

    @pytest.mark.parametrize("max_steps", [None, 1, 2])
    def test_train_line_equals_a_fresh_evaluation_of_the_saved_model(
        self, max_steps, mini_config, pipeline, tmp_path, monkeypatch, capsys
    ):
        # With a step limit the loop ends after a step, whose loss the fit
        # has not evaluated yet.
        if max_steps is not None:
            monkeypatch.setattr(combiner, "_MAX_STEPS", max_steps)
        model_path = tmp_path / "m.txt"
        assert run(
            "--config", mini_config,
            "train", "--features", str(pipeline["train"]), "--model", str(model_path),
        ) == 0
        _, keys, x = read_features(pipeline["train"])
        y = [label for _, _, label in keys]
        model = load_model(model_path)
        loss, grad_w, grad_b = loss_and_gradient(
            model.weights, model.bias, model.standardize(x), np.asarray(y, dtype=float),
            TrainConfig().l2,
        )
        grad_norm = np.linalg.norm(np.append(grad_w, grad_b))
        hits = sum((p > 0.5) == label for p, label in zip(model.scores(x), y))
        assert capsys.readouterr().out == (
            f"trained on {len(y)} pairs: grad_norm={grad_norm:.1e} "
            f"final_loss={loss:.6f} train_accuracy={hits / len(y):.4f} -> {model_path}\n"
        )

    def test_accuracy_near_a_zero_logit_follows_the_probability(
        self, mini_config, tmp_path, monkeypatch, capsys
    ):
        # sigmoid(1e-17) rounds to 0.5, which is not above 0.5: 3 of the 7
        # rows are right.  The sign of the logit alone would count row 0 as
        # a positive prediction and report 4 of 7.
        logits = np.array([1e-17, -1e-17, 0.0, 1e-7, -1e-7, 2.0, -2.0])
        assert [sigmoid(v) > 0.5 for v in logits] == [False] * 3 + [True, False, True, False]
        monkeypatch.setattr(combiner.TriggerModel, "logits", lambda self, matrix: logits.copy())
        features = tmp_path / "f.tsv"
        features.write_text(
            "question_id\tcandidate_id\tgold_label\tbm25\n"
            + "".join(f"q\tc{i}\t{int(i < 6)}\t{i}\n" for i in range(7))
        )
        assert run(
            "--config", mini_config,
            "train", "--features", str(features), "--model", str(tmp_path / "m.txt"),
        ) == 0
        assert f"train_accuracy={3 / 7:.4f} " in capsys.readouterr().out

    def test_tune_updates_model_threshold(self, mini_config, pipeline, capsys):
        code = run(
            "--config", mini_config, "tune",
            "--model", str(pipeline["model"]), "--features", str(pipeline["dev"]),
            "--update-model",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "threshold=" in out and "dev_f1=" in out
        model = load_model(pipeline["model"])
        assert model.threshold != 0.14

    def test_predict_writes_probabilities(self, mini_config, pipeline, tmp_path):
        out = tmp_path / "preds.tsv"
        assert run(
            "--config", mini_config, "predict",
            "--model", str(pipeline["model"]), "--features", str(pipeline["test"]),
            "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 44
        for line in lines:
            qid, cid, prob = line.split("\t")
            assert 0.0 < float(prob) < 1.0

    def test_evaluate_report_has_kv_block_and_file(self, mini_config, pipeline, tmp_path, capsys):
        report_path = tmp_path / "report.txt"
        run(
            "--config", mini_config, "tune",
            "--model", str(pipeline["model"]), "--features", str(pipeline["dev"]),
            "--update-model",
        )
        capsys.readouterr()
        code = run(
            "--config", mini_config, "evaluate",
            "--model", str(pipeline["model"]), "--features", str(pipeline["test"]),
            "--report", str(report_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "f1=" in out and "map=" in out and "F-score" in out
        assert report_path.read_text() == out

    def test_threshold_above_all_scores_kills_recall(self, mini_config, pipeline, capsys):
        run(
            "--config", mini_config, "--set", "hyper.threshold=2.0",
            "train", "--features", str(pipeline["train"]), "--model", str(pipeline["model"]),
        )
        capsys.readouterr()
        run(
            "--config", mini_config, "evaluate",
            "--model", str(pipeline["model"]), "--features", str(pipeline["test"]),
        )
        out = capsys.readouterr().out
        assert "recall=0.0" in out
        assert "questions_triggered=0" in out

    def test_threshold_below_all_scores_triggers_everything(self, mini_config, pipeline, capsys):
        run(
            "--config", mini_config, "--set", "hyper.threshold=-1.0",
            "train", "--features", str(pipeline["train"]), "--model", str(pipeline["model"]),
        )
        capsys.readouterr()
        run(
            "--config", mini_config, "evaluate",
            "--model", str(pipeline["model"]), "--features", str(pipeline["test"]),
        )
        out = capsys.readouterr().out
        assert "questions_triggered=12" in out

    def test_mismatched_feature_columns_fail(self, mini_config, pipeline, tmp_path, capsys):
        narrow = tmp_path / "narrow.tsv"
        run(
            "--config", mini_config, "--set", "features.manifest=rel_cov",
            "featurize", "--split", "test", "--out", str(narrow),
        )
        capsys.readouterr()
        code = run(
            "--config", mini_config, "evaluate",
            "--model", str(pipeline["model"]), "--features", str(narrow),
        )
        assert code != 0
        assert "error:config" in capsys.readouterr().err

    def test_single_class_training_fails_cleanly(self, mini_config, tmp_path, capsys):
        features = tmp_path / "one_class.tsv"
        features.write_text(
            "question_id\tcandidate_id\tgold_label\tged\n"
            "q1\tc1\t0\t0.5\nq1\tc2\t0\t0.25\n"
        )
        code = run(
            "--config", mini_config,
            "train", "--features", str(features), "--model", str(tmp_path / "m.txt"),
        )
        assert code != 0
        assert "error:data" in capsys.readouterr().err


class TestEvaluateBaselines:
    def test_baseline_sections_reported(self, mini_config, tmp_path, capsys):
        features = tmp_path / "lex.tsv"
        model = tmp_path / "lex_model.txt"
        run(
            "--config", mini_config, "--set", "features.manifest=bm25,ngram,semvec",
            "featurize", "--split", "dev", "--out", str(features),
        )
        run(
            "--config", mini_config, "--set", "features.manifest=bm25,ngram,semvec",
            "train", "--features", str(features), "--model", str(model),
        )
        capsys.readouterr()
        code = run(
            "--config", mini_config, "evaluate",
            "--model", str(model), "--features", str(features), "--baselines",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline bm25" in out
        assert "baseline ngram" in out
        assert "baseline semvec" in out

    def test_configured_baseline_threshold_is_used(self, mini_config, tmp_path, capsys):
        features = tmp_path / "lex.tsv"
        model = tmp_path / "lex_model.txt"
        run(
            "--config", mini_config, "--set", "features.manifest=bm25",
            "featurize", "--split", "dev", "--out", str(features),
        )
        run(
            "--config", mini_config, "--set", "features.manifest=bm25",
            "train", "--features", str(features), "--model", str(model),
        )
        capsys.readouterr()
        run(
            "--config", mini_config, "--set", "baselines.bm25_threshold=99.0",
            "evaluate", "--model", str(model), "--features", str(features), "--baselines",
        )
        out = capsys.readouterr().out
        assert "baseline bm25 (threshold 99)" in out


    def test_unanswerable_file_without_threshold_fails_with_one_data_error(
        self, mini_config, tmp_path, capsys
    ):
        head = "question_id\tcandidate_id\tgold_label\tbm25\n"
        train_file, dev_file, model = tmp_path / "t.tsv", tmp_path / "d.tsv", tmp_path / "m.txt"
        train_file.write_text(head + "q1\tc1\t1\t0.5\nq1\tc2\t0\t0.25\n")
        dev_file.write_text(head + "q1\tc1\t0\t0.5\nq1\tc2\t0\t0.25\n")
        assert run("--config", mini_config, "train", "--features", str(train_file),
                   "--model", str(model)) == 0
        capsys.readouterr()
        code = run(
            "--config", mini_config,
            "evaluate", "--model", str(model), "--features", str(dev_file), "--baselines",
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "error:data: baseline bm25: threshold tuning needs at least one answerable "
            "group; set [baselines] bm25_threshold\n"
        )


class _FullDisk:
    """A text file that takes `room` characters, then fails each write as a
    full disk would, after writing what fits."""

    def __init__(self, handle, room):
        self.handle, self.room = handle, room

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        written = self.handle.write(text[:self.room])
        self.room -= written
        if written < len(text):
            raise OSError(errno.ENOSPC, "No space left on device")
        return written


class TestOutputFiles:
    @pytest.mark.parametrize("command, existing", [
        ("train", True), ("train", False), ("tune", True), ("predict", True),
        ("predict", False), ("evaluate", True), ("evaluate", False),
    ])
    def test_failed_write_keeps_the_target_as_it_was(
        self, command, existing, mini_config, mini_dir, tmp_path, monkeypatch, capsys
    ):
        golden_model = (mini_dir / "golden_model_train.txt").read_bytes()
        model = tmp_path / "model.txt"
        model.write_bytes(golden_model)
        features = str(mini_dir / "golden_features_train.tsv")
        out = {"train": tmp_path / "new.txt", "tune": model,
               "predict": tmp_path / "p.tsv", "evaluate": tmp_path / "report.txt"}[command]
        argv = {
            "train": ["train", "--features", features, "--model", str(out)],
            "tune": ["tune", "--model", str(model), "--features", features, "--update-model"],
            "predict": ["predict", "--model", str(model), "--features", features,
                        "--out", str(out)],
            "evaluate": ["evaluate", "--model", str(model), "--features", features,
                         "--baselines", "--report", str(out)],
        }[command]
        if existing and out != model:
            out.write_bytes(golden_model if command == "train" else b"an earlier output\n")
        before = out.read_bytes() if existing else None
        # Every file opened to write takes 100 characters, fewer than any of
        # these outputs holds.
        real_open = open

        def opening(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return _FullDisk(handle, 100) if "w" in mode else handle

        monkeypatch.setattr("builtins.open", opening)
        code = run("--config", mini_config, *argv)
        monkeypatch.undo()
        err = capsys.readouterr().err.splitlines()
        assert code == 4
        assert err == ["error:io: [Errno 28] No space left on device"]
        assert (out.read_bytes() if out.exists() else None) == before
        assert [path.name for path in tmp_path.iterdir() if path.name.endswith(".partial")] == []
        if command == "tune":
            assert run(
                "--config", mini_config, "evaluate", "--model", str(model), "--features", features
            ) == 0

    def test_symlink_output_is_written_through_the_link(self, mini_config, mini_dir, tmp_path):
        target = tmp_path / "target.tsv"
        target.write_text("an earlier output\n")
        link = tmp_path / "link.tsv"
        link.symlink_to(target)
        assert run(
            "--config", mini_config, "featurize", "--split", "train", "--out", str(link)
        ) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == (mini_dir / "golden_features_train.tsv").read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.tsv", "target.tsv"]

    @pytest.mark.parametrize("command", ["train", "featurize"])
    def test_output_that_cannot_be_created_is_named_as_given(
        self, command, mini_config, mini_dir, tmp_path, capsys
    ):
        out = tmp_path / "missing" / "m.txt"
        argv = {
            "train": ["train", "--features", str(mini_dir / "golden_features_train.tsv"),
                      "--model", str(out)],
            "featurize": ["featurize", "--split", "train", "--out", str(out)],
        }[command]
        assert run("--config", mini_config, *argv) == 4
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error:io: [Errno 2] No such file or directory: '{out}'"]
        assert ".partial" not in err


class TestBuildDf:
    def test_build_df_writes_three_tables(self, mini_config, tmp_path):
        assert run(
            "--config", mini_config, "build-df", "--out-dir", str(tmp_path)
        ) == 0
        for level in ("word", "pair", "triplet"):
            table = load_df_table(tmp_path / f"df_{level}.tsv", level)
            assert table.n_docs == 56  # 12 questions + 44 candidates

    def test_featurize_with_prebuilt_tables_matches_self_built(
        self, mini_config, tmp_path
    ):
        run("--config", mini_config, "build-df", "--out-dir", str(tmp_path))
        out_self = tmp_path / "self.tsv"
        out_loaded = tmp_path / "loaded.tsv"
        run("--config", mini_config, "featurize", "--split", "dev", "--out", str(out_self))
        run(
            "--config", mini_config,
            "--set", f"resources.df_word={tmp_path / 'df_word.tsv'}",
            "--set", f"resources.df_pair={tmp_path / 'df_pair.tsv'}",
            "--set", f"resources.df_triplet={tmp_path / 'df_triplet.tsv'}",
            "featurize", "--split", "dev", "--out", str(out_loaded),
        )
        assert out_self.read_bytes() == out_loaded.read_bytes()

    def test_failed_write_leaves_no_partial_table(
        self, mini_config, tmp_path, monkeypatch, capsys
    ):
        # The pair table's write fails at its 40th key, as a full disk would,
        # once into an empty directory and once over an earlier run's tables.
        fresh, earlier = tmp_path / "fresh", tmp_path / "earlier"
        assert run("--config", mini_config, "build-df", "--out-dir", str(earlier)) == 0
        before = {path.name: path.read_bytes() for path in earlier.iterdir()}

        class FullDisk(dict):
            def __getitem__(self, key):
                if len(written) == 40:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(key)
                return super().__getitem__(key)

        written = []
        build_df = cli.build_df

        def failing_build_df(sentences):
            tables = build_df(sentences)
            tables["pair"] = replace(tables["pair"], df=FullDisk(tables["pair"].df))
            return tables

        monkeypatch.setattr(cli, "build_df", failing_build_df)
        capsys.readouterr()
        for out_dir in (fresh, earlier):
            written.clear()
            code = run("--config", mini_config, "build-df", "--out-dir", str(out_dir))
            assert code == 4
            assert capsys.readouterr().err == "error:io: [Errno 28] No space left on device\n"
        # The word table was whole and stays; the pair table was cut, and a
        # table cut at a line boundary would load as a valid one.  Over the
        # earlier run, every table keeps its bytes.
        assert sorted(p.name for p in fresh.iterdir()) == ["df_word.tsv"]
        assert load_df_table(fresh / "df_word.tsv", "word").n_docs == 56
        assert {path.name: path.read_bytes() for path in earlier.iterdir()} == before
        cut = tmp_path / "cut.tsv"
        cut.write_text("N\t56\n" + "".join(f"{key}\t1\n" for key in sorted(written)))
        assert len(load_df_table(cut, "pair").df) == 40

    @pytest.mark.parametrize("configured", [False, True])
    def test_build_df_creates_missing_directories(self, configured, mini_config, tmp_path):
        out_dir = tmp_path / "not" / "yet"
        if configured:
            written = [out_dir / level / "df.tsv" for level in LEVELS]
            argv = [arg for level, path in zip(LEVELS, written)
                    for arg in ("--set", f"resources.df_{level}={path}")] + ["build-df"]
        else:
            argv = ["build-df", "--out-dir", str(out_dir)]
            written = [out_dir / f"df_{level}.tsv" for level in LEVELS]
        assert run("--config", mini_config, *argv) == 0
        for path, level in zip(written, LEVELS):
            assert load_df_table(path, level).n_docs == 56

    @pytest.mark.parametrize("command", ["build-df", "featurize"])
    def test_some_df_paths_set_fails_with_one_config_error(
        self, command, mini_config, tmp_path, capsys
    ):
        argv = {
            "build-df": ["build-df", "--out-dir", str(tmp_path)],
            "featurize": ["featurize", "--split", "dev", "--out", str(tmp_path / "f.tsv")],
        }[command]
        code = run(
            "--config", mini_config,
            "--set", f"resources.df_word={tmp_path / 'df_word.tsv'}",
            *argv,
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error:config: set all three DF table paths or none\n"
        )
        assert sorted(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("command", ["build-df", "featurize"])
    def test_empty_train_split_fails_with_one_data_error(self, command, tmp_path, capsys):
        corpus = tmp_path / "train.tsv"
        corpus.write_text(
            "QuestionID\tQuestion\tDocumentID\tDocumentTitle\tSentenceID\tSentence\tLabel\n"
        )
        (tmp_path / "train.conllu").write_text("")
        config = tmp_path / "config.ini"
        config.write_text("[data]\ntrain = train.tsv\nconllu_train = train.conllu\n")
        argv = {
            "build-df": ["build-df", "--out-dir", str(tmp_path / "df")],
            "featurize": ["featurize", "--split", "train", "--out", str(tmp_path / "f.tsv")],
        }[command]
        assert run("--config", str(config), *argv) == 3
        assert capsys.readouterr().err == (
            f"error:data: {corpus}: no questions to build the DF tables from\n"
        )


CYCLIC_CONLLU = (
    "1\ta\ta\tNOUN\tNN\t_\t2\tdep\t_\t_\n"
    "2\tb\tb\tNOUN\tNN\t_\t1\tdep\t_\t_\n"
    "3\tc\tc\tVERB\tVB\t_\t0\troot\t_\t_\n"
    "\n"
    "1\tc\tc\tVERB\tVB\t_\t0\troot\t_\t_\n"
)
# A feature file's header and one valid row.
FEATURES_HEAD = "question_id\tcandidate_id\tgold_label\tged\nq1\tc2\t0\t0.25\n"
GOOD_FEATURES = FEATURES_HEAD + "q1\tc1\t1\t0.5\n"
MODEL_ROWS = "version 1\n0.5\nged\t1.0\t0.3\t0.1\n"

# (file kind, case, corrupt content); every case must end in exit 3 and one error line.
CORRUPT_INPUTS = [
    ("features", "non-numeric", FEATURES_HEAD + "q1\tc1\t1\thigh\n"),
    ("features", "nan", FEATURES_HEAD + "q1\tc1\t1\tnan\n"),
    ("features", "missing", FEATURES_HEAD + "q1\tc1\t1\t\n"),
    ("features", "non-numeric-label", FEATURES_HEAD + "q1\tc1\tyes\t0.5\n"),
    ("model", "non-numeric", "version 1\nhigh\nged\t1.0\t0.3\t0.1\nBIAS\t0\n"),
    ("model", "nan", MODEL_ROWS.replace("0.3", "nan") + "BIAS\t0\n"),
    ("model", "missing", MODEL_ROWS + "BIAS\n"),
    ("model", "wrong-column-count", "version 1\n0.5\nged\t1.0\t0.3\nBIAS\t0\n"),
    ("model", "duplicate-bias", MODEL_ROWS + "BIAS\t0\nBIAS\t1\n"),
    ("pos_costs", "non-numeric", "DEFAULT\tone\n"),
    ("pos_costs", "nan", "DEFAULT\tnan\n"),
    ("pos_costs", "inf", "DEFAULT\tinf\n"),
    ("pos_costs", "missing", "DEFAULT\t\n"),
    ("df", "non-numeric", "N\tmany\nwho\t3\n"),
    ("df", "nan", "N\t12\nwho\tnan\n"),
    ("df", "missing", "N\t\nwho\t3\n"),
    ("embeddings", "non-numeric", "who 0.1 high\n"),
    ("embeddings", "nan", "who 0.1 nan\n"),
    ("embeddings", "missing", "who 0.1 0.2\nwon 0.3\n"),
    ("scores", "non-numeric", "Q1\tA1\thigh\n"),
    ("scores", "nan", "Q1\tA1\tnan\n"),
    ("scores", "missing", "Q1\tA1\t\n"),
]

# One question and one candidate with their parses, keyed by sent_id.
PARSED_CORPUS = "Q1\ta b\tD\tt\tS1\tc\t0\n"
ROOT_ROW = "1\tc\tc\tVERB\tVB\t_\t0\troot\t_\t_\n"
GOOD_CONLLU = f"# sent_id = q\n{ROOT_ROW}\n# sent_id = s\n{ROOT_ROW}"
GOOD_INDEX = "q\tQ1\ns\tS1\n"


def _conllu_with_token_id(token_id):
    """GOOD_CONLLU with a second token, on line 3, under the given id."""
    row = f"{token_id}\tb\tb\tNOUN\tNN\t_\t1\tdep\t_\t_\n"
    return GOOD_CONLLU.replace(ROOT_ROW, ROOT_ROW + row, 1)


# (file kind, case, malformed content, expected message after the path).
MALFORMED_INPUTS = [
    ("features", "duplicate-pair", GOOD_FEATURES + "q1\tc1\t0\t0.5\n",
     "line 4: duplicate pair ('q1', 'c1')"),
    ("features", "header-only", FEATURES_HEAD.splitlines(True)[0], "no feature rows"),
    ("features", "wrong-column-count", FEATURES_HEAD + "q1\tc1\t1\n",
     "line 3: expected 4 columns, got 3"),
    ("features", "label-2", FEATURES_HEAD + "q1\tc1\t2\t0.5\n",
     "line 3: label must be 0 or 1, got '2'"),
    ("features", "label-minus-1", FEATURES_HEAD + "q1\tc1\t-1\t0.5\n",
     "line 3: label must be 0 or 1, got '-1'"),
    ("features", "no-feature-columns", "question_id\tcandidate_id\tgold_label\n"
     "q1\tc1\t1\nq1\tc2\t0\n", "line 1: no feature columns"),
    ("features", "feature-named-twice", "\nquestion_id\tcandidate_id\tgold_label\tged\tged\n"
     "q1\tc1\t1\t0.5\t0.5\n", "line 2: features named twice: ged"),
    # A label of any size is a finite int, so the bad value after it is named.
    ("features", "huge-label-then-bad-value", FEATURES_HEAD + f"q1\tc1\t{'9' * 400}\tx\n",
     "line 3: not a number: 'x'"),
    ("corpus", "wrong-column-count", "Q1\ta b\tD\tt\tS1\tc\n",
     "line 1: expected >= 7 columns, got 6"),
    ("model", "truncated", "version 1\n0.5\n", "truncated model file"),
    ("model", "wrong-column-count", "version 1\n\n0.5\nged\t1.0\t0.3\nBIAS\t0\n",
     "line 4: expected 4 columns, got 3"),
    ("model", "duplicate-bias", MODEL_ROWS + "BIAS\t0\nBIAS\t1\n", "line 5: duplicate BIAS row"),
    ("model", "duplicate-feature", MODEL_ROWS + "ged\t2.0\t0.3\t0.1\nBIAS\t0\n",
     "line 4: duplicate ged row"),
    ("conllu", "short-row", "# sent_id = q\n1\tc\tc\tVERB\n",
     "line 2: expected 10 columns, got 4"),
    ("conllu", "duplicate-sent-id", GOOD_CONLLU + f"\n# sent_id = q\n{ROOT_ROW}",
     "duplicate sent_id 'q'"),
    ("conllu", "id-minus-1", _conllu_with_token_id("-1"),
     "sentence 'Q1': token index -1 out of range 1..2"),
    ("conllu", "id-open-range", _conllu_with_token_id("1-"), "line 3: non-numeric id or head"),
    ("conllu", "id-fraction", _conllu_with_token_id(".5"), "line 3: non-numeric id or head"),
    ("conllu", "id-three-part-range", _conllu_with_token_id("1-2-3"),
     "line 3: non-numeric id or head"),
    ("index", "duplicate-mapping", "q\tQ1\nq\tS1\n",
     "line 2: duplicate mapping for 'q'"),
    ("index", "wrong-column-count", "q\tQ1\ts\n", "line 1: expected 2 columns, got 3"),
    ("pos_costs", "wrong-column-count", "DEFAULT\t1.0\nNOUN\tVERB\n",
     "line 2: expected 3 columns, got 2"),
    ("pos_costs", "default-below-0", "NOUN\tVERB\t0.5\nDEFAULT\t-3\n",
     "line 2: cost must be in [0, 1]"),
    ("pos_costs", "default-above-1", "DEFAULT\t7.5\n", "line 1: cost must be in [0, 1]"),
    ("df", "duplicate-key", "N\t5\nfoo\t2\nfoo\t3\n", "line 3: duplicate key 'foo'"),
    ("df", "wrong-column-count", "N\t5\n\nfoo\t2\t3\n", "line 3: expected 2 columns, got 3"),
    ("df", "count-nan", "N\t12\nwho\tnan\n", "line 2: not a number: 'nan'"),
    ("df", "blank-lines-only", "\n\r\n\n", "empty DF table file"),
    ("df", "trailing-tab", "N\t5\nfoo\t2\t\n", "line 2: expected 2 columns, got 3"),
    ("df", "huge-count", f"N\t5\nfoo\t{'9' * 400}\n", "df out of range for keys: ['foo']"),
    ("df", "huge-n", f"N\t{'9' * 400}\nfoo\t1\n", "n_docs must be at most 2**53"),
    ("df", "no-tab-then-two-tabs", "N\t5\nfoo\nbar\t1\t2\n",
     "line 2: expected 2 columns, got 1"),
    ("scores", "wrong-column-count", "Q1\tS1\t0.5\nQ1\tS2\n", "line 2: expected 3 columns, got 2"),
    # A lone CR ends a line, so one inside a row splits it.
    ("features", "cr-inside-row", FEATURES_HEAD + "q1\tc1\r1\t0.5\n",
     "line 3: expected 4 columns, got 2"),
    ("corpus", "cr-inside-row", "Q1\ta b\tD\tt\tS1\tc\r\t0\n",
     "line 1: expected >= 7 columns, got 6"),
    ("index", "cr-inside-row", "q\tQ1\ns\r\tS1\n", "line 2: expected 2 columns, got 1"),
    ("pos_costs", "cr-inside-row", "DEFAULT\t1.0\nNOUN\tVERB\r\t0.5\n",
     "line 2: expected 3 columns, got 2"),
    ("df", "cr-inside-row", "N\t5\nfoo\r\t2\n", "line 2: expected 2 columns, got 1"),
    ("scores", "cr-inside-row", "Q1\tS1\t0.5\nQ1\tS2\r\t0.5\n",
     "line 2: expected 3 columns, got 2"),
    ("embeddings", "cr-inside-row", "who 0.1 0.2\nwhat 0.3\r0.4\n", "line 2: expected 2 dims, got 1"),
    # A word2vec `count dim` header must match the vector lines and their width.
    ("embeddings", "header-count", "7 2\nwho 0.1 0.2\nwon 0.3 0.4\n",
     "line 1: header says 7 vectors of 2 dims, file has 2 of 2"),
    ("embeddings", "header-dim", "\n2 5\nwho 0.1 0.2\nwon 0.3 0.4\n",
     "line 2: header says 2 vectors of 5 dims, file has 2 of 2"),
    ("model", "cr-inside-row", "version 1\n0.5\nged\t1.0\r0.3\t0.1\nBIAS\t0\n",
     "line 3: expected 4 columns, got 2"),
]


# Field values a line mutation writes into a CoNLL-U column.
CONLLU_VALUES = ("", "_", "0", "-1", "1", "2", "99", "1-2", "1.1", "1-", ".5", "x", "root")


def mutate_conllu_line(lines, rng):
    """A copy of CoNLL-U lines with one line deleted, repeated, swapped with
    another, preceded by a blank or comment line, or with one column
    replaced or dropped."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    op = rng.randrange(6)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 3:
        lines.insert(i, rng.choice(("", "#", "# sent_id = train-q01")))
    else:
        columns = lines[i].split("\t")
        k = rng.randrange(len(columns))
        if op == 4:
            columns[k] = rng.choice(CONLLU_VALUES)
        else:
            del columns[k]
        lines[i] = "\t".join(columns)
    return lines


def _corrupt_input_argv(kind, path, tmp_path, mini_config):
    if kind == "features":
        return ["train", "--features", str(path), "--model", str(tmp_path / "m.txt")]
    if kind == "model":
        features = tmp_path / "features.tsv"
        features.write_text(GOOD_FEATURES)
        return ["evaluate", "--model", str(path), "--features", str(features)]
    if kind == "corpus":
        overrides = ["features.manifest=bm25", f"data.dev={path}"]
    elif kind in ("conllu", "index"):
        parse_files = {"dev": PARSED_CORPUS, "conllu_dev": GOOD_CONLLU, "index_dev": GOOD_INDEX}
        for key, content in parse_files.items():
            (tmp_path / key).write_text(content)
        overrides = ["features.manifest=ged"]
        overrides += [f"data.{key}={tmp_path / key}" for key in parse_files]
        overrides.append(f"data.{kind}_dev={path}")
    else:
        manifest, keys = {
            "pos_costs": ("ged", ["resources.pos_costs"]),
            "df": ("sim_word", [f"resources.df_{level}" for level in ("word", "pair", "triplet")]),
            "embeddings": ("semvec", ["data.embeddings"]),
            "scores": ("ext_score", ["data.scores"]),
        }[kind]
        overrides = [f"features.manifest={manifest}"] + [f"{key}={path}" for key in keys]
    return [
        *(arg for item in overrides for arg in ("--set", item)),
        "featurize", "--split", "dev", "--out", str(tmp_path / "out.tsv"),
    ]


# Every kind of file the CLI reads.
INPUT_KINDS = (
    "config", "corpus", "conllu", "index", "scores", "embeddings", "pos_costs", "df",
    "features", "model",
)


def _input_argv(kind, path, tmp_path, mini_config):
    """Full argv of a command that reads `path` as a file of the given kind."""
    if kind == "config":
        return ["--config", str(path), "train", "--features", "f.tsv", "--model", "m.txt"]
    return ["--config", mini_config, *_corrupt_input_argv(kind, path, tmp_path, mini_config)]


class TestLineEnds:
    @pytest.mark.parametrize("kind", [
        "df-bulk", "df-lines", "corpus", "index", "scores", "pos_costs", "features",
        "conllu", "embeddings", "model", "config",
    ])
    def test_lone_carriage_return_ends_a_line(self, kind, mini_config, mini_dir, tmp_path):
        # Every reader opens text with universal newlines: a copy of an LF
        # input whose line ends are all lone CRs loads equal to the LF copy.
        # `df-lines` reads through the line reader on tsv_rows that the DF
        # parity test holds load_df_table to.
        assert run("--config", mini_config, "build-df", "--out-dir", str(tmp_path)) == 0
        index = mini_dir / "index_train.tsv"
        source, load = {
            "df-bulk": (tmp_path / "df_word.tsv", lambda path: load_df_table(path, "word")),
            "df-lines": (tmp_path / "df_pair.tsv", lambda path: reference_df_table(path, "pair")),
            "corpus": (mini_dir / "train.tsv", load_wikiqa),
            "index": (index, _read_index),
            "scores": (mini_dir / "scores.tsv", load_scores),
            "pos_costs": (mini_dir / "pos_costs.tsv", load_pos_table),
            "features": (mini_dir / "golden_features_train.tsv", read_features),
            "conllu": (mini_dir / "parses_train.conllu", lambda path: attach_parses(
                load_wikiqa(mini_dir / "train.tsv"), path, index)),
            "embeddings": (mini_dir / "embeddings.txt", lambda path: vars(load_embeddings(path))),
            "model": (mini_dir / "golden_model_train.txt", lambda path: vars(load_model(path))),
            "config": (mini_dir / "config.ini", lambda path: load_config(path, env={})),
        }[kind]
        text = source.read_bytes()
        assert b"\r" not in text and text.count(b"\n") > 2
        lf, cr = tmp_path / f"lf-{source.name}", tmp_path / f"cr-{source.name}"
        lf.write_bytes(text)
        cr.write_bytes(text.replace(b"\n", b"\r"))
        np.testing.assert_equal(load(cr), load(lf))


class TestCorruptInputs:
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_not_utf8_file_fails_with_one_data_error(
        self, kind, mini_config, tmp_path, capsys
    ):
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(b"who\t0.5\n\xff\n")
        code = run(*_input_argv(kind, path, tmp_path, mini_config))
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err == [f"error:data: {path}: not UTF-8 text: invalid start byte"]

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_directory_fails_with_one_io_error(self, kind, mini_config, tmp_path, capsys):
        path = tmp_path / f"{kind}.d"
        path.mkdir()
        code = run(*_input_argv(kind, path, tmp_path, mini_config))
        err = capsys.readouterr().err.splitlines()
        assert code == 4
        assert len(err) == 1 and err[0].startswith("error:io:"), err
        assert str(path) in err[0]

    @pytest.mark.parametrize(
        "kind, case, content",
        CORRUPT_INPUTS,
        ids=[f"{kind}-{case}" for kind, case, _ in CORRUPT_INPUTS],
    )
    def test_numeric_field_fails_with_one_data_error(
        self, kind, case, content, mini_config, tmp_path, capsys
    ):
        path = tmp_path / f"{kind}.txt"
        path.write_text(content)
        argv = _corrupt_input_argv(kind, path, tmp_path, mini_config)
        code = run("--config", mini_config, *argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error:data:"), err
        assert str(path) in err[0]

    @pytest.mark.parametrize(
        "kind, case, content, message",
        MALFORMED_INPUTS,
        ids=[f"{kind}-{case}" for kind, case, _, _ in MALFORMED_INPUTS],
    )
    def test_malformed_file_fails_with_one_data_error(
        self, kind, case, content, message, mini_config, tmp_path, capsys
    ):
        path = tmp_path / f"{kind}.txt"
        path.write_text(content)
        argv = _corrupt_input_argv(kind, path, tmp_path, mini_config)
        code = run("--config", mini_config, *argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error:data:"), err
        assert f"{path}: {message}" in err[0]

    def test_mutated_parses_end_in_success_or_one_data_error(
        self, mini_config, mini_dir, tmp_path, capsys
    ):
        rng = random.Random(1104)
        lines = (mini_dir / "parses_train.conllu").read_text().splitlines()
        path = tmp_path / "parses.conllu"
        outcomes = []
        for _ in range(200):
            path.write_text("\n".join(mutate_conllu_line(lines, rng)) + "\n")
            code = run(
                "--config", mini_config, "--set", f"data.conllu_train={path}",
                "featurize", "--split", "train", "--out", str(tmp_path / "out.tsv"),
            )
            err = capsys.readouterr().err.splitlines()
            if code != 0:
                assert code == 3 and len(err) == 1 and err[0].startswith("error:data:"), err
            outcomes.append(code)
        assert {0, 3} <= set(outcomes)  # both kinds of mutation were drawn

    def test_index_that_maps_nothing_fails_with_one_short_data_error(
        self, mini_config, mini_dir, tmp_path, capsys
    ):
        # The error counts the sentences left without a parse and names five.
        index = tmp_path / "index.tsv"
        index.write_text("")
        code = run(
            "--config", mini_config, "--set", f"data.index_train={index}",
            "featurize", "--split", "train", "--out", str(tmp_path / "out.tsv"),
        )
        ids = ", ".join(f"train-q0{i}" for i in range(1, 6))
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error:data: {mini_dir / 'parses_train.conllu'}: no parse for 56 of 56 ids: "
            f"{ids}, ..."
        ]

    def test_cyclic_parse_fails_with_one_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.tsv"
        corpus.write_text("Q1\ta b c\tD\tt\tS1\tc\t0\n")
        conllu = tmp_path / "p.conllu"
        conllu.write_text(CYCLIC_CONLLU)
        code = run(
            "--set", f"data.train={corpus}", "--set", f"data.conllu_train={conllu}",
            "--set", "features.manifest=ged",
            "featurize", "--split", "train", "--out", str(tmp_path / "out.tsv"),
        )
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error:data:"), err
        assert "cycle" in err[0]


# The CLI's reader of each kind of input file, and the positions of the
# paths it is given among its arguments.
READERS = {
    "load_wikiqa": (0,), "attach_parses": (1, 2), "load_scores": (0,), "load_embeddings": (0,),
    "load_pos_table": (0,), "load_df_table": (0,), "read_features": (0,), "load_model": (0,),
}


class TestEachInputReadOnce:
    @pytest.fixture
    def reads(self, monkeypatch):
        """A Counter of the paths given to each reader, as the CLI calls them."""
        counts = Counter()

        def counted(name, reader, positions):
            def wrapper(*args):
                counts.update((name, str(args[i])) for i in positions if args[i] is not None)
                return reader(*args)
            return wrapper

        for name, positions in READERS.items():
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name), positions))
        return counts

    @staticmethod
    def feature_argv(command, mini_dir, tmp_path):
        """argv of `command` on the mini golden feature file, with a copy of
        the golden model where it reads one."""
        model = tmp_path / "model.txt"
        model.write_bytes((mini_dir / "golden_model_train.txt").read_bytes())
        features = str(mini_dir / "golden_features_train.tsv")
        return {
            "train": ["train", "--features", features, "--model", str(tmp_path / "new.txt")],
            "tune": ["tune", "--model", str(model), "--features", features, "--update-model"],
            "predict": ["predict", "--model", str(model), "--features", features,
                        "--out", str(tmp_path / "p.tsv")],
            "evaluate": ["evaluate", "--model", str(model), "--features", features,
                         "--baselines"],
        }.get(command)

    @pytest.mark.parametrize("command", [
        "build-df", "featurize-train", "featurize-dev", "featurize-test",
        "featurize-train-all", "featurize-dev-all", "train", "tune", "predict", "evaluate",
    ])
    def test_every_subcommand_reads_each_input_at_most_once(
        self, command, reads, mini_config, mini_dir, tmp_path, capsys
    ):
        stage, _, rest = command.partition("-")
        argv = self.feature_argv(command, mini_dir, tmp_path)
        if command == "build-df":
            argv = ["build-df", "--out-dir", str(tmp_path)]
        if stage == "featurize":
            split, _, every = rest.partition("-")
            argv = ["featurize", "--split", split, "--out", str(tmp_path / "f.tsv")]
            if every:
                argv = ["--set", f"features.manifest={','.join(FEATURE_NAMES)}", *argv]
        assert run("--config", mini_config, *argv) == 0
        capsys.readouterr()
        assert reads and max(reads.values()) == 1, reads
        if command.startswith("featurize-train"):
            # The in-memory DF tables come from the train split featurize read.
            assert reads[("load_wikiqa", str(mini_dir / "train.tsv"))] == 1
            assert reads[("attach_parses", str(mini_dir / "parses_train.conllu"))] == 1

    @pytest.mark.parametrize("command", ["train", "tune", "predict", "evaluate"])
    def test_feature_file_is_opened_once(
        self, command, mini_config, mini_dir, tmp_path, monkeypatch, capsys
    ):
        opened = Counter()
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened[str(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        assert run("--config", mini_config, *self.feature_argv(command, mini_dir, tmp_path)) == 0
        capsys.readouterr()
        assert opened[str(mini_dir / "golden_features_train.tsv")] == 1, opened

    @pytest.mark.parametrize("command", ["tune", "evaluate"])
    def test_feature_file_is_indexed_once_for_every_score_column(
        self, command, mini_config, mini_dir, tmp_path, monkeypatch, capsys
    ):
        # The lexical golden file holds the bm25, ngram and semvec columns,
        # so evaluate --baselines scores four columns against one index.
        features = str(mini_dir / "golden_features_lexical_train.tsv")
        model = str(tmp_path / "model.txt")
        assert run("--config", mini_config, "train", "--features", features, "--model", model) == 0
        built, reports = [], []
        build, report = QuestionIndex.build, cli.triggering_report
        monkeypatch.setattr(
            QuestionIndex, "build",
            classmethod(lambda cls, rows: built.append(len(rows)) or build(rows)),
        )
        monkeypatch.setattr(
            cli, "triggering_report", lambda *args: reports.append(args[0]) or report(*args)
        )
        argv = {
            "tune": ["tune", "--model", model, "--features", features],
            "evaluate": ["evaluate", "--model", model, "--features", features, "--baselines"],
        }[command]
        assert run("--config", mini_config, *argv) == 0
        capsys.readouterr()
        assert built == [len(read_features(features)[1])]
        if command == "evaluate":
            assert len(reports) == 4 and all(index is reports[0] for index in reports)


class _Expired(BaseException):
    """Raised by the timer; main turns only Exception subclasses into exits."""


def run_within(seconds, *argv):
    """run(*argv), failing with _Expired if it takes longer than `seconds`."""

    def expire(signum, frame):
        raise _Expired(f"{' '.join(argv)} took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run(*argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


EXTREMES = {"0": "0", "1": "1", "2**31": str(2**31), "2**63": str(2**63), "400-digits": "9" * 400}
# Each numeric [hyper] key and the features that read it; l2 and threshold
# are read by train.
HYPER_READERS = {
    "alpha1": "sim_word", "alpha2": "sim_pair", "alpha3": "sim_triplet",
    "m": "graph_cov_ans,graph_cov_ques", "edge_weight": "ged", "delete_cost": "ged",
    "k1": "bm25", "b": "bm25", "n_max": "ngram", "l2": None, "threshold": None,
}
# Each place a number is written: [hyper] keys, the DF table's N and counts,
# a POS table's default cost, the two fields of an embedding header, and a
# feature file's labels.
EXTREME_TARGETS = [f"hyper.{key}" for key in HYPER_READERS] + [
    "df-n", "df-count", "pos_costs-default", "embeddings-header-count",
    "embeddings-header-dim", "features-label",
]
EXIT_KINDS = {2: "config", 3: "data", 4: "io", 5: "internal"}


class TestExtremeValues:
    @pytest.mark.parametrize("value", EXTREMES.values(), ids=EXTREMES.keys())
    @pytest.mark.parametrize("target", EXTREME_TARGETS)
    def test_ends_in_success_or_one_documented_error_line(
        self, target, value, mini_config, mini_dir, tmp_path, capsys
    ):
        features = str(mini_dir / "golden_features_train.tsv")
        train = ["train", "--features", features, "--model", str(tmp_path / "m.txt")]
        featurize = ["featurize", "--split", "dev", "--out", str(tmp_path / "f.tsv")]
        if target.startswith("hyper."):
            manifest = HYPER_READERS[target.split(".")[1]]
            argv = ["--set", f"{target}={value}"]
            argv += train if manifest is None else ["--set", f"features.manifest={manifest}",
                                                    *featurize]
        elif target.startswith("df-"):
            table = tmp_path / "df.tsv"
            n, count = (value, "1") if target == "df-n" else ("5", value)
            table.write_text(f"N\t{n}\nfoo\t{count}\n")
            argv = [arg for level in LEVELS
                    for arg in ("--set", f"resources.df_{level}={table}")]
            argv += ["--set", "features.manifest=sim_word", *featurize]
        elif target == "pos_costs-default":
            table = tmp_path / "pos_costs.tsv"
            table.write_text(f"DEFAULT\t{value}\n")
            argv = ["--set", f"resources.pos_costs={table}",
                    "--set", "features.manifest=ged", *featurize]
        elif target.startswith("embeddings-"):
            header = f"{value} 2" if target.endswith("count") else f"94 {value}"
            embeddings = tmp_path / "embeddings.txt"
            embeddings.write_text(f"{header}\n{(mini_dir / 'embeddings.txt').read_text()}")
            argv = ["--set", f"data.embeddings={embeddings}",
                    "--set", "features.manifest=semvec", *featurize]
        else:
            path = tmp_path / "features.tsv"
            path.write_text(f"{FEATURES_HEAD}q1\tc1\t{value}\t0.5\n")
            argv = ["train", "--features", str(path), "--model", str(tmp_path / "m.txt")]
        code = run_within(20, "--config", mini_config, *argv)
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert err == []
        else:
            assert len(err) == 1 and err[0].startswith(f"error:{EXIT_KINDS[code]}: "), (code, err)
