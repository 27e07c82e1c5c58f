"""Command-line pipeline: featurize, train, tune, predict, evaluate, build-df.

Configuration comes from an INI-style file of `key = value` lines under
`[section]` headers.  Values may be overridden by environment variables named
QATRIGGER_<SECTION>_<KEY> and by repeated `--set section.key=value` flags
(flags win over the environment, which wins over the file).  Paths inside a
config file are resolved relative to the file's directory; overrides are
resolved relative to the working directory.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from contextlib import closing
from dataclasses import dataclass, field, fields, replace
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np

from .baselines import load_embeddings
from .combiner import (
    DEFAULT_MANIFEST,
    FeatureResources,
    TrainConfig,
    _fmt,
    check_manifest,
    extract_features,
    load_model,
    reads_parses,
    save_model,
    sigmoid,
    train,
)
from .corpus import QuestionGroup, Sentence, attach_parses, load_scores, load_wikiqa
from .errors import (
    ConfigError, IngestionError, QaTriggerError, open_output, open_text, parse_block,
    parse_number, tsv_rows,
)
from .evaluation import QuestionIndex, triggering_report, tune_threshold
from .ged import GedConfig, load_pos_table
from .graphsim import LEVELS, build_df, load_df_table, save_df_table

ENV_PREFIX = "QATRIGGER"
SPLITS = ("train", "dev", "test")

_POSITIONAL_NOTE = (
    "When no index file is configured for a split, parses align positionally: "
    "all questions first, then all candidates, both in corpus order."
)


def _key(section: str, default: object = None, key: str | None = None):
    """A RunConfig field set by `[section] key`; the key defaults to the field name."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class RunConfig:
    """Typed view of the configuration file plus overrides.

    Each field names its INI section (and key) in its metadata; its type
    picks the parser: a path, a finite number, an integer or the feature
    manifest.
    """

    train: Path | None = _key("data")
    dev: Path | None = _key("data")
    test: Path | None = _key("data")
    conllu_train: Path | None = _key("data")
    conllu_dev: Path | None = _key("data")
    conllu_test: Path | None = _key("data")
    index_train: Path | None = _key("data")
    index_dev: Path | None = _key("data")
    index_test: Path | None = _key("data")
    scores: Path | None = _key("data")
    embeddings: Path | None = _key("data")
    df_word: Path | None = _key("resources")
    df_pair: Path | None = _key("resources")
    df_triplet: Path | None = _key("resources")
    pos_costs: Path | None = _key("resources")
    manifest: tuple[str, ...] = _key("features", DEFAULT_MANIFEST)
    # Each [hyper] default is the library's, read from the field it sets.
    alpha1: float = _key("hyper", FeatureResources.alphas[0])
    alpha2: float = _key("hyper", FeatureResources.alphas[1])
    alpha3: float = _key("hyper", FeatureResources.alphas[2])
    subgraph_m: int = _key("hyper", FeatureResources.subgraph_m, key="m")
    edge_weight: float = _key("hyper", GedConfig.edge_weight)
    delete_cost: float = _key("hyper", GedConfig.delete_cost)
    k1: float = _key("hyper", FeatureResources.k1)
    b: float = _key("hyper", FeatureResources.b)
    n_max: int = _key("hyper", FeatureResources.n_max)
    l2: float = _key("hyper", TrainConfig.l2)
    threshold: float = _key("hyper", TrainConfig.threshold)
    bm25_threshold: float | None = _key("baselines")
    ngram_threshold: float | None = _key("baselines")
    semvec_threshold: float | None = _key("baselines", 0.70)

    def feature_resources(self) -> FeatureResources:
        """The FeatureResources, with its GedConfig, that the [hyper] keys set."""
        return FeatureResources(
            ged_config=GedConfig(edge_weight=self.edge_weight, delete_cost=self.delete_cost),
            alphas=(self.alpha1, self.alpha2, self.alpha3),
            subgraph_m=self.subgraph_m,
            k1=self.k1,
            b=self.b,
            n_max=self.n_max,
        )

    def train_config(self) -> TrainConfig:
        """The TrainConfig that the [hyper] keys set."""
        return TrainConfig(l2=self.l2, threshold=self.threshold)


# (section, key) -> RunConfig field name, and field name -> type.
_FIELDS = {
    (f.metadata["section"], f.metadata["key"] or f.name): f.name for f in fields(RunConfig)
}
_TYPES = get_type_hints(RunConfig)


def _apply(config: RunConfig, section: str, key: str, value: str, base: Path | None) -> None:
    section, key = section.lower(), key.lower()
    name = _FIELDS.get((section, key))
    if name is None:
        raise ConfigError(f"unknown configuration key [{section}] {key}")
    kind = _TYPES[name]
    if kind == Path | None:
        path = Path(value)
        if base is not None and not path.is_absolute():
            path = base / path
        setattr(config, name, path)
    elif kind == tuple[str, ...]:
        setattr(config, name, tuple(n.strip() for n in value.split(",") if n.strip()))
    else:
        number, what = (int, "an integer") if kind is int else (float, "a number")
        try:
            parsed = number(value)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not {what}: {value!r}") from exc
        if number is float and not math.isfinite(parsed):  # int() gives no nan or inf
            raise ConfigError(f"[{section}] {key}: not a finite number: {value!r}")
        setattr(config, name, parsed)


def load_config(
    config_path: str | Path | None,
    overrides: list[str] | None = None,
    env: dict[str, str] | None = None,
) -> RunConfig:
    config = RunConfig()
    if config_path is not None:
        path = Path(config_path)
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open_text(path) as handle:
                parser.read_file(handle)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except configparser.Error as exc:
            raise ConfigError(" ".join(str(exc).split())) from exc
        base = path.parent.resolve()
        for section in parser.sections():
            for key, value in parser.items(section):
                _apply(config, section, key, value, base=base)
    env = os.environ if env is None else env
    for name, value in sorted(env.items()):
        if not name.startswith(ENV_PREFIX + "_"):
            continue
        parts = name.split("_", 2)
        if len(parts) != 3:
            raise ConfigError(f"malformed environment override {name}")
        _apply(config, parts[1], parts[2], value, base=None)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        _apply(config, section.strip(), key.strip(), value.strip(), base=None)
    try:  # each library object checks the ranges of its own fields
        config.feature_resources()
        config.train_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.manifest:  # an empty one is an error only where features are made
        check_manifest(config.manifest)
    return config


def _require(value: Path | None, what: str) -> Path:
    if value is None:
        raise ConfigError(f"missing required configuration: {what}")
    return value


def load_split(config: RunConfig, split: str, with_parses: bool) -> list[QuestionGroup]:
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}")
    corpus_path = _require(getattr(config, split), f"[data] {split}")
    groups = load_wikiqa(corpus_path)
    if with_parses:
        conllu = getattr(config, f"conllu_{split}")
        if conllu is None:
            raise ConfigError(
                f"graph features need parses: set [data] conllu_{split}"
            )
        groups = attach_parses(groups, conllu, getattr(config, f"index_{split}"))
    return groups


def _df_paths(config: RunConfig) -> dict[str, Path] | None:
    """The configured DF table path of each level, or None when none is set;
    a config that sets only some of them is an error."""
    paths = {level: getattr(config, f"df_{level}") for level in LEVELS}
    if all(p is None for p in paths.values()):
        return None
    if any(p is None for p in paths.values()):
        raise ConfigError("set all three DF table paths or none")
    return paths


def _train_sentences(
    config: RunConfig, groups: list[QuestionGroup] | None = None
) -> list[Sentence]:
    """The parses of the train split, `groups` or else loaded; IngestionError
    when it holds no question, ConfigError when it holds no parses."""
    if groups is None:
        groups = load_split(config, "train", with_parses=True)
    if not groups:
        raise IngestionError(f"{config.train}: no questions to build the DF tables from")
    if any(g.parses is None for g in groups):
        raise ConfigError("graph features need parses: set [data] conllu_train")
    return [sentence for g in groups for sentence in g.parses]


def build_resources(
    config: RunConfig, manifest: tuple[str, ...], train_split: list[QuestionGroup] | None
) -> FeatureResources:
    """Resources for the manifest's features; each file is read only when a
    selected feature reads it.

    `train_split` is the parsed train split when the caller already holds
    it, and None otherwise.  DF tables with no configured paths are built
    from it, so that the split is not read twice.
    """
    resources = config.feature_resources()
    loaded: dict[str, object] = {}
    if config.pos_costs and "ged" in manifest:
        pos_table = load_pos_table(config.pos_costs)
        loaded["ged_config"] = replace(resources.ged_config, pos_table=pos_table)
    if any(name.startswith("sim_") for name in manifest):
        paths = _df_paths(config)
        loaded["df_tables"] = (
            build_df(_train_sentences(config, train_split)) if paths is None
            else {level: load_df_table(paths[level], level) for level in LEVELS}
        )
    if "ext_score" in manifest:
        scores_path = _require(config.scores, "[data] scores (ext_score enabled)")
        loaded["scores"], duplicates = load_scores(scores_path)
        if duplicates:
            print(f"warning: {duplicates} duplicate score rows (last wins)", file=sys.stderr)
    if "semvec" in manifest:
        emb_path = _require(config.embeddings, "[data] embeddings (semvec enabled)")
        loaded["embeddings"] = load_embeddings(emb_path)
    return replace(resources, **loaded)


# Texts, a question and its candidates each, per extract_features call in
# featurize.  A batch's token lists and semvec means are held at once: on a
# WikiQA-sized train split, 1,024 texts were no faster than 512 beyond the
# noise of the measurement and took about 3 MB more peak memory.
_BATCH_TEXTS = 512


def _batches(groups: list[QuestionGroup]) -> Iterator[list[QuestionGroup]]:
    """Runs of consecutive groups of at most _BATCH_TEXTS texts in all; a
    group with more texts is a run of its own."""
    batch: list[QuestionGroup] = []
    texts = 0
    for group in groups:
        size = 1 + len(group.candidates)
        if batch and texts + size > _BATCH_TEXTS:
            yield batch
            batch, texts = [], 0
        batch.append(group)
        texts += size
    if batch:
        yield batch


def cmd_featurize(config: RunConfig, split: str, out_path: Path) -> int:
    """Write the split's feature file.  The groups are featurized in runs of
    consecutive groups (_batches), and every row is written as it is made,
    its values in _fmt's %.17g form."""
    check_manifest(config.manifest)
    groups = load_split(config, split, reads_parses(config.manifest))
    resources = build_resources(config, config.manifest, groups if split == "train" else None)
    line = "%s\t%s\t%s" + "\t%.17g" * len(config.manifest) + "\n"
    with open_output(out_path) as handle:
        handle.write(
            "question_id\tcandidate_id\tgold_label\t" + "\t".join(config.manifest) + "\n"
        )
        for batch in _batches(groups):
            rows = extract_features(batch, resources, config.manifest)
            pairs = [(g.question_id, cid, label) for g in batch for cid, _, label in g.candidates]
            handle.writelines(line % (*pair, *values) for pair, values in zip(pairs, rows))
    n_pairs = sum(len(g.candidates) for g in groups)
    print(f"featurized {len(groups)} questions / {n_pairs} pairs -> {out_path}")
    return 0


_FEATURE_HEAD = ["question_id", "candidate_id", "gold_label"]
_LABELS = {"0": 0, "1": 1}


def read_features(
    path: str | Path,
) -> tuple[tuple[str, ...], list[tuple[str, str, int]], np.ndarray]:
    """Read a non-empty feature TSV of unique pairs and finite values into
    (feature_names, (question_id, candidate_id, label) per row, matrix).
    Its first non-empty row is the header, and every later row must have
    the header's width.

    numpy's C reader parses the numbers of a valid file, column-wise in one
    pass (_read_feature_columns).  A file it rejects, or that breaks any
    rule, is read again row by row with int() and float()
    (_read_feature_rows), which names the first fault or takes what only
    they parse, such as a label `01` or a value `1_0`.
    """
    path = Path(path)
    try:
        parsed = _read_feature_columns(path)
    except IngestionError:  # not UTF-8; the row loop names the file's first fault
        parsed = None
    return _read_feature_rows(path) if parsed is None else parsed


def _read_feature_columns(path: Path):
    """read_features' result for a valid file whose labels are spelled `0`
    or `1` and whose values numpy's reader takes, else None.  Each line is
    split once into one flat list of fields, and every fourth field makes a
    column, so no list per row is kept for the garbage collector to walk.
    The rules are checked on whole columns."""
    with open_text(path) as handle:
        header = next((line for line in handle if line != "\n"), "").rstrip("\n").split("\t")
        lines = [line for line in handle if line != "\n"]
    names = tuple(header[3:])
    fields = list(chain.from_iterable(map(str.split, lines, repeat("\t"), repeat(3))))
    # A line splits into at most 4 fields, so 4 per line means all have 4.
    if (header[:3] != _FEATURE_HEAD or not names or len(set(names)) < len(names)
            or not lines or len(fields) != 4 * len(lines)):
        return None
    qids, cids, labels, values = (fields[i::4] for i in range(4))
    # No id holds a tab, so joining a pair with one keeps pairs apart.
    if not _LABELS.keys() >= set(labels) or len(set(map("\t".join, zip(qids, cids)))) < len(qids):
        return None
    matrix = parse_block(values, len(names), "\t")
    if matrix is None:
        return None
    return names, list(zip(qids, cids, map(_LABELS.__getitem__, labels))), matrix


def _read_feature_rows(
    path: Path,
) -> tuple[tuple[str, ...], list[tuple[str, str, int]], np.ndarray]:
    """read_features one row at a time: IngestionError at the first fault."""
    keys: list[tuple[str, str, int]] = []
    seen: set[tuple[str, str]] = set()
    values: list[float] = []
    linenos: list[int] = []
    with closing(tsv_rows(path)) as rows:
        lineno, header = next(rows, (0, []))
        if header[:3] != _FEATURE_HEAD:
            raise IngestionError(f"{path}: not a feature file (bad header)")
        names = tuple(header[3:])
        if not names:
            raise IngestionError(f"{path}: line {lineno}: no feature columns")
        twice = [name for name in dict.fromkeys(names) if names.count(name) > 1]
        if twice:
            raise IngestionError(
                f"{path}: line {lineno}: features named twice: {', '.join(twice)}"
            )
        for lineno, columns in rows:
            if len(columns) != len(header):
                raise IngestionError(
                    f"{path}: line {lineno}: expected {len(header)} columns, got {len(columns)}"
                )
            try:
                label = int(columns[2])
                values.extend(map(float, columns[3:]))
            except ValueError:
                # Parsing the same fields again raises the named error.
                parse_number(columns[2], path, lineno, int)
                for v in columns[3:]:
                    parse_number(v, path, lineno)
            if label not in (0, 1):
                raise IngestionError(
                    f"{path}: line {lineno}: label must be 0 or 1, got {columns[2]!r}"
                )
            pair = (columns[0], columns[1])
            if pair in seen:
                raise IngestionError(f"{path}: line {lineno}: duplicate pair {pair}")
            seen.add(pair)
            keys.append((*pair, label))
            linenos.append(lineno)
    if not keys:
        raise IngestionError(f"{path}: no feature rows")
    matrix = np.array(values, dtype=float).reshape(len(keys), len(names))
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise IngestionError(f"{path}: line {linenos[row]}: feature value is not finite")
    return names, keys, matrix


def cmd_train(config: RunConfig, features_path: Path, model_path: Path) -> int:
    names, keys, x = read_features(features_path)
    y = [label for _, _, label in keys]
    hyper = config.train_config()
    try:
        model = train(x, y, names, hyper)
    except ValueError as exc:
        raise IngestionError(str(exc)) from exc
    save_model(model, model_path)
    # A row is predicted positive when its probability is above 0.5, i.e.
    # when its logit is positive; only a logit this close to 0 can round
    # the probability onto 0.5, so only there is the probability taken.
    logits = model.logits(x)
    predictions = logits > 0
    near = np.abs(logits) < 1e-6
    predictions[near] = [sigmoid(v) > 0.5 for v in logits[near].tolist()]
    accuracy = int(np.count_nonzero(predictions == np.asarray(y))) / len(y)
    print(
        f"trained on {len(y)} pairs: grad_norm={model.grad_norm:.1e} "
        f"final_loss={model.final_loss:.6f} train_accuracy={accuracy:.4f} -> {model_path}"
    )
    return 0


def _score_features(model_path: Path, features_path: Path):
    """The model, the feature file's keys and matrix, and the model's
    probability for each row."""
    model = load_model(model_path)
    names, keys, matrix = read_features(features_path)
    if names != model.feature_names:
        raise ConfigError(
            f"feature file columns {names} do not match model features {model.feature_names}"
        )
    return model, keys, matrix, model.scores(matrix)


def cmd_tune(
    config: RunConfig, model_path: Path, features_path: Path, update_model: bool
) -> int:
    model, keys, _, scores = _score_features(model_path, features_path)
    try:
        threshold, best_f1 = tune_threshold(QuestionIndex.build(keys), scores)
    except ValueError as exc:
        raise IngestionError(str(exc)) from exc
    print(f"threshold={_fmt(threshold)} dev_f1={best_f1:.2f}")
    if update_model:
        model.threshold = threshold
        save_model(model, model_path)
        print(f"model threshold updated -> {model_path}")
    return 0


def cmd_predict(
    config: RunConfig, model_path: Path, features_path: Path, out_path: Path
) -> int:
    _, keys, _, scores = _score_features(model_path, features_path)
    with open_output(out_path) as handle:
        for (qid, cid, _), score in zip(keys, scores):
            handle.write(f"{qid}\t{cid}\t{_fmt(score)}\n")
    print(f"wrote {len(keys)} predictions -> {out_path}")
    return 0


def _baseline_threshold(
    config: RunConfig, name: str, index: QuestionIndex, scores: list[float]
) -> float:
    configured = getattr(config, f"{name}_threshold")
    if configured is not None:
        return configured
    try:
        threshold, _ = tune_threshold(index, scores)
    except ValueError as exc:
        raise IngestionError(f"baseline {name}: {exc}; set [baselines] {name}_threshold") from exc
    return threshold


def cmd_evaluate(
    config: RunConfig,
    model_path: Path,
    features_path: Path,
    report_path: Path | None,
    with_baselines: bool,
) -> int:
    model, keys, matrix, scores = _score_features(model_path, features_path)
    index = QuestionIndex.build(keys)
    names = model.feature_names
    report = triggering_report(index, scores, model.threshold)
    sections = [
        f"== model (threshold {_fmt(model.threshold)}) ==",
        report.as_text(),
        report.as_kv(),
    ]
    if with_baselines:
        for name in ("bm25", "ngram", "semvec"):
            if name not in names:
                continue
            column = matrix[:, names.index(name)].tolist()
            threshold = _baseline_threshold(config, name, index, column)
            baseline_report = triggering_report(index, column, threshold)
            sections.append(f"== baseline {name} (threshold {_fmt(threshold)}) ==")
            sections.append(baseline_report.as_text())
            sections.append(baseline_report.as_kv())
    text = "\n".join(sections) + "\n"
    print(text, end="")
    if report_path is not None:
        with open_output(report_path) as handle:
            handle.write(text)
    return 0


def cmd_build_df(config: RunConfig, out_dir: Path | None) -> int:
    targets = _df_paths(config)
    if targets is None:
        if out_dir is None:
            raise ConfigError("set [resources] df_* paths or pass --out-dir")
        targets = {level: out_dir / f"df_{level}.tsv" for level in LEVELS}
    for level, table in build_df(_train_sentences(config)).items():
        targets[level].parent.mkdir(parents=True, exist_ok=True)
        save_df_table(table, targets[level])
        print(f"df[{level}]: {len(table.df)} keys over {table.n_docs} docs -> {targets[level]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qatrigger",
        description="Answer triggering with dependency-graph alignment features.",
        epilog=(
            "Configuration precedence: --set flags > QATRIGGER_<SECTION>_<KEY> "
            "environment variables > the --config file > built-in defaults. "
            + _POSITIONAL_NOTE
        ),
    )
    parser.add_argument("--config", type=Path, default=None, help="INI config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "featurize",
        help="extract feature vectors for one corpus split",
        description="Extract per-pair feature vectors to a TSV. " + _POSITIONAL_NOTE,
    )
    p.add_argument("--split", choices=SPLITS, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(run=lambda config, args: cmd_featurize(config, args.split, args.out))

    p = sub.add_parser("train", help="fit the logistic-regression trigger model")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    p.set_defaults(run=lambda config, args: cmd_train(config, args.features, args.model))

    p = sub.add_parser("tune", help="pick the triggering threshold on dev features")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument(
        "--update-model", action="store_true", help="write the tuned threshold back"
    )
    p.set_defaults(
        run=lambda config, args: cmd_tune(config, args.model, args.features, args.update_model)
    )

    p = sub.add_parser("predict", help="write per-pair trigger probabilities")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(
        run=lambda config, args: cmd_predict(config, args.model, args.features, args.out)
    )

    p = sub.add_parser("evaluate", help="report MAP/MRR and triggering P/R/F")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--report", type=Path, default=None, help="also write the report here")
    p.add_argument(
        "--baselines",
        action="store_true",
        help="also report each baseline feature column present in the file",
    )
    p.set_defaults(
        run=lambda config, args: cmd_evaluate(
            config, args.model, args.features, args.report, args.baselines
        )
    )

    p = sub.add_parser(
        "build-df",
        help="build word/pair/triplet document-frequency tables from the train split",
    )
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(run=lambda config, args: cmd_build_df(config, args.out_dir))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, overrides=args.overrides)
        code = args.run(config, args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (`... | head -1`). Exit as a process killed
        # by SIGPIPE would, with stdout on devnull so the flush at exit cannot
        # raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ConfigError as exc:
        print(f"error:config: {exc}", file=sys.stderr)
        return 2
    except IngestionError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 4
    except QaTriggerError as exc:
        print(f"error:internal: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
