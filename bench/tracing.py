"""Per-layer tracing of the qatrigger pipeline from outside the package.

A Tracer wraps the public functions that form each layer's boundary.  A
function imported by name into another module (for example `cli` and
`combiner` import `train`, `tune_threshold` and `graph_edit_distance`) is
patched wherever the original object is bound, so every caller goes through
the wrapper.  Only layer boundaries are wrapped, not inner helpers such as
`ged.node_cost`, which run once per cost-matrix cell and would dominate the
tracing overhead.

For each layer the tracer records calls, total time and self time (total
minus the time of the traced calls made inside it), plus a few work counts
taken from the calls' inputs.  A target that no longer exists is recorded as
a missing layer instead of failing, so a refactor that deletes or renames a
function shows up in the report.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Callable

PACKAGE = "qatrigger"

# Layer boundaries, as "<module>.<function>" or "<module>.<Class>.<method>".
TARGETS = (
    "corpus.load_wikiqa", "corpus.attach_parses", "corpus.load_scores",
    "depgraph.build_graph",
    "ged.graph_edit_distance", "ged.build_cost_matrix", "ged.solve_assignment",
    "ged.load_pos_table",
    "graphsim.graph_similarity_features", "graphsim.build_df", "graphsim.load_df_table",
    "graphsim.save_df_table",
    "coverage.graph_coverage_features", "coverage.relation_coverage",
    "coverage.vocabulary_coverage", "coverage.find_path",
    "baselines.tokenize", "baselines.bm25_score", "baselines.ngram_score",
    "baselines.semantic_similarity", "baselines.load_embeddings",
    "combiner.extract_features", "combiner.train", "combiner.TriggerModel.prob",
    "combiner.save_model", "combiner.load_model",
    "evaluation.tune_threshold", "evaluation.triggering_report",
    "cli.load_config", "cli.load_split", "cli.build_resources", "cli.read_features",
    "cli.cmd_build_df", "cli.cmd_featurize", "cli.cmd_train", "cli.cmd_tune",
    "cli.cmd_evaluate",
)

# Declared per-layer metric -> (target, field); field is calls, s or self_s.
SPAN_METRICS = {
    "corpus.load_wikiqa.s": ("corpus.load_wikiqa", "s"),
    "corpus.attach_parses.s": ("corpus.attach_parses", "s"),
    "depgraph.build_graph.calls": ("depgraph.build_graph", "calls"),
    "depgraph.build_graph.s": ("depgraph.build_graph", "s"),
    "ged.graph_edit_distance.self_s": ("ged.graph_edit_distance", "self_s"),
    "ged.build_cost_matrix.s": ("ged.build_cost_matrix", "s"),
    "ged.solve_assignment.s": ("ged.solve_assignment", "s"),
    "graphsim.graph_similarity_features.s": ("graphsim.graph_similarity_features", "s"),
    "graphsim.build_df.s": ("graphsim.build_df", "s"),
    "graphsim.load_df_table.s": ("graphsim.load_df_table", "s"),
    "coverage.graph_coverage_features.s": ("coverage.graph_coverage_features", "s"),
    "coverage.find_path.calls": ("coverage.find_path", "calls"),
    "baselines.bm25_score.s": ("baselines.bm25_score", "s"),
    "baselines.ngram_score.s": ("baselines.ngram_score", "s"),
    "baselines.semantic_similarity.s": ("baselines.semantic_similarity", "s"),
    "baselines.tokenize.calls": ("baselines.tokenize", "calls"),
    "baselines.load_embeddings.s": ("baselines.load_embeddings", "s"),
    "combiner.extract_features.self_s": ("combiner.extract_features", "self_s"),
    "combiner.train.s": ("combiner.train", "s"),
    "combiner.TriggerModel.prob.calls": ("combiner.TriggerModel.prob", "calls"),
    "evaluation.tune_threshold.s": ("evaluation.tune_threshold", "s"),
    "evaluation.triggering_report.calls": ("evaluation.triggering_report", "calls"),
    "cli.read_features.s": ("cli.read_features", "s"),
    "cli.featurize.write_self_s": ("cli.cmd_featurize", "self_s"),
}


class Tracer:
    """Wraps TARGETS while installed and aggregates span statistics."""

    def __init__(self, subgraph_m: int, clock: Callable[[], float] = time.perf_counter) -> None:
        self.subgraph_m = subgraph_m
        self.clock = clock
        self.missing: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []  # child time accumulated per open span
        self.reset()

    def reset(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.root_time = 0.0  # time inside outermost spans

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "ged.graph_edit_distance": self._count_cells,
            "coverage.find_path": self._count_paths,
            "cli.read_features": self._count_rows,
        }
        for target in TARGETS:
            module_name, _, attr_path = target.partition(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.add(target)
                continue
            *owners, name = attr_path.split(".")
            for owner_name in owners:
                owner = getattr(owner, owner_name, None)
            original = None if owner is None else vars(owner).get(name)
            if not callable(original):
                self.missing.add(target)
                continue
            wrapper = self._wrap(target, original, hooks.get(target))
            if owners:  # a method: patch the class only
                self._patch(owner, name, wrapper)
                continue
            for module in self._package_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    @staticmethod
    def _package_modules() -> list:
        return [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    # -- spans ----------------------------------------------------------------

    def _wrap(self, target: str, fn: Callable, hook: Callable | None) -> Callable:
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self.calls[target] += 1
                self.total[target] += elapsed
                self.self_time[target] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_time += elapsed
            if hook is not None:
                try:
                    hook(args, result)
                except (AttributeError, IndexError, TypeError):
                    self.missing.add(f"{target} (counter)")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target)
        return traced

    def _count_cells(self, args, result) -> None:
        # Size of the Riesen-Bunke (n+m)^2 cost matrix, from the inputs.
        gq, ga = args[0], args[1]
        self.counts["ged.cost_cells"] += (len(gq.nodes) + len(ga.nodes)) ** 2

    def _count_paths(self, args, result) -> None:
        if result and len(result) - 1 <= self.subgraph_m:
            self.counts["coverage.paths_within_m"] += 1

    def _count_rows(self, args, result) -> None:
        self.counts["cli.read_features.rows"] += len(result[1])

    # -- results --------------------------------------------------------------

    def layer_metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Declared per-layer metrics since reset(), with times multiplied by scale."""
        fields = {"calls": self.calls, "s": self.total, "self_s": self.self_time}
        values = {
            metric: float(fields[field][target]) * (1.0 if field == "calls" else scale)
            for metric, (target, field) in SPAN_METRICS.items()
        }
        searched = self.calls["coverage.find_path"]
        values["coverage.paths_within_m_ratio"] = (
            self.counts["coverage.paths_within_m"] / searched if searched else 0.0
        )
        values["ged.cost_cells"] = float(self.counts["ged.cost_cells"])
        values["cli.read_features.rows"] = float(self.counts["cli.read_features.rows"])
        return values

    def table(self) -> list[dict]:
        """Every traced layer with calls, total and self time."""
        return [
            {"layer": t, "calls": self.calls[t], "s": self.total[t], "self_s": self.self_time[t]}
            for t in TARGETS if t not in self.missing
        ]
