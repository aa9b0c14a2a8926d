"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

Spans are recorded only in the traced process, from the benchmark's own
files:

* around each pipeline call a pass makes (``run.Ops.call``);
* around the public functions that the ``repro.core`` pipelines call, by
  replacing them at their import sites in ``repro.core.*``. Only functions
  that do their work when called are wrapped; ``mine_all_regions`` and
  ``pattern_support`` return lazy DataFrames whose Spark jobs run later in
  the caller, so their cost is measured by the benchmark's own mining call
  and by a replay of ``pattern_support`` after the passes.

Each span gets its own Spark job group; its job, stage and task counts are
read from ``statusTracker()`` once the listener bus has drained. Spans stay
in memory and are written to a JSON file when the run ends. A function that
is no longer at its import site yields absent metrics, not a crash.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import re
import statistics
import sys
import time
from pathlib import Path

_VALIDATE = ("cophenetic_correlation", "triplet_agreement", "relationship_probes")

# (module, attribute, span name)
IMPORT_SITES = (
    ("repro.core.fihc", "feature_matrix", "patterns.feature_matrix"),
    ("repro.core.elbow", "feature_matrix", "patterns.feature_matrix"),
    ("repro.core.authenticity", "authenticity_matrix", "prevalence.authenticity_matrix"),
    ("repro.core.fihc", "pdist", "distance.pdist"),
    ("repro.core.authenticity", "pdist", "distance.pdist"),
    ("repro.core.fihc", "linkage", "hac.linkage"),
    ("repro.core.authenticity", "linkage", "hac.linkage"),
    ("repro.core.validate", "cophenetic", "hac.cophenetic"),
    ("repro.core.elbow", "wcss_curve", "kmeans.wcss_curve"),
    ("repro.core.fihc", "geo_tree", "geo.geo_tree"),
    ("repro.core.authenticity", "geo_tree", "geo.geo_tree"),
) + tuple(
    (f"repro.core.{m}", f, "validate") for m in ("fihc", "authenticity") for f in _VALIDATE
)

# span name -> (time metric, inclusive Spark job-count metric or None)
SPAN_METRICS = {
    "generator.recipes_pdf": ("generator.recipes_pdf_s", None),
    "generator.to_spark": ("generator.to_spark_s", "generator.to_spark_jobs"),
    "stats.dataset_summary": ("stats.dataset_summary_s", "stats.jobs"),
    "spark_fpm.mine_all_regions": ("spark_fpm.mine_all_regions_s", "spark_fpm.mine_jobs"),
    "patterns.feature_matrix": ("patterns.feature_matrix_s", "patterns.jobs"),
    "prevalence.authenticity_matrix": ("prevalence.authenticity_matrix_s", "prevalence.jobs"),
    "distance.pdist": ("distance.pdist_s", None),
    "hac.linkage": ("hac.linkage_s", None),
    "hac.cophenetic": ("hac.cophenetic_s", None),
    "kmeans.wcss_curve": ("kmeans.wcss_curve_s", None),
    "validate": ("validate.s", None),
    "geo.geo_tree": ("geo.geo_tree_s", None),
    "core.table1": ("core.table1_s", "core.table1_jobs"),
    "core.elbow": ("core.elbow_s", "core.elbow_jobs"),
    "core.fihc": ("core.fihc_s", "core.fihc_jobs"),
    "core.authenticity": ("core.authenticity_s", "core.authenticity_jobs"),
}
PIPELINES = ("table1", "elbow", "fihc", "authenticity")


def slug(region: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", region.lower()).strip("_")


class Tracer:
    def __init__(self, sc) -> None:
        self.sc = sc
        self.spans: list[dict] = []
        self.passes: list[dict] = []   # per traced pass: metric -> (value, unit)
        self.active = False
        self.missing: set[str] = set()  # span names with no import site left
        self._stack: list[dict] = []
        self._pass = -1
        self._pass_start = 0.0

    def install(self) -> None:
        """Replace the functions at their import sites with traced ones."""
        found: dict[str, bool] = {}
        for module, attr, name in IMPORT_SITES:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            found[name] = found.get(name, False) or fn is not None
            if fn is not None:
                setattr(mod, attr, self._wrap(name, fn))
        self.missing = {name for name, ok in found.items() if not ok}
        for name in sorted(self.missing):
            print(f"perfbench: {name} not found at any import site; its metrics are absent",
                  file=sys.stderr)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "pass": self._pass,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "group": f"perfbench-span-{len(self.spans)}",
        }
        self.spans.append(rec)
        self._stack.append(rec)
        self.sc.setJobGroup(rec["group"], name)
        rec["start_s"] = time.perf_counter() - self._pass_start
        try:
            yield rec
        finally:
            rec["end_s"] = time.perf_counter() - self._pass_start
            self._stack.pop()
            if self._stack:
                self.sc.setJobGroup(self._stack[-1]["group"], self._stack[-1]["name"])
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)

    def begin_pass(self, traced: bool) -> None:
        self.active = traced
        if traced:
            self._pass += 1
            self._pass_start = time.perf_counter()

    def end_pass(self, out: dict) -> None:
        """Read the Spark counts of this pass's spans and reduce them to
        the per-layer metrics of the pass."""
        self.active = False
        self._drain_listener_bus()
        spans = [s for s in self.spans if s["pass"] == self._pass]
        tracker = self.sc.statusTracker()
        for s in spans:
            jobs = tracker.getJobIdsForGroup(s["group"])
            infos = [tracker.getJobInfo(j) for j in jobs]
            stages = [sid for i in infos if i is not None for sid in i.stageIds]
            infos = [tracker.getStageInfo(sid) for sid in stages]
            ran = [i for i in infos if i is not None and i.numCompletedTasks > 0]
            s["self_jobs"] = len(jobs)
            s["self_stages"] = len(ran)
            s["self_tasks"] = sum(i.numCompletedTasks for i in ran)
        for s in reversed(spans):  # children were opened after their parent
            kids = [k for k in spans if k["parent"] == s["id"]]
            s["dur_s"] = s["end_s"] - s["start_s"]
            s["self_s"] = s["dur_s"] - sum(k["dur_s"] for k in kids)
            for c in ("jobs", "stages", "tasks"):
                s[c] = s[f"self_{c}"] + sum(k[c] for k in kids)

        m: dict[str, tuple[float, str]] = {}
        for name, (time_metric, jobs_metric) in SPAN_METRICS.items():
            if name in self.missing:
                continue
            named = [s for s in spans if s["name"] == name]
            m[time_metric] = (sum(s["dur_s"] for s in named), "s")
            if jobs_metric:
                m[jobs_metric] = (sum(s["jobs"] for s in named), "count")
        for p in PIPELINES:
            named = [s for s in spans if s["name"] == f"core.{p}"]
            m[f"core.{p}_self_s"] = (sum(s["self_s"] for s in named), "s")
        top = [s for s in spans if s["parent"] is None]
        for c in ("jobs", "stages", "tasks"):
            m[f"spark.{c}"] = (sum(s[c] for s in top), "count")
        pdf, mine, fihc, auth = (out.get(k) for k in ("recipes_pdf", "mine", "fihc", "authenticity"))
        m["generator.recipes"] = (len(pdf) if pdf is not None else 0, "count")
        if mine:
            m["spark_fpm.mined_rows"] = (mine[1], "count")
        if fihc:
            m["patterns.universe"] = (fihc.features.shape[1], "count")
        m["prevalence.items"] = (len(auth.items) if auth else 0, "count")
        self.passes.append(m)

    def _drain_listener_bus(self) -> None:
        """Counts come from the status store, which the listener bus fills
        asynchronously; wait until it has caught up with the jobs run."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()

    def layer_metrics(self, wl, pdf, recipes, *, run_s: float, traced_run_s: float):
        """Per-layer metrics of the run and whether every count repeated.

        ``pdf`` and ``recipes`` are the last pass's input, as pandas and as
        a cached DataFrame, for the replays. Times are medians over the
        traced passes; counts must be identical in every traced pass."""
        counts_ok = True
        metrics = {}
        for name, (_, unit) in self.passes[-1].items():
            values = [p[name][0] for p in self.passes if name in p]
            if unit == "count":
                if len(set(values)) != 1:
                    counts_ok = False
                    print(f"perfbench: {name} differs between passes: {values}", file=sys.stderr)
                metrics[name] = (values[-1], unit)
            else:
                metrics[name] = (statistics.median(values), unit)
        metrics.update(self._replay_fpgrowth(wl, pdf))
        support, support_jobs = self._replay_pattern_support(recipes)
        if support_jobs and len(set(support_jobs)) != 1:
            counts_ok = False
            print(f"perfbench: pattern_support jobs differ between replays: {support_jobs}",
                  file=sys.stderr)
        metrics.update(support)
        fp, mined = metrics.get("fpgrowth.patterns"), metrics.get("spark_fpm.mined_rows")
        if fp and mined and fp[0] != mined[0]:
            counts_ok = False
            print(f"perfbench: serial fpgrowth found {fp[0]} patterns, "
                  f"mine_all_regions {mined[0]}", file=sys.stderr)
        jvm_rss = self._jvm_peak_rss_mb()
        if jvm_rss is not None:
            metrics["spark.jvm_peak_rss_mb"] = (jvm_rss, "MB")
        metrics["trace.overhead_s"] = (traced_run_s - run_s, "s")
        return metrics, counts_ok

    def _replay_fpgrowth(self, wl, pdf) -> dict:
        """Serial FP-Growth on each cuisine's transactions of the last pass,
        which shows the per-cuisine skew that one grouped Spark job hides."""
        try:
            from repro.mining.fpgrowth import fpgrowth
        except ImportError:
            print("perfbench: repro.mining.fpgrowth.fpgrowth is gone; fpgrowth.* absent",
                  file=sys.stderr)
            return {}
        per: dict[str, float] = {}
        patterns = 0
        for region, grp in pdf.groupby("region", sort=False):
            transactions = [list(t) for t in grp["items"]]
            t = time.perf_counter()
            patterns += len(fpgrowth(transactions, wl.min_support))
            per[region] = time.perf_counter() - t
        total = sum(per.values())
        m = {
            "fpgrowth.serial_s": (total, "s"),
            "fpgrowth.max_s": (max(per.values()), "s"),
            "fpgrowth.skew": (max(per.values()) / (total / len(per)), "ratio"),
            "fpgrowth.patterns": (patterns, "count"),
        }
        m.update({f"fpgrowth.s.{slug(r)}": (v, "s") for r, v in per.items()})
        return m

    def _replay_pattern_support(self, recipes) -> tuple[dict, list[int]]:
        """``pattern_support`` the way ``core.table1`` uses it: the support
        of every pattern Table I names, collected to pandas. Replayed twice;
        returns the metrics (median time) and the job count of each replay."""
        try:
            from repro.mining.spark_fpm import pattern_support
            from repro.recipedb.vocab import PAPER_TABLE1
        except ImportError:
            print("perfbench: pattern_support is gone; spark_fpm.pattern_support_* absent",
                  file=sys.stderr)
            return {}, []
        patterns = sorted(
            {tuple(sorted(p)) for _, pats, _ in PAPER_TABLE1.values() for p, _ in pats}
        )
        self._pass = "replay"
        times, jobs = [], []
        for _ in range(2):
            with self.span("spark_fpm.pattern_support") as rec:
                pattern_support(recipes, patterns).toPandas()
            self._drain_listener_bus()
            rec["dur_s"] = rec["end_s"] - rec["start_s"]
            rec["jobs"] = len(self.sc.statusTracker().getJobIdsForGroup(rec["group"]))
            times.append(rec["dur_s"])
            jobs.append(rec["jobs"])
        return {
            "spark_fpm.pattern_support_s": (statistics.median(times), "s"),
            "spark_fpm.pattern_support_jobs": (jobs[-1], "count"),
        }, jobs

    def _jvm_peak_rss_mb(self) -> float | None:
        """Peak RSS of the driver JVM, or None where /proc does not give it."""
        pid = self.sc._jvm.java.lang.ProcessHandle.current().pid()
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        return None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1))

