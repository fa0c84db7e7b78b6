"""Conditional-independence testing on top of the CMI estimators.

A CI test scores each dataset with an estimated CMI and thresholds it;
benchmark quality over a labeled collection is summarized by AuROC with
conditionally dependent (CD) datasets as the positive class.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .estimators import EstimatorConfig, _prepare, _run_many, estimate
from .knn import KSGConfig
from .neuralnet import typed_value

DEFAULT_THRESHOLD = 0.01  # nats


def ci_decide(score: float, threshold: float = DEFAULT_THRESHOLD) -> str:
    """'CD' when the score strictly exceeds the threshold, else 'CI'."""
    if not np.isfinite(score):
        raise ValueError("score must be finite")
    return "CD" if score > threshold else "CI"


def _check_labels(labels: np.ndarray):
    if set(np.unique(labels)) - {0, 1}:
        raise ValueError("labels must be 0 (CI) or 1 (CD)")
    if labels.sum() == 0 or labels.sum() == len(labels):
        raise ValueError("need at least one dataset of each class for AuROC")


def auroc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic, ties as 1/2.

    Equals the Mann-Whitney U of the positive class divided by the
    number of (positive, negative) pairs, which is exactly the pairwise
    definition with ties counted half. Each positive score counts the
    negatives strictly below it plus half of those equal to it, which is
    the mean of its left and right insertion points among the sorted
    negatives.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be matching 1-d arrays")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    _check_labels(labels)
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    u = (np.searchsorted(neg, pos, "left") + np.searchsorted(neg, pos, "right")).sum() / 2
    return float(u / (len(pos) * len(neg)))


@dataclass
class CITEntry:
    dataset_id: str
    label: str
    score: float | None
    decision: str | None
    failed: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CITBenchReport:
    """Per-dataset scores/decisions plus the collection-level AuROC."""

    estimator: str
    threshold: float
    entries: list[CITEntry] = field(default_factory=list)
    auroc: float = float("nan")

    @property
    def excluded(self) -> list[str]:
        return [e.dataset_id for e in self.entries if e.failed]

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "threshold": self.threshold,
            "auroc": self.auroc,
            "excluded": self.excluded,
            "entries": [e.to_dict() for e in self.entries],
        }


def run_cit_benchmark(
    datasets,
    estimator: str,
    config: EstimatorConfig | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    ksg_config: KSGConfig | None = None,
    ids=None,
    jobs: int | None = None,
) -> CITBenchReport:
    """Score a labeled collection and compute its AuROC.

    Parameters
    ----------
    datasets : sequence of (SampleSet, label)
        ``label`` is 'CI' or 'CD'.
    estimator : str
        One of the estimator ids accepted by
        :func:`cmigan.estimators.estimate`. Every dataset runs with the
        same config, so results are deterministic given its seed.
    ids : sequence of str, optional
        Names for report entries; defaults to ds000, ds001, ...
    jobs : int, optional
        Worker processes, one BLAS thread each, over one task list of
        every dataset's runs, made once every dataset is checked; None
        means the usable CPUs. ``ksg`` always runs in process.

    Datasets whose estimate fails (all runs diverged) are reported,
    marked excluded, and left out of the AuROC.
    """
    typed_value("jobs", "int | None", jobs)
    threshold = typed_value("threshold", "float", threshold)
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    cfg = config or EstimatorConfig()
    if ids is None:
        ids = [f"ds{i:03d}" for i in range(len(datasets))]
    if len(ids) != len(datasets):
        raise ValueError("ids and datasets must have the same length")

    for name, (_, label) in zip(ids, datasets):
        if label not in ("CI", "CD"):
            raise ValueError(f"label for {name} must be 'CI' or 'CD', got {label!r}")
    if estimator == "ksg":
        # KSG's tree queries already use every core, so its datasets stay here
        reports = [estimate(samples, estimator, cfg, ksg_config=ksg_config) for samples, _ in datasets]
    else:
        reports = _run_many(estimator, [_prepare(estimator, s, cfg) for s, _ in datasets], cfg, jobs)

    report = CITBenchReport(estimator=estimator, threshold=threshold)
    for name, (_, label), rep in zip(ids, datasets, reports):
        if rep.all_failed:
            report.entries.append(CITEntry(name, label, None, None, failed=True, error="all runs failed"))
        else:
            report.entries.append(CITEntry(name, label, rep.mean, ci_decide(rep.mean, threshold)))
    kept = [e for e in report.entries if not e.failed]
    labels = [int(e.label == "CD") for e in kept]
    if kept and 0 < sum(labels) < len(labels):
        report.auroc = auroc(np.asarray([e.score for e in kept]), np.asarray(labels))
    return report
