"""The DR-BW contention classifier (Sections V.D and VII.A).

A thin pipeline around the CART tree:

* features are z-score normalized with statistics stored at fit time (the
  paper's tree branches on "the normalized value of the corresponding
  feature");
* :meth:`DrBwClassifier.classify_channel` labels one channel's feature
  vector ``good`` or ``rmc``;
* :meth:`DrBwClassifier.classify_profile` applies the paper's
  case-aggregation rule — *"if there is at least one remote access channel
  which is detected to have contention, we treat this case as rmc"*;
* :func:`classify_benchmark` applies the benchmark-level rule — a program
  is ``rmc`` when any of its cases is.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.core.dtree import DecisionTreeClassifier
from repro.core.features import FeatureVector
from repro.core.profiler import ProfileResult
from repro.errors import ModelError
from repro.telemetry import MARGIN_BUCKETS, get_telemetry
from repro.types import Channel, Mode

logger = logging.getLogger(__name__)

__all__ = [
    "MIN_CHANNEL_SUPPORT",
    "ChannelVerdict",
    "DrBwClassifier",
    "validate_model_dict",
    "classify_case",
    "classify_benchmark",
]

#: Minimum remote-DRAM samples a channel needs before it can be classified.
#: Below this, latency averages are sampling noise — the role the paper's
#: remote-sample-count feature (Table I #6) plays in its decision tree.
MIN_CHANNEL_SUPPORT = 25


@dataclass(frozen=True)
class ChannelVerdict:
    """One channel's label plus how much to trust it.

    ``confidence`` combines the fitted tree's leaf purity (class margin)
    with a sample-support factor: a pure leaf reached on 4 remote samples
    is still a guess, and a thin batch after lossy collection must say so
    instead of masquerading as a confident ``good``.  When the batch falls
    below the support floor the verdict is ``insufficient-data``:
    ``mode`` degrades to the conservative ``good`` (matching the legacy
    label) and ``confidence`` is 0.
    """

    mode: Mode
    confidence: float
    n_remote_samples: int
    insufficient_data: bool = False

    @property
    def label(self) -> str:
        """Rendered label: the mode, or ``insufficient-data``."""
        return "insufficient-data" if self.insufficient_data else self.mode.value


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ModelError(f"model JSON invalid: {message}")


def _validate_node(d: object, n_features: int, n_classes: int, path: str) -> None:
    _require(isinstance(d, dict), f"node {path} is not an object")
    for key in ("leaf", "prediction", "counts", "n"):
        _require(key in d, f"node {path} is missing key {key!r}")
    _require(isinstance(d["leaf"], bool), f"node {path}: 'leaf' must be a bool")
    _require(
        isinstance(d["prediction"], int) and 0 <= d["prediction"] < n_classes,
        f"node {path}: prediction {d['prediction']!r} out of range",
    )
    counts = d["counts"]
    _require(
        isinstance(counts, list)
        and len(counts) == n_classes
        and all(isinstance(c, (int, float)) for c in counts),
        f"node {path}: 'counts' must list {n_classes} numbers",
    )
    if not d["leaf"]:
        for key in ("feature", "threshold", "left", "right"):
            _require(key in d, f"split node {path} is missing key {key!r}")
        _require(
            isinstance(d["feature"], int) and 0 <= d["feature"] < n_features,
            f"node {path}: feature index {d.get('feature')!r} out of range "
            f"for {n_features} features",
        )
        _require(
            isinstance(d["threshold"], (int, float)),
            f"node {path}: threshold must be a number",
        )
        _validate_node(d["left"], n_features, n_classes, path + ".left")
        _validate_node(d["right"], n_features, n_classes, path + ".right")


def validate_model_dict(data: object) -> dict:
    """Check a model-JSON payload before trusting any of its fields.

    Raises :class:`ModelError` with a message naming the first defect —
    a truncated download or a hand-edited file should never surface as a
    ``KeyError`` three stack frames into tree reconstruction.
    """
    _require(isinstance(data, dict), "top level must be an object")
    for key in ("feature_names", "mean", "std", "classes", "root"):
        _require(key in data, f"missing top-level key {key!r}")
    names = data["feature_names"]
    _require(
        isinstance(names, list) and names and all(isinstance(n, str) for n in names),
        "'feature_names' must be a non-empty list of strings",
    )
    n_features = len(names)
    for key in ("mean", "std"):
        vec = data[key]
        _require(
            isinstance(vec, list)
            and len(vec) == n_features
            and all(isinstance(v, (int, float)) for v in vec),
            f"{key!r} must list {n_features} numbers (one per feature)",
        )
    classes = data["classes"]
    _require(
        isinstance(classes, list)
        and len(classes) >= 2
        and all(isinstance(c, str) for c in classes),
        "'classes' must list at least two class labels",
    )
    _validate_node(data["root"], n_features, len(classes), "root")
    return data


@dataclass
class DrBwClassifier:
    """Normalizing wrapper over the decision tree."""

    feature_names: tuple[str, ...]
    tree: DecisionTreeClassifier = field(
        default_factory=lambda: DecisionTreeClassifier(max_depth=3, min_samples_leaf=3)
    )
    _mean: np.ndarray | None = field(default=None, init=False, repr=False)
    _std: np.ndarray | None = field(default=None, init=False, repr=False)

    # -- fitting -------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DrBwClassifier":
        """Fit normalization statistics and the tree on labeled features."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ModelError(
                f"X must have shape (n, {len(self.feature_names)}), got {X.shape}"
            )
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._std = np.where(std > 1e-12, std, 1.0)
        self.tree.fit(self.normalize(X), np.asarray(y))
        return self

    def normalize(self, X: np.ndarray) -> np.ndarray:
        """Apply the stored z-score normalization."""
        if self._mean is None or self._std is None:
            raise ModelError("classifier is not fitted")
        return (np.asarray(X, dtype=np.float64) - self._mean) / self._std

    @property
    def is_fitted(self) -> bool:
        return self._mean is not None and self.tree.root is not None

    # -- prediction ------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vector prediction over raw (unnormalized) feature rows."""
        return self.tree.predict(self.normalize(X))

    def classify_channel(self, features: FeatureVector) -> Mode:
        """Label one channel's Table I features."""
        if features.names != self.feature_names:
            raise ModelError("feature vector does not match the trained feature set")
        label = self.predict(features.values[None, :])[0]
        return Mode(label)

    def classify_channel_detailed(
        self, features: FeatureVector, min_support: int = MIN_CHANNEL_SUPPORT
    ) -> ChannelVerdict:
        """Label one channel and attach a confidence.

        Confidence is ``leaf-margin × support``: the margin is the fitted
        leaf's majority fraction rescaled to [0, 1] (an evenly split leaf
        knows nothing), and support saturates as the channel's remote
        sample count reaches twice ``min_support``.  Below ``min_support``
        the verdict is ``insufficient-data``.
        """
        if features.names != self.feature_names:
            raise ModelError("feature vector does not match the trained feature set")
        tel = get_telemetry()
        n_remote = int(features["num_remote_dram_samples"])
        if n_remote < min_support:
            logger.debug(
                "insufficient data: %d remote samples (< %d floor)",
                n_remote, min_support,
            )
            tel.metrics.counter("classifier.verdict.insufficient-data").inc()
            return ChannelVerdict(
                mode=Mode.GOOD,
                confidence=0.0,
                n_remote_samples=n_remote,
                insufficient_data=True,
            )
        row = self.normalize(features.values[None, :])
        label = Mode(self.tree.predict(row)[0])
        probs = self.tree.predict_proba(row)[0]
        assert self.tree.classes_ is not None
        p_pred = float(probs[list(self.tree.classes_).index(label.value)])
        margin = max(0.0, 2.0 * p_pred - 1.0)
        support = min(1.0, n_remote / float(2 * max(min_support, 1)))
        if tel.enabled:
            tel.metrics.counter(f"classifier.verdict.{label.value}").inc()
            tel.metrics.histogram("classifier.leaf_margin", MARGIN_BUCKETS).observe(
                margin
            )
        return ChannelVerdict(
            mode=label,
            confidence=margin * support,
            n_remote_samples=n_remote,
        )

    def classify_profile(
        self, profile: ProfileResult, min_support: int = MIN_CHANNEL_SUPPORT
    ) -> dict[Channel, Mode]:
        """Per-channel labels for one profiled run.

        Channels with fewer than ``min_support`` remote-DRAM samples are
        labeled ``good`` without consulting the tree: a handful of samples
        cannot evidence *bandwidth* contention, and their latency averages
        are dominated by interference outliers.  (The degradation-aware
        variant, :meth:`classify_profile_detailed`, reports those channels
        as ``insufficient-data`` with zero confidence instead.)
        """
        return {
            ch: v.mode
            for ch, v in self.classify_profile_detailed(profile, min_support).items()
        }

    def classify_profile_detailed(
        self, profile: ProfileResult, min_support: int = MIN_CHANNEL_SUPPORT
    ) -> dict[Channel, ChannelVerdict]:
        """Per-channel verdicts with confidence for one profiled run."""
        with get_telemetry().span("classifier.classify") as sp:
            verdicts = {
                ch: self.classify_channel_detailed(fv, min_support)
                for ch, fv in profile.features_per_channel().items()
            }
            sp.set(n_channels=len(verdicts))
            return verdicts

    # -- introspection ------------------------------------------------------------

    def render_tree(self) -> str:
        """Figure 3-style rendering with feature names."""
        return self.tree.render(list(self.feature_names))

    def used_feature_names(self) -> set[str]:
        """Names of the features the fitted tree splits on."""
        return {self.feature_names[i] for i in self.tree.used_features()}

    # -- (de)serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Portable representation (for saving a trained model)."""
        if not self.is_fitted:
            raise ModelError("cannot serialize an unfitted classifier")

        def node_dict(node):
            if node.is_leaf:
                return {
                    "leaf": True,
                    "prediction": int(node.prediction),
                    "counts": node.class_counts.tolist(),
                    "n": node.n_samples,
                }
            return {
                "leaf": False,
                "feature": int(node.feature),
                "threshold": float(node.threshold),
                "counts": node.class_counts.tolist(),
                "n": node.n_samples,
                "prediction": int(node.prediction),
                "left": node_dict(node.left),
                "right": node_dict(node.right),
            }

        assert self._mean is not None and self._std is not None
        assert self.tree.classes_ is not None
        return {
            "feature_names": list(self.feature_names),
            "mean": self._mean.tolist(),
            "std": self._std.tolist(),
            "classes": [str(c) for c in self.tree.classes_],
            "root": node_dict(self.tree.root),
        }

    def digest(self) -> str:
        """Short SHA-256 of the canonical :meth:`to_dict` form: the model's
        lineage id.  Equal digests mean byte-identical verdicts."""
        from repro.parallel.seeding import config_hash

        return config_hash(self.to_dict())[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "DrBwClassifier":
        """Rebuild a trained classifier from :meth:`to_dict` output.

        The payload is schema-validated first (:func:`validate_model_dict`)
        so malformed or truncated files fail with a descriptive
        :class:`ModelError` instead of a ``KeyError``/``IndexError``.
        """
        from repro.core.dtree import TreeNode

        validate_model_dict(data)

        def build(d) -> TreeNode:
            node = TreeNode(
                n_samples=d["n"],
                class_counts=np.array(d["counts"], dtype=np.int64),
                prediction=d["prediction"],
            )
            if not d["leaf"]:
                node.feature = d["feature"]
                node.threshold = d["threshold"]
                node.left = build(d["left"])
                node.right = build(d["right"])
            return node

        clf = cls(feature_names=tuple(data["feature_names"]))
        clf._mean = np.array(data["mean"], dtype=np.float64)
        clf._std = np.array(data["std"], dtype=np.float64)
        clf.tree.classes_ = np.array(data["classes"])
        clf.tree.n_features_ = len(data["feature_names"])
        clf.tree.root = build(data["root"])
        return clf

    @classmethod
    def load(cls, path: str) -> "DrBwClassifier":
        """Load a trained model from a JSON file, with readable failures.

        Missing files and syntactically broken JSON both surface as
        :class:`ModelError` so CLI-level handling stays uniform.
        """
        import json

        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ModelError(f"model file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ModelError(f"model file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)


def classify_case(channel_labels: dict[Channel, Mode]) -> Mode:
    """Case rule: ``rmc`` when at least one channel is contended."""
    return (
        Mode.RMC
        if any(m is Mode.RMC for m in channel_labels.values())
        else Mode.GOOD
    )


def classify_benchmark(case_labels: list[Mode]) -> Mode:
    """Benchmark rule: ``rmc`` when at least one case is contended."""
    if not case_labels:
        raise ModelError("no cases to aggregate")
    return Mode.RMC if any(m is Mode.RMC for m in case_labels) else Mode.GOOD
