"""Synthetic benchmark generation and feature-space pseudo anomalies.

The benchmark is a Gaussian mixture: a few normal modes plus several
anomaly classes at distinct offsets, small enough that a full training
run takes seconds. Pseudo anomalies are corrupted normal vectors; three
recipes are provided so that subset construction can hold out one recipe
kind from another (blend two vectors, transplant a contiguous segment,
or overwrite a segment with scaled noise).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureDataset
from .errors import ConfigurationError, ShapeError
from .schema import build
from .seeding import rng_for


class PseudoKind(str, enum.Enum):
    MIX_BLEND = "mix_blend"
    SEGMENT_SWAP = "segment_swap"
    NOISE_MASK = "noise_mask"


ALL_KINDS = (PseudoKind.MIX_BLEND, PseudoKind.SEGMENT_SWAP, PseudoKind.NOISE_MASK)

SEGMENT_FRACTION = 0.25  # share of the coordinates a segment recipe rewrites
NOISE_SCALE = 2.0  # stddev of NoiseMask's added noise


@dataclass(frozen=True)
class Component:
    """One Gaussian mode: per-axis mean and stddev, plus a sample count."""

    mean: tuple[float, ...]
    std: tuple[float, ...]
    count: int
    class_tag: str = ""

    def __post_init__(self):
        object.__setattr__(self, "mean", tuple(float(v) for v in self.mean))
        object.__setattr__(self, "std", tuple(float(v) for v in self.std))
        if self.count < 1:
            raise ConfigurationError("component count must be >= 1")
        if any(s <= 0 for s in self.std):
            raise ConfigurationError("component stddevs must be > 0")
        if len(self.mean) != len(self.std):
            raise ConfigurationError("component mean/std lengths differ")


@dataclass(frozen=True)
class MixtureSpec:
    dim: int
    normal_components: tuple[Component, ...]
    anomaly_components: tuple[Component, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "normal_components", tuple(self.normal_components))
        object.__setattr__(self, "anomaly_components", tuple(self.anomaly_components))
        if self.dim < 1:
            raise ConfigurationError("dim must be positive")
        if not self.normal_components:
            raise ConfigurationError("at least one normal component required")
        for comp in self.normal_components + self.anomaly_components:
            if len(comp.mean) != self.dim:
                raise ConfigurationError("component dimension differs from spec dim")
        tags = [c.class_tag for c in self.anomaly_components]
        if any(not t for t in tags):
            raise ConfigurationError("anomaly components need non-empty class tags")
        if len(set(tags)) != len(tags):
            raise ConfigurationError("anomaly class tags must be unique")

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "seed": self.seed,
            "normal_components": [
                {"mean": list(c.mean), "std": list(c.std), "count": c.count, "class_tag": c.class_tag}
                for c in self.normal_components
            ],
            "anomaly_components": [
                {"mean": list(c.mean), "std": list(c.std), "count": c.count, "class_tag": c.class_tag}
                for c in self.anomaly_components
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MixtureSpec":
        """Read ``to_dict``'s form, checking every value's type (no coercion);
        errors name the value's path, as in ``spec.normal_components[0].count``."""
        return build("spec", cls, d)


def generate(spec: MixtureSpec) -> FeatureDataset:
    """Draw the mixture; exactly the requested counts, deterministic per seed."""
    rng = rng_for(spec.seed, "mixture")
    ids, feats, labels, tags = [], [], [], []
    for k, comp in enumerate(spec.normal_components):
        x = np.asarray(comp.mean) + np.asarray(comp.std) * rng.standard_normal((comp.count, spec.dim))
        for j in range(comp.count):
            ids.append(f"n{len(ids):05d}")
            tags.append(comp.class_tag or f"normal-{k}")
            labels.append(0)
        feats.append(x)
    n_anom = 0
    for comp in spec.anomaly_components:
        x = np.asarray(comp.mean) + np.asarray(comp.std) * rng.standard_normal((comp.count, spec.dim))
        for j in range(comp.count):
            ids.append(f"a{n_anom:05d}")
            n_anom += 1
            tags.append(comp.class_tag)
            labels.append(1)
        feats.append(x)
    return FeatureDataset(
        ids=tuple(ids),
        features=np.vstack(feats),
        labels=np.array(labels, dtype=np.int64),
        class_tags=tuple(tags),
    )


def default_benchmark(seed: int = 7) -> MixtureSpec:
    """The repo's fixed benchmark: d=16, 3 normal modes x400, 4 anomaly
    classes x60, laid out so unseen-class generalization is measurable."""
    d = 16

    def block(lo, hi, value):
        v = [0.0] * d
        for i in range(lo, hi):
            v[i] = value
        return v

    mode = [block(0, 4, 5.0), block(4, 8, 5.0), block(8, 12, 5.0)]
    normals = tuple(Component(tuple(m), (1.0,) * d, 400) for m in mode)
    mid01 = [(a + b) / 2.0 for a, b in zip(mode[0], mode[1])]
    spike = list(mode[0])
    for i in range(12, 16):
        spike[i] = 4.0
    shifted = [v + 3.0 for v in mode[2]]
    anomalies = (
        Component(tuple(spike), (0.7,) * d, 60, class_tag="spike"),
        Component(tuple(mid01), (0.7,) * d, 60, class_tag="between"),
        Component((0.0,) * d, (3.0,) * d, 60, class_tag="scatter"),
        Component(tuple(shifted), (0.7,) * d, 60, class_tag="shift"),
    )
    return MixtureSpec(dim=d, normal_components=normals, anomaly_components=anomalies, seed=seed)


@dataclass(frozen=True)
class PseudoAnomalyRecipe:
    """One corruption recipe. A recipe is a pure function of its seed:
    free parameters (blend weight, segment position, noise) are drawn from
    a generator seeded by ``seed`` on every call, so the same recipe always
    yields the same output for the same inputs."""

    kind: PseudoKind
    seed: int = 0


def synthesize_pseudo(normal: np.ndarray, donor: np.ndarray, recipe: PseudoAnomalyRecipe) -> np.ndarray:
    """Corrupt ``normal`` into a pseudo anomaly of the recipe's kind.

    MixBlend draws its weight from [0.3, 0.7] and stays on the segment
    between the two inputs. The segment recipes rewrite ``SEGMENT_FRACTION``
    of the coordinates, rounded up, at a random start, and never touch the
    coordinates outside it.
    """
    normal = np.asarray(normal, dtype=np.float64)
    donor = np.asarray(donor, dtype=np.float64)
    if normal.shape != donor.shape or normal.ndim != 1:
        raise ShapeError(f"normal shape {normal.shape} != donor shape {donor.shape}")
    d = normal.shape[0]
    rng = rng_for(recipe.seed, "pseudo", recipe.kind.value)
    if recipe.kind is PseudoKind.MIX_BLEND:
        lam = rng.uniform(0.3, 0.7)
        return lam * normal + (1.0 - lam) * donor
    length = math.ceil(SEGMENT_FRACTION * d)
    start = int(rng.integers(0, d - length + 1))
    out = normal.copy()
    if recipe.kind is PseudoKind.SEGMENT_SWAP:
        out[start : start + length] = donor[start : start + length]
    else:  # NOISE_MASK
        noise = rng.standard_normal(length)
        out[start : start + length] = normal[start : start + length] + NOISE_SCALE * noise
    return out
