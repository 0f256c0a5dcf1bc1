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
from .errors import ConfigurationError, HetanomError
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
            raise ConfigurationError("count: must be >= 1")
        if not all(math.isfinite(v) for v in self.mean):
            raise ConfigurationError("mean: must be finite")
        if not all(0 < s < math.inf for s in self.std):
            raise ConfigurationError("std: must be > 0 and finite")
        if len(self.mean) != len(self.std):
            raise ConfigurationError(f"std: has {len(self.std)} values, mean has {len(self.mean)}")


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
            raise ConfigurationError("dim: must be >= 1")
        if not self.normal_components:
            raise ConfigurationError("normal_components: must be non-empty")
        for side in ("normal_components", "anomaly_components"):
            for i, comp in enumerate(getattr(self, side)):
                if len(comp.mean) != self.dim:
                    raise ConfigurationError(f"{side}[{i}].mean: must have dim ({self.dim}) values")
        tags = [c.class_tag for c in self.anomaly_components]
        for i, tag in enumerate(tags):
            if not tag or tag in tags[:i]:
                raise ConfigurationError(f"anomaly_components[{i}].class_tag: must be non-empty "
                                         "and unique")

    @classmethod
    def from_dict(cls, d: dict) -> "MixtureSpec":
        """Read ``dataclasses.asdict``'s form, checking every value's type
        (no coercion); errors name the value's path, as in
        ``spec.normal_components[0].count``."""
        return build("spec", cls, d)


def generate(spec: MixtureSpec) -> FeatureDataset:
    """Draw the mixture; exactly the requested counts, deterministic per seed.
    Each component fills its rows of one table and shares one tag string."""
    rng = rng_for(spec.seed, "mixture")
    comps = spec.normal_components + spec.anomaly_components
    feats = np.empty((sum(c.count for c in comps), spec.dim))
    tags: list[str] = []
    for k, comp in enumerate(comps):
        x = feats[len(tags) : len(tags) + comp.count]
        rng.standard_normal(out=x)
        x *= comp.std  # the bits of mean + std * z
        x += comp.mean
        tags += [comp.class_tag or f"normal-{k}"] * comp.count  # anomalies always have a tag
    n_normal = sum(c.count for c in spec.normal_components)
    n_anomaly = len(tags) - n_normal
    return FeatureDataset(
        ids=tuple([f"n{i:05d}" for i in range(n_normal)] + [f"a{i:05d}" for i in range(n_anomaly)]),
        features=feats,
        labels=np.repeat(np.array([0, 1], dtype=np.int64), (n_normal, n_anomaly)),
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


def synthesize_pseudo(normals: np.ndarray, donors: np.ndarray, kind: PseudoKind,
                      rng: np.random.Generator) -> np.ndarray:
    """Corrupt each row of the (n, d) ``normals``, with the same row of
    ``donors`` as its partner, into a pseudo anomaly of recipe ``kind``.

    Each row draws its own parameters from ``rng``. MixBlend's weight lies
    in [0.3, 0.7], so a row stays on the segment between its two inputs.
    The segment recipes rewrite ``SEGMENT_FRACTION`` of the coordinates,
    rounded up, from a random start, and no others: SegmentSwap copies the
    donor's, NoiseMask adds ``NOISE_SCALE`` times standard-normal noise.
    """
    normals = np.asarray(normals, dtype=np.float64)
    donors = np.asarray(donors, dtype=np.float64)
    if normals.shape != donors.shape or normals.ndim != 2:
        raise HetanomError(f"normal shape {normals.shape} != donor shape {donors.shape}")
    n, d = normals.shape
    if kind is PseudoKind.MIX_BLEND:
        lam = rng.uniform(0.3, 0.7, size=(n, 1))
        return lam * normals + (1.0 - lam) * donors
    length = math.ceil(SEGMENT_FRACTION * d)
    offset = np.arange(d) - rng.integers(0, d - length + 1, size=(n, 1))
    segment = (offset >= 0) & (offset < length)
    if kind is PseudoKind.SEGMENT_SWAP:
        return np.where(segment, donors, normals)
    out = normals.copy()
    out[segment] += NOISE_SCALE * rng.standard_normal(n * length)  # the mask selects row by row
    return out
