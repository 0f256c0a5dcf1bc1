import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from hetanom.errors import ConfigurationError, HetanomError
from hetanom.synth import (
    SEGMENT_FRACTION,
    Component,
    MixtureSpec,
    PseudoKind,
    default_benchmark,
    generate,
    synthesize_pseudo,
)


class TestGenerate:
    def test_single_component_statistics(self):
        spec = MixtureSpec(
            dim=3,
            normal_components=(Component((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 5),),
            anomaly_components=(),
            seed=4,
        )
        ds = generate(spec)
        assert ds.n_normal == 5 and ds.n_anomaly == 0
        # empirical mean within 3*sigma/sqrt(5) of the component mean
        assert np.abs(ds.features.mean(axis=0)).max() < 3.0 / np.sqrt(5)

    def test_default_benchmark_counts(self):
        ds = generate(default_benchmark())
        assert ds.n_normal == 1200
        assert ds.n_anomaly == 240
        assert ds.dim == 16
        tags = {t for t, l in zip(ds.class_tags, ds.labels) if l == 1}
        assert tags == {"spike", "between", "scatter", "shift"}

    def test_bitwise_determinism(self):
        spec = default_benchmark()
        a, b = generate(spec), generate(spec)
        assert a.ids == b.ids
        assert (a.features == b.features).all()

    def test_counts_exact_over_seeds(self):
        for seed in range(50):
            spec = MixtureSpec(
                dim=2,
                normal_components=(
                    Component((0.0, 0.0), (1.0, 1.0), 7),
                    Component((4.0, 4.0), (0.5, 0.5), 3),
                ),
                anomaly_components=(Component((9.0, 9.0), (1.0, 1.0), 4, "far"),),
                seed=seed,
            )
            ds = generate(spec)
            assert ds.n_normal == 10 and ds.n_anomaly == 4

    def test_rows_of_a_component_share_one_tag_object(self):
        # a table of many rows keeps one tag string per component, not per row
        spec = MixtureSpec(
            dim=2,
            normal_components=(
                Component((0.0, 0.0), (1.0, 1.0), 300),
                Component((4.0, 4.0), (0.5, 0.5), 200),
            ),
            anomaly_components=(Component((9.0, 9.0), (1.0, 1.0), 40, "far"),
                                Component((-9.0, 9.0), (1.0, 1.0), 30, "left")),
            seed=3,
        )
        ds = generate(spec)
        assert len({id(t) for t in ds.class_tags}) == 4
        assert ds.class_tags[:300] == ("normal-0",) * 300
        assert ds.class_tags[300:500] == ("normal-1",) * 200
        assert len(set(ds.ids)) == len(ds) == 570

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            Component((0.0,), (0.0,), 1)  # zero stddev
        with pytest.raises(ConfigurationError):
            MixtureSpec(dim=1, normal_components=(Component((0.0,), (1.0,), 1),),
                        anomaly_components=(Component((1.0,), (1.0,), 1, ""),), seed=0)

    def test_spec_dict_roundtrip(self):
        spec = default_benchmark()
        assert MixtureSpec.from_dict(json.loads(json.dumps(asdict(spec)))) == spec


class TestSynthesizePseudo:
    @staticmethod
    def pairs(n, d, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), rng.normal(size=(n, d))

    def test_dim_mismatch(self):
        for a, b in [((5, 3), (5, 4)), ((5, 3), (4, 3)), ((3,), (3,)), ((2, 2, 3), (2, 2, 3))]:
            with pytest.raises(HetanomError, match=rf"^normal shape {re.escape(str(a))} "
                                                   rf"!= donor shape {re.escape(str(b))}$"):
                synthesize_pseudo(np.zeros(a), np.zeros(b), PseudoKind.MIX_BLEND,
                                  np.random.default_rng(0))

    @pytest.mark.parametrize("kind", [PseudoKind.SEGMENT_SWAP, PseudoKind.NOISE_MASK])
    def test_mask_locality(self, kind):
        # each row changes one contiguous run of exactly ceil(d / 4)
        # coordinates, and the others stay bitwise identical
        for d in (1, 5, 16):
            normal, donor = self.pairs(200, d)
            out = synthesize_pseudo(normal, donor, kind, np.random.default_rng(3))
            block = math.ceil(SEGMENT_FRACTION * d)
            assert block == math.ceil(d / 4)
            for row in range(len(out)):
                changed = np.flatnonzero(out[row] != normal[row])
                assert len(changed) == block
                assert changed[-1] - changed[0] == block - 1
                if kind is PseudoKind.SEGMENT_SWAP:
                    np.testing.assert_array_equal(out[row, changed], donor[row, changed])

    def test_mixblend_between_inputs(self):
        normal, donor = self.pairs(500, 10)
        out = synthesize_pseudo(normal, donor, PseudoKind.MIX_BLEND, np.random.default_rng(5))
        lo = np.minimum(normal, donor) - 1e-12
        hi = np.maximum(normal, donor) + 1e-12
        assert ((out >= lo) & (out <= hi)).all()
        # one weight per row, in [0.3, 0.7], read off the row's widest coordinate
        rows, col = np.arange(len(out)), np.abs(normal - donor).argmax(axis=1)
        lam = ((out - donor)[rows, col] / (normal - donor)[rows, col])[:, None]
        assert ((lam >= 0.3 - 1e-12) & (lam <= 0.7 + 1e-12)).all()
        np.testing.assert_allclose(out, lam * normal + (1.0 - lam) * donor, rtol=0, atol=1e-12)

    def test_same_recipe_same_output(self):
        normal, donor = self.pairs(50, 6)
        for kind in PseudoKind:
            a = synthesize_pseudo(normal, donor, kind, np.random.default_rng(11))
            b = synthesize_pseudo(normal, donor, kind, np.random.default_rng(11))
            np.testing.assert_array_equal(a, b)
