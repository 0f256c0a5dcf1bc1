import numpy as np
import pytest

from hetanom.errors import ConfigurationError, ShapeError
from hetanom.synth import (
    SEGMENT_FRACTION,
    Component,
    MixtureSpec,
    PseudoAnomalyRecipe,
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

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            Component((0.0,), (0.0,), 1)  # zero stddev
        with pytest.raises(ConfigurationError):
            MixtureSpec(dim=1, normal_components=(Component((0.0,), (1.0,), 1),),
                        anomaly_components=(Component((1.0,), (1.0,), 1, ""),), seed=0)

    def test_spec_dict_roundtrip(self):
        spec = default_benchmark()
        assert MixtureSpec.from_dict(spec.to_dict()) == spec


class TestSynthesizePseudo:
    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            synthesize_pseudo(np.zeros(3), np.zeros(4),
                              PseudoAnomalyRecipe(PseudoKind.MIX_BLEND, seed=0))

    @pytest.mark.parametrize("kind", [PseudoKind.SEGMENT_SWAP, PseudoKind.NOISE_MASK])
    def test_mask_locality(self, kind):
        # untouched coordinates stay bitwise identical; the changed block is
        # contiguous and has ceil(SEGMENT_FRACTION * d) coordinates at most
        d = 16
        for seed in range(60):
            rng = np.random.default_rng(seed)
            normal, donor = rng.normal(size=d), rng.normal(size=d)
            out = synthesize_pseudo(normal, donor, PseudoAnomalyRecipe(kind, seed=seed))
            changed = np.flatnonzero(out != normal)
            block = int(np.ceil(SEGMENT_FRACTION * d))
            assert len(changed) <= block
            if len(changed) > 1:
                assert changed[-1] - changed[0] <= block - 1

    def test_mixblend_between_inputs(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            normal, donor = rng.normal(size=10), rng.normal(size=10)
            out = synthesize_pseudo(normal, donor,
                                    PseudoAnomalyRecipe(PseudoKind.MIX_BLEND, seed=seed))
            lo = np.minimum(normal, donor) - 1e-12
            hi = np.maximum(normal, donor) + 1e-12
            assert ((out >= lo) & (out <= hi)).all()

    def test_same_recipe_same_output(self):
        rng = np.random.default_rng(0)
        normal, donor = rng.normal(size=6), rng.normal(size=6)
        recipe = PseudoAnomalyRecipe(PseudoKind.NOISE_MASK, seed=11)
        a = synthesize_pseudo(normal, donor, recipe)
        b = synthesize_pseudo(normal, donor, recipe)
        np.testing.assert_array_equal(a, b)
