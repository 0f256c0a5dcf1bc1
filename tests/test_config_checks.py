"""Every config dataclass checks its own fields when it is built, and each
refusal starts with the name of the field at fault. ``schema.build`` relies
on this: it puts the dataclass's path and a ``.`` in front, so a config read
from JSON and one built in Python are refused the same way."""

import math
import re

import pytest

from hetanom.cli import DatasetSource, RunConfig, SweepSpec, parse_config
from hetanom.errors import ConfigurationError
from hetanom.evaluate import ProtocolSpec
from hetanom.schema import build
from hetanom.synth import Component, MixtureSpec, default_benchmark
from hetanom.train import TrainConfig

from test_cli import minimal_config

NONFINITE = (math.nan, math.inf, -math.inf)
COMPONENT = {"mean": (0.0, 0.0), "std": (1.0, 1.0), "count": 3}
SPEC = {"dim": 2, "normal_components": (Component(**COMPONENT),), "seed": 0,
        "anomaly_components": (Component((5.0, 5.0), (1.0, 1.0), 2, "far"),)}
RUN = {"dataset": DatasetSource(), "protocol": ProtocolSpec()}
HARD = {"seen_class": "spike"}


def cases():
    """(dataclass, valid keyword arguments, field, the field's bad value),
    for every field a config dataclass checks."""
    for name in ("T", "C", "K", "epochs", "warmup_epochs", "batch_size", "hidden"):
        yield TrainConfig, {}, name, 0
    yield TrainConfig, {"T": 2}, "C", 1
    yield TrainConfig, {"warmup_epochs": 5}, "K", 6

    yield ProtocolSpec, HARD, "m_anomalies", 0
    yield ProtocolSpec, HARD, "seeds", ()
    yield ProtocolSpec, HARD, "seeds", (1, 1)

    yield DatasetSource, {"path": "data.csv"}, "spec", default_benchmark()

    yield RunConfig, RUN, "variants", ()
    yield RunConfig, RUN, "variants", ("AHL", "Wrong")
    yield RunConfig, RUN, "variants", ("AHL", "ahl")
    yield RunConfig, RUN, "sweep", SweepSpec("C", (2, 0))
    yield RunConfig, {**RUN, "sweep": SweepSpec("C", (2,))}, "variants", ("AHL", "RamFULL")

    sweep = {"param": "C", "values": (2,)}
    yield SweepSpec, sweep, "param", "T"
    yield SweepSpec, sweep, "values", ()
    yield SweepSpec, sweep, "values", (2, 2)

    yield MixtureSpec, SPEC, "dim", 0
    yield MixtureSpec, SPEC, "normal_components", ()
    yield MixtureSpec, SPEC, "normal_components", (Component((0.0,), (1.0,), 3),)
    for tags in (("",), ("far", "far")):
        yield MixtureSpec, SPEC, "anomaly_components", tuple(
            Component((5.0, 5.0), (1.0, 1.0), 2, tag) for tag in tags)

    yield Component, COMPONENT, "count", 0
    for bad in NONFINITE:
        yield Component, COMPONENT, "mean", (0.0, bad)
    for bad in (0.0, -1.0) + NONFINITE:
        yield Component, COMPONENT, "std", (1.0, bad)
    yield Component, COMPONENT, "std", (1.0,)


CASES = list(cases())


@pytest.mark.parametrize("cls, valid, field, bad", CASES,
                         ids=[f"{c.__name__}.{f}={b!r}"[:60] for c, _, f, b in CASES])
def test_bad_field_refused_by_name(cls, valid, field, bad):
    cls(**valid)  # the rest of the arguments make a valid instance
    with pytest.raises(ConfigurationError) as exc:
        cls(**{**valid, field: bad})
    assert re.match(rf"{field}[.\[:]", str(exc.value)), str(exc.value)


def test_build_puts_the_path_in_front():
    with pytest.raises(ConfigurationError, match=r"^train\.T: must be >= 1$"):
        build("train", TrainConfig, {"T": 0})
    with pytest.raises(ConfigurationError,
                       match=r"^spec\.normal_components\[0\]\.count: must be >= 1$"):
        build("spec", MixtureSpec, {**SPEC, "normal_components": [{**COMPONENT, "count": 0}],
                                    "anomaly_components": []})
    with pytest.raises(ConfigurationError, match=r"^variants\[0\]: unknown variant"):
        build("", RunConfig, {**minimal_config(), "variants": ["Wrong"]})


def test_python_built_config_refused_as_the_parsed_one():
    raw = minimal_config()
    raw["variants"] = ["AHL", "Wrong"]
    with pytest.raises(ConfigurationError) as parsed:
        parse_config(raw)
    with pytest.raises(ConfigurationError) as built:
        RunConfig(**RUN, variants=("AHL", "Wrong"))
    assert str(built.value) == str(parsed.value)


def test_variants_canonicalised_on_construction():
    assert RunConfig(**RUN, variants=["ahl", "hadg-only"]).variants == ("AHL", "HADG_only")


def test_kind_follows_from_seen_class():
    assert ProtocolSpec().kind == "general"
    assert ProtocolSpec(seen_class="spike").kind == "hard"
