"""Property tests on the three readers of outside input: run configs, feature
CSVs and checkpoints. Each must return a valid object or raise a
ConfigurationError, whatever the input. A whole run on a small drawn
config must finish with valid results or be refused, naming the field,
before it writes anything."""

import copy
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetanom.cli import RunConfig, execute_run, parse_config
from hetanom.data import ingest_csv
from hetanom.errors import ConfigurationError
from hetanom.evaluate import METRICS, VARIANTS
from hetanom.nets import (CHECKPOINT_MAGIC, ScorerNet, SequencePredictor, load_checkpoint,
                          save_checkpoint)
from hetanom.synth import MixtureSpec
from hetanom.train import TrainConfig

from test_cli import minimal_config

# derandomized so that tier-1 stays deterministic; no example database on disk
FUZZ = settings(max_examples=100, deadline=None, database=None, derandomize=True)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=12,
)


def config_paths():
    """Every key path of a valid config, down to each mixture component's
    fields and each list element (a list index is a path step)."""
    cfg = minimal_config()
    cfg["sweep"] = {"param": "K", "values": [5]}
    paths = []

    def walk(node, prefix):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            paths.append(prefix + (key,))
            if isinstance(value, (dict, list)):
                walk(value, prefix + (key,))

    walk(cfg, ())
    paths += [("train", f) for f in TrainConfig.__dataclass_fields__ if f not in cfg["train"]]
    return cfg, paths


VALID_CONFIG, CONFIG_PATHS = config_paths()
DELETE = object()  # drop the field instead of replacing it


def parses_or_refuses(raw):
    try:
        assert isinstance(parse_config(raw), RunConfig)
    except ConfigurationError:
        pass


@FUZZ
@given(json_values)
def test_parse_config_on_any_json_value(raw):
    parses_or_refuses(raw)


@FUZZ
@given(st.sampled_from(CONFIG_PATHS), json_values | st.just(DELETE))
def test_parse_config_with_one_field_replaced(path, value):
    raw = copy.deepcopy(VALID_CONFIG)
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is DELETE and isinstance(node, list):
        del node[path[-1]]
    elif value is DELETE:
        node.pop(path[-1], None)
    else:
        node[path[-1]] = value
    parses_or_refuses(raw)


@FUZZ
@given(json_values)
def test_mixture_spec_from_dict_on_any_json_value(raw):
    try:
        assert isinstance(MixtureSpec.from_dict(raw), MixtureSpec)
    except ConfigurationError:
        pass


cells = st.sampled_from(["", "0", "1", "2", "a", "b", "x", "nan", "-inf", "1e999", "3.5",
                         "1_0", "\"", "\x00", "é"])
header = st.sampled_from(["id,label,class,f0,f1", "id,label,class,f0", "id,label,class",
                          "id,label,klass,f0", "id,label,class,f1", ""])
csv_rows = st.lists(st.lists(cells, min_size=0, max_size=6).map(",".join), max_size=6)


def ingests_or_refuses(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        try:
            ds = ingest_csv(path)
        except ConfigurationError as exc:
            assert str(path) in str(exc)
            return
    assert np.isfinite(ds.features).all() and ds.n_normal >= 1


@FUZZ
@given(header, csv_rows)
def test_ingest_csv_on_generated_files(head, rows):
    ingests_or_refuses(("\n".join([head] + rows) + "\n").encode("utf-8"))


@FUZZ
@given(st.binary(max_size=64))
def test_ingest_csv_on_arbitrary_bytes(tail):
    ingests_or_refuses(b"id,label,class,f0\na,0,,1.0\n" + tail)


def checkpoint_bytes(net) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.ckpt"
        save_checkpoint(path, net)
        return path.read_bytes()


CHECKPOINTS = [
    checkpoint_bytes(ScorerNet.init(3, 4, np.random.default_rng(0))),
    checkpoint_bytes(SequencePredictor.init(2, np.random.default_rng(1))),
]


def old_layout_sequence_bytes(net) -> bytes:
    """``net`` as saved before the "stacked-ifog" layout: no layout in the
    descriptor, each LSTM direction's W, U and b apart, gate rows i, f, g, o."""
    H = net.HIDDEN
    desc = json.dumps({"kind": "sequence", "t_dim": net.t_dim}, sort_keys=True).encode()
    blocks = [net.block(f"{layer}.{part}")[d].reshape(4, H, -1)[[0, 1, 3, 2]]
              for layer in ("l1", "l2") for d in (0, 1) for part in "WUb"]
    blocks += [net.block(name) for name in ("fc.W", "fc.b", "out.W", "out.b")]
    theta = np.concatenate([block.ravel() for block in blocks])
    return (CHECKPOINT_MAGIC + len(desc).to_bytes(4, "little") + desc
            + theta.astype("<f8").tobytes())


def loads_or_refuses(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.ckpt"
        path.write_bytes(data)
        try:
            net = load_checkpoint(path)
        except ConfigurationError as exc:
            assert str(path) in str(exc)
            return
    assert isinstance(net, (ScorerNet, SequencePredictor))


@FUZZ
@given(st.sampled_from(CHECKPOINTS), st.data())
def test_load_checkpoint_truncated(raw, data):
    loads_or_refuses(raw[:data.draw(st.integers(0, len(raw) - 1))])


@FUZZ
@given(st.sampled_from(CHECKPOINTS), st.data())
def test_load_checkpoint_bytes_flipped(raw, data):
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                               min_size=1, max_size=4))
    flipped = bytearray(raw)
    for pos, mask in flips:
        flipped[pos] ^= mask
    loads_or_refuses(bytes(flipped))


# the old-layout checkpoint is refused, naming the path
@pytest.mark.parametrize("raw", CHECKPOINTS + [
    old_layout_sequence_bytes(SequencePredictor.init(2, np.random.default_rng(1)))])
def test_untouched_checkpoints_load(raw):
    loads_or_refuses(raw)


@st.composite
def small_run_configs(draw):
    """A run config over a small synthetic mixture: dims 1-5, 1-3 components
    per side, T 1-4, 1-2 epochs, either protocol, one or two variants, and
    every other ``train`` field drawn from a small range."""
    dim = draw(st.integers(1, 5))
    coord = st.floats(-6.0, 6.0, allow_nan=False)
    vector = st.lists(coord, min_size=dim, max_size=dim)
    spread = st.lists(st.floats(0.1, 2.0), min_size=dim, max_size=dim)

    def components(counts, tags):
        return [{"mean": draw(vector), "std": draw(spread), "count": draw(counts),
                 **({"class_tag": tag} if tag else {})} for tag in tags]

    normals = components(st.integers(1, 30), [""] * draw(st.integers(1, 3)))
    tags = ["a", "b", "c"][:draw(st.integers(1, 3))]
    protocol = {"m_anomalies": draw(st.integers(1, 8)),
                "seeds": draw(st.sampled_from([[0], [0, 1]]))}
    if draw(st.booleans()):  # the hard protocol
        protocol["seen_class"] = draw(st.sampled_from(tags))
    return {
        "seed": draw(st.integers(0, 3)),
        "dataset": {"spec": {
            "dim": dim, "seed": draw(st.integers(0, 3)), "normal_components": normals,
            "anomaly_components": components(st.integers(1, 12), tags)}},
        "train": {"T": draw(st.integers(1, 4)), "C": draw(st.integers(1, 4)),
                  "K": draw(st.integers(1, 2)), "epochs": draw(st.integers(1, 2)),
                  "warmup_epochs": draw(st.integers(1, 2)),
                  "batch_size": draw(st.integers(1, 16)), "hidden": draw(st.integers(1, 6)),
                  "strict_openness": draw(st.booleans())},
        "protocol": protocol,
        "variants": draw(st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=2,
                                  unique=True)),
    }


FIELD_PATH = re.compile(r"^[a-z_]+(\.[A-Za-z_]+|\[\d+\])*: ")


@settings(FUZZ, max_examples=150)
@given(small_run_configs())
def test_run_finishes_or_is_refused_before_writing(raw):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        try:
            execute_run(parse_config(raw), out)
        except ConfigurationError as exc:
            assert FIELD_PATH.match(str(exc)), str(exc)
            assert not out.exists() or not any(out.iterdir())
            return
        results = json.loads((out / "results.json").read_text())["results"]
        for result in results:
            for seed in result["per_seed"]:
                for metric in METRICS:
                    assert seed[metric] is None or 0.0 <= seed[metric] <= 1.0, (metric, seed)
        for log in (out / "logs").glob("AHL-*.jsonl"):
            for line in log.read_text().splitlines():
                w = np.array(json.loads(line)["w"])
                assert np.isfinite(w).all() and (w >= 0).all()
                assert math.isclose(w.sum(), 1.0, abs_tol=1e-9)
