"""The shipped configs and the README's CLI block against the CLI itself,
so neither can go on naming what the CLI no longer accepts."""

import re
from pathlib import Path

import pytest

from hetanom.cli import load_config, main
from hetanom.evaluate import METRICS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_loads(path):
    load_config(path)


def _readme_subcommands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n+```bash\n(.*?)```", text, re.S).group(1)
    return sorted(set(re.findall(r"^hetanom\s+(\S+)", block, re.M)))


def test_readme_cli_block_names_subcommands():
    assert _readme_subcommands()


@pytest.mark.parametrize("subcommand", _readme_subcommands())
def test_readme_subcommand_accepted(subcommand, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([subcommand, "--help"])
    assert exit_.value.code == 0


def _readme_cli_flags():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"\n## CLI\n(.*?)(?=\n## )", text, re.S).group(1)
    spans = re.findall(r"`([^`\n]+)`", section)
    return sorted({flag for span in spans for flag in re.findall(r"--[a-z][a-z-]*", span)})


def test_readme_cli_section_names_flags():
    assert "--config" in _readme_cli_flags()


@pytest.mark.parametrize("flag", _readme_cli_flags())
def test_readme_flag_accepted(flag, capsys):
    helps = []
    for subcommand in _readme_subcommands():
        with pytest.raises(SystemExit):
            main([subcommand, "--help"])
        helps.append(capsys.readouterr().out)
    assert any(re.search(rf"{flag}\b", text) for text in helps), flag


@pytest.mark.parametrize("metric", METRICS)
def test_readme_names_metric(metric):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert re.search(rf"\b{metric}\b", text), metric
