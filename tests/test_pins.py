"""The ledger's pins, one test per entry, and its command on patched computations."""

import json
from functools import cache

import pytest

import pins

LEDGER = json.loads(pins.LEDGER_PATH.read_text(encoding="utf-8"))
#: (group, case) per entry; criterion 7 checks its own group, and CI the configs'
ENTRIES = [(g, None) for g in ("criterion8", "fit_default", "cdl_minus")] + [
    (g, case) for g in ("subsets", "large_table", "generate") for case in LEDGER[g]]
computed = cache(lambda group: pins.GROUPS[group]())


@pytest.mark.parametrize("group, case", ENTRIES, ids=[f"{g}/{c}" if c else g for g, c in ENTRIES])
def test_pin(group, case):
    got, want = computed(group), LEDGER[group]
    if case is not None:
        got, want = got[case], want[case]
    assert got == want, f"ledger's platform {LEDGER['platform']}; ours {pins.float_platform()}"


def test_ledger_groups_are_the_modules():
    assert set(LEDGER) - set(pins.META) == set(pins.GROUPS)


def test_table_names_nested_added_and_removed_pins():
    old = {"a": {"x": "1", "y": {"z": "2"}}, "gone": "3"}
    new = {"a": {"x": "1", "y": {"z": "4"}, "w": 0.5}}
    assert pins.moved(old, new) == [
        "| `a/w` | (none) | 0.5 |", "| `a/y/z` | 2 | 4 |", "| `gone` | 3 | (none) |"]


def test_check_mode_reports_a_moved_pin_and_writes_nothing(tmp_path, monkeypatch, capsys):
    path, text = tmp_path / "pins.json", '{"about": "", "platform": {}, "g": {"h": "1"}}'
    path.write_text(text)
    monkeypatch.setattr(pins, "GROUPS", {"g": lambda: {"h": "2"}})
    assert pins.main([], path) == 1
    assert capsys.readouterr().out.splitlines()[2:] == ["| `g/h` | 1 | 2 |"]
    assert path.read_text() == text
    assert pins.main(["--drift", "d"], path) == 0  # the one mode that writes
    assert json.loads(path.read_text()) == {"about": "", "drift": "d", "g": {"h": "2"},
                                            "platform": pins.float_platform()}
