"""The catalogue of `tools/mutants.py` stays current: each entry's old text
occurs exactly once in its file, and each of its test IDs names tests this
session collected, so a source edit that makes an entry stale fails here."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("number", range(1, len(mutants.CATALOGUE) + 1))
def test_entry_is_current(number, request):
    name, old, _, ids = mutants.CATALOGUE[number - 1]
    assert (ROOT / "src" / "pathcoalg" / name).read_text().count(old) == 1, name
    collected = [item.nodeid for item in request.session.items]
    files = {nodeid.split("::")[0] for nodeid in collected}
    for test_id in mutants.node_ids(ids):
        if test_id.split("::")[0] in files:  # a partial run checks its own files
            assert any(nodeid == test_id or nodeid.startswith((test_id + "[", test_id + "::"))
                       for nodeid in collected), test_id
