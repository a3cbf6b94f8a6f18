import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def search_counter(monkeypatch):
    """The parent map of every ``semantics.search`` and ``insertion_systems.search`` call, in call order."""
    from jumpfa import core, insertion_systems, semantics

    reached = []

    def recording(starts, successors, stop=None):
        parents, found = core.search(starts, successors, stop)
        reached.append(parents)
        return parents, found

    monkeypatch.setattr(semantics, "search", recording)
    monkeypatch.setattr(insertion_systems, "search", recording)
    return reached
