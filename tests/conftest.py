import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def search_counter(monkeypatch):
    """The parent map of every ``semantics.search`` and ``core.search`` call, in call order.

    ``core.search`` runs every insertion closure (``core.insertion_closure``)
    and the ``Nfa`` searches.
    """
    from jumpfa import core, semantics

    search = core.search  # the wrapper must not call itself once core.search is patched
    reached = []

    def recording(starts, successors, stop=None):
        parents, found = search(starts, successors, stop)
        reached.append(parents)
        return parents, found

    monkeypatch.setattr(semantics, "search", recording)
    monkeypatch.setattr(core, "search", recording)
    return reached
