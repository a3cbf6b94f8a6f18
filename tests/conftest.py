import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def search_counter(monkeypatch):
    """The parent map of every ``core.search`` call, in call order.

    ``semantics`` imports it by name, so it is patched there too. A map takes
    each reached node to the node it was first reached from, or to None for a
    start. ``core.search`` runs every insertion closure, the ``Nfa`` searches
    and the Parikh vector search (``Gjfa.vector_search``, whose nodes carry
    ``int`` vectors where the word searches' carry words). ``analysis`` runs
    no search of its own: its JFA vector sets come from ``core.label_sums``.
    ``core.insertion_closure`` drops its map before it returns the words it
    kept, so this list is the only way to see it.
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
