"""Shared fixtures for the test suite."""
import pytest

from qarrow import load_prelude
from qarrow.typecheck import Checker


@pytest.fixture(scope="session")
def prelude():
    return load_prelude()


@pytest.fixture(scope="session")
def defs_map(prelude):
    return {d.name: d.term for d in prelude.program.defs}


@pytest.fixture
def checkers(monkeypatch):
    """The number of `Checker`s built, one per elaboration pass."""
    count = [0]
    init = Checker.__init__

    def counted(self):
        count[0] += 1
        init(self)

    monkeypatch.setattr(Checker, "__init__", counted)
    return count
