import pytest
from hypothesis import settings

from caveprobe import cli

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Each test starts with nothing kept, as a new process does."""
    monkeypatch.setattr(cli, "_KEPT", {})
