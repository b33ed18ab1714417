"""Suite-wide fixtures."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def private_cache_home(tmp_path_factory):
    """Point ``XDG_CACHE_HOME`` at a directory of this run, so the compiled
    transient stepper the suite builds lands there and not in the user's
    ``~/.cache/repro``.  Subprocesses the tests start inherit it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))
        yield
