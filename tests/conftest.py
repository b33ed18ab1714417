"""Suite-wide fixtures."""

import pytest

try:
    from hypothesis import settings
except ImportError:  # the linter's self-test job installs only pytest
    settings = None

#: The long run of the store state machine (``tests/test_store_machine.py``):
#: ``pytest --hypothesis-profile store-long``.
if settings is not None:
    settings.register_profile("store-long", max_examples=300,
                              stateful_step_count=50, deadline=None)


@pytest.fixture(scope="session", autouse=True)
def private_cache_home(tmp_path_factory):
    """Point ``XDG_CACHE_HOME`` at a directory of this run, so the compiled
    transient stepper the suite builds lands there and not in the user's
    ``~/.cache/repro``.  Subprocesses the tests start inherit it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))
        yield
