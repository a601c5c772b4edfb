import pytest

# settings a caller's shell may hold that would change what the suite checks:
# a node budget fails searches the tests expect to finish, and a cache directory
# would receive the blocks of every CLI run made without --cache
_CALLER_ENV = ("DIVBOUND_NODE_LIMIT", "DIVBOUND_CACHE_DIR")


@pytest.fixture(scope="session", autouse=True)
def _hermetic_environment():
    """Unset the caller's divbound settings for the whole run. Session-scoped, so
    the module-scoped fixtures of test_acceptance run without them too; a test
    that needs one sets it with monkeypatch."""
    with pytest.MonkeyPatch.context() as mp:
        for name in _CALLER_ENV:
            mp.delenv(name, raising=False)
        yield
