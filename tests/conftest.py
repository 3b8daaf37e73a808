"""Session-wide fixtures for the test suite."""

import pytest

from repro.engine import CACHE_DIR_ENV


@pytest.fixture(scope="session", autouse=True)
def session_artifact_cache(tmp_path_factory):
    """Point the artifact cache at a directory of this session's own.

    With ``REPRO_CACHE_DIR`` unset, ``ArtifactCache.from_env`` resolves
    to ``~/.cache/repro``, so a test result would depend on what earlier
    checkouts left there. A test that sets the variable itself (with
    ``monkeypatch``) still wins, and gets this directory back after.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(tmp_path_factory.mktemp("cache")))
        yield
