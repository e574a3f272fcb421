"""Package-wide leak gate: see :func:`tests.conftest.leak_check`."""

import pytest

from tests.conftest import leak_check

no_leaked_workers_segments_or_fds = pytest.fixture(
    scope="package", autouse=True
)(leak_check)
