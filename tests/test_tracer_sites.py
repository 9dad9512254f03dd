"""Every ptde site that perfbench's tracer wraps must still resolve.

The tracer skips a (module, attribute) it cannot find and reports the
metrics that need it as absent; this makes such a move a test failure.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_traced_site_resolves(name):
    sites, _observe = TARGETS[name]
    for module, attribute in sites:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (
            f"{name}: {module}.{attribute} is gone"
        )
