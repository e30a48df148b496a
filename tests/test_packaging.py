"""The distribution takes its version from the versioned facade."""

from __future__ import annotations

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_package_version_is_read_from_repro_version():
    config = tomllib.loads(PYPROJECT.read_text())
    project = config["project"]
    assert "version" in project["dynamic"] and "version" not in project
    version = config["tool"]["setuptools"]["dynamic"]["version"]
    assert version == {"attr": "repro.__version__"}
