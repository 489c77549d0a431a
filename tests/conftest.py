import shutil
from pathlib import Path

import pytest

from repvar.finite_group import load_group

DATA_GROUPS = Path(__file__).resolve().parent.parent / "data" / "groups"
GROUP_FILES = sorted(DATA_GROUPS.glob("*.json"))
SUITE_GROUP_NAMES = ("z2", "z3", "z4", "z2xz2", "s3", "d4", "q8", "a4")
# The shipped files named after their group: the suite's groups and z1.
GROUP_NAMES = ("z1", *SUITE_GROUP_NAMES)


def named_group(name):
    """The group in the shipped file ``data/groups/<name>.json``."""
    return load_group(DATA_GROUPS / f"{name}.json")


@pytest.fixture(scope="session")
def suite_groups():
    """The eight groups every cross-check sweeps over."""
    return {name: named_group(name) for name in SUITE_GROUP_NAMES}


@pytest.fixture()
def group_file_factory(tmp_path):
    """Copy a shipped group file into a fresh directory and return the path."""

    def factory(name):
        path = tmp_path / f"{name}.json"
        shutil.copyfile(DATA_GROUPS / f"{name}.json", path)
        return path

    return factory
