import os
from pathlib import Path

import pytest

import expsum_kit
from expsum_kit.arith import build_tables


@pytest.fixture
def kit_env():
    """os.environ with the kit's source directory on PYTHONPATH, so that a
    subprocess imports the same kit as the tests, installed or not."""
    src = str(Path(expsum_kit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def tables_small():
    return build_tables(2_500)


@pytest.fixture(scope="session")
def tables_10k():
    return build_tables(10_000)


@pytest.fixture(scope="session")
def tables_100k():
    return build_tables(100_000)


@pytest.fixture(scope="session")
def tables_2m():
    return build_tables(2_000_000)
