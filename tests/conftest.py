import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def load_bench():
    """Load a fresh copy of bench/<name>.py by path, as module bench_<name>."""

    def load(name):
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses resolve the module by name
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture
def small_blocks(monkeypatch):
    """small_blocks(n) sets the block size _BLOCK to n in every loaded
    geopump module that binds it, for the test's duration."""

    def patch(n):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "geopump" and "_BLOCK" in vars(module):
                monkeypatch.setattr(module, "_BLOCK", n)

    return patch
