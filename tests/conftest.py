from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vefrac.benchmarks import rect_grid_mesh, square_grid_mesh, unit_square_mesh


@pytest.fixture(scope="session")
def square2():
    """Unit square split into two triangles, all boundary Dirichlet."""
    return unit_square_mesh()


@pytest.fixture(scope="session")
def rect9():
    """2x1 grid rectangle: 9 edges, handy for exhaustive lattice sweeps."""
    return rect_grid_mesh(2, 1, width=2.0, height=1.0)


@pytest.fixture(scope="session")
def grid3():
    """3x3 unit grid: 33 edges."""
    return square_grid_mesh(3)


@pytest.fixture(scope="session")
def grid4_tb():
    """4x4 unit grid with top and bottom rows Dirichlet."""
    return square_grid_mesh(4, dirichlet="topbottom")


@pytest.fixture(scope="session")
def bench_workloads():
    """bench/workloads.py, which writes the benchmark's inputs."""
    name = "bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]
