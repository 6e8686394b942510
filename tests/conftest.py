from pathlib import Path

import numpy as np
import pytest

from ccawalk import propagator

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def scenarios_dir() -> Path:
    return REPO_ROOT / "scenarios"


def read_csv(path):
    """Split an output file into comment lines, header columns, data rows."""
    comments, header, rows = [], None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def full_propagator(decomp, t):
    """G(t) as an N x N matrix: every site at one time (G is symmetric)."""
    return propagator(decomp, np.arange(1, decomp.num_cavities + 1), [t])[:, 0]
