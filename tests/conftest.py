import os

import pytest

from liodom.cli import main


@pytest.fixture(scope="session")
def dataset(tmp_path_factory):
    """A short stationary dataset (25 scans) shared by the CLI and pipeline
    tests; tests that alter it work on a copy."""
    d = str(tmp_path_factory.mktemp("ds") / "stationary")
    assert main(["sim", "--preset", "stationary", "--seed", "1",
                 "--out", d]) == 0
    scans = sorted(os.listdir(os.path.join(d, "scans")),
                   key=lambda s: int(s.split(".")[0]))
    for f in scans[25:]:
        os.remove(os.path.join(d, "scans", f))
    return d
