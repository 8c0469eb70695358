"""The checked-in shapefile fixtures are exactly what
scripts/make_fixtures.py writes (FIXTURES.md §A)."""

import os
import subprocess
import sys

from shapefile_rs_ray.pipelines.oracles import FIXTURE_DIR

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_make_fixtures_reproduces_tests_data(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "make_fixtures.py"),
         str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-500:]
    made = sorted(os.listdir(tmp_path))
    assert made == sorted(os.listdir(FIXTURE_DIR))
    for name in made:
        with open(tmp_path / name, "rb") as a, \
                open(os.path.join(FIXTURE_DIR, name), "rb") as b:
            assert a.read() == b.read(), name
