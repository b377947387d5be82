import re
from pathlib import Path

import axisforge
from axisforge.oracle import ORACLES


def test_every_export_resolves():
    # the export table is lazy: a stale entry fails only when accessed
    for name in axisforge.__all__:
        assert getattr(axisforge, name) is not None, name


def test_readme_counts_the_oracles_and_names_are_unique():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (count,) = re.findall(r"# all (\d+) oracles", readme)
    assert int(count) == len(ORACLES)
    names = [name for name, _ in ORACLES]
    assert len(set(names)) == len(names)
