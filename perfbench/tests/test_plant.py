import contextlib
import io
import json
from pathlib import Path

import pytest

import plant
from icskg import cli

FIXTURE = Path(cli.default_config_path()).parent


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _validate(inputs: Path) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["--config", str(inputs / "config.json"), "build",
                       "--validate-only"])
    assert rc == 0
    return json.loads(buf.getvalue())


def test_cell_labels():
    assert [plant.cell_label(i) for i in (0, 2, 25, 26, 27, 51, 52)] == \
        ["A", "C", "Z", "AA", "AB", "AZ", "BA"]


def test_three_cells_reproduce_the_fixture(tmp_path):
    sizes = plant.generate(FIXTURE, tmp_path, cells=3, seed=42)
    assert sizes["products"] == 61
    assert sizes["flows"] == 101
    fixture = _files(FIXTURE)
    del fixture["manifest.json"]
    assert _files(tmp_path) == fixture
    manifest = json.loads((FIXTURE / "manifest.json").read_text())
    assert _validate(tmp_path) == manifest["counts"]


@pytest.mark.parametrize("cells", [4, 6, 24])
def test_scaled_plant_builds(tmp_path, cells):
    sizes = plant.generate(FIXTURE, tmp_path, cells=cells, seed=7, duration_hours=0.25)
    assert sizes["products"] == 22 + 13 * cells
    assert sizes["flows"] == 44 + 19 * cells
    counts = _validate(tmp_path)
    assert counts["nodes"]["Product"] == sizes["products"]
    assert counts["edges"]["COMMUNICATES_WITH"] == sizes["flows"]
    # Every replicated cell product matches its own advisories: the two CVEs
    # per product of the fixture, minus the three advisory-less vision PCs.
    assert counts["edges"]["HAS_VULNERABILITY"] == 2 * (sizes["products"] - cells)
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["seed"] == 7
    assert config["synthProfile"]["durationHours"] == 0.25


def test_generation_is_deterministic(tmp_path):
    plant.generate(FIXTURE, tmp_path / "a", cells=12, seed=5, duration_hours=0.5)
    plant.generate(FIXTURE, tmp_path / "b", cells=12, seed=5, duration_hours=0.5)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_rejects_zero_cells(tmp_path):
    with pytest.raises(ValueError):
        plant.generate(FIXTURE, tmp_path, cells=0, seed=1)
