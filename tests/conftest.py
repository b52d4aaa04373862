import json
import shutil
from pathlib import Path

import pytest

from urbanmas.backend import MockBackend
from urbanmas.domain import (
    Dimension,
    FactorSet,
    FieldValue,
    Level,
    LocationSample,
    PoiEntry,
    PredictiveFactor,
    TaskSpec,
    UrbanInfoRecord,
    builtin_task,
    load_samples,
)

FIXTURES = Path(__file__).parent / "fixtures"


def answer_every_upstream(url, params):
    """A fake geo transport: an address and no POIs."""
    if "reverse" in url:
        return 200, json.dumps({"display_name": "Addr"})
    return 200, json.dumps({"elements": []})


@pytest.fixture
def no_geo_network(monkeypatch):
    """Fail the test if anything sends a real geo request."""

    def no_network(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("network touched")

    monkeypatch.setattr("urbanmas.geo.http_request", no_network)


FACTOR_NAMES = (
    "population density",
    "greenery coverage",
    "commercial activity",
    "pedestrian infrastructure",
    "public transport access",
    "street lighting",
)


@pytest.fixture
def task() -> TaskSpec:
    return builtin_task("running_amount")


@pytest.fixture
def sample() -> LocationSample:
    return LocationSample(
        id="tokyo_tower",
        latitude=35.6586,
        longitude=139.7454,
        city="Tokyo",
        address="Tokyo Tower, 4, Shibakoen 4-chome, Minato, Tokyo, 105-0011, Japan",
        pois=(
            PoiEntry("Tokyo Tower", "tourism:attraction", 3.5),
            PoiEntry("Zojoji Temple", "amenity:place_of_worship", 159.2),
            PoiEntry("Shiba Park", "leisure:park", 264.8),
        ),
        streetview_refs=("https://streetview.example.org/pano/tokyo_tower_01.jpg",),
        ground_truth={"running_amount": 6.2},
    )


@pytest.fixture
def dataset() -> list[LocationSample]:
    return load_samples(FIXTURES / "samples.jsonl")


@pytest.fixture
def geocache_dir(tmp_path: Path) -> Path:
    """Writable copy of the fixture geo cache."""
    target = tmp_path / "geocache"
    shutil.copytree(FIXTURES / "geocache", target)
    return target


def make_factor_set(
    task_id: str = "running_amount",
    dimension: Dimension = Dimension.SOCIAL,
    level: Level = Level.MACRO,
    names: tuple[str, ...] = FACTOR_NAMES,
) -> FactorSet:
    return FactorSet(
        task_id=task_id,
        dimension=dimension,
        level=level,
        factors=tuple(
            PredictiveFactor(name, f"Measurable description of {name}.") for name in names
        ),
    )


def make_record(
    values: dict[str, str],
    provenance: str = "variant_a",
    dimension: Dimension = Dimension.SOCIAL,
    level: Level = Level.MACRO,
    location_id: str = "tokyo_tower",
    task_id: str = "running_amount",
    status: str = "raw",
) -> UrbanInfoRecord:
    return UrbanInfoRecord(
        location_id=location_id,
        task_id=task_id,
        dimension=dimension,
        level=level,
        fields={name: FieldValue(text=text, provenance=provenance) for name, text in values.items()},
        status=status,
    )


def scripted_extraction_backend(
    values_by_seed: dict[int, dict[str, str]],
    refine_text: str | None = None,
) -> MockBackend:
    """Mock whose extraction answers are fixed per variant seed.

    Refine prompts answer ``refine_text`` when given, else fall through to
    the default responder (which echoes Value A).
    """
    backend = MockBackend()
    if refine_text is not None:
        backend.add_rule(
            lambda req: "Value A:" in req.user_prompt and "Value B:" in req.user_prompt,
            refine_text,
        )
    for seed, values in values_by_seed.items():
        backend.add_rule(
            lambda req, s=seed: req.variant_seed == s
            and "exactly these keys" in req.user_prompt
            and "unusable" not in req.user_prompt,
            json.dumps(values),
        )
    return backend
