"""Public-API surface tests: every __all__ name resolves, constants sane."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import constants

PACKAGES = [
    "repro",
    "repro.utils",
    "repro.channel",
    "repro.entities",
    "repro.mobility",
    "repro.game",
    "repro.core",
    "repro.drl",
    "repro.env",
    "repro.baselines",
    "repro.experiments",
    "repro.service",
    "repro.queue",
    "repro.sim",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    module = importlib.import_module(package_name)
    assert hasattr(module, "__all__"), f"{package_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package_name}.{name} missing"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_quickstart_from_docstring():
    """The snippet in repro's module docstring must actually work."""
    from repro.core import StackelbergMarket
    from repro.entities import paper_fig2_population

    market = StackelbergMarket(paper_fig2_population())
    eq = market.equilibrium()
    assert eq.price > 0 and eq.msp_utility > 0


def test_cold_import_loads_no_scipy():
    """A fresh interpreter imports every entry-point package and serves a
    live price without loading scipy (or numpy.f2py, which scipy.special
    drags in); the first confidence interval then loads scipy.special."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    script = (
        "import sys\n"
        "import repro, repro.experiments, repro.queue, repro.service\n"
        "import repro.drl, repro.experiments.run\n"
        "from repro.mobility.citygrid import CityGridSpec, city_markets\n"
        "from repro.service import LivePricingService\n"
        "spec = CityGridSpec.for_markets(8, seed=0)\n"
        "service = LivePricingService(city_markets(spec))\n"
        "quote = service.query(3)\n"
        "assert quote.market_index == 3 and quote.feasible, quote\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy'\n"
        "                or m.startswith(('scipy.', 'numpy.f2py')))\n"
        "assert not loaded, f'loaded at import: {loaded}'\n"
        "from repro.utils import summarize\n"
        "summarize([1.0, 2.0])\n"
        "assert 'scipy.special' in sys.modules, 'summarize loaded no scipy'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


class TestConstants:
    def test_radio_parameters(self):
        assert constants.TRANSMIT_POWER_DBM == 40.0
        assert constants.CHANNEL_GAIN_DB == -20.0
        assert constants.RSU_DISTANCE_M == 500.0
        assert constants.PATH_LOSS_EXPONENT == 2.0
        assert constants.NOISE_POWER_DBM == -150.0

    def test_market_parameters(self):
        assert constants.MAX_BANDWIDTH == 50.0
        assert constants.UNIT_TRANSMISSION_COST == 5.0
        assert constants.MAX_PRICE == 50.0

    def test_drl_parameters(self):
        assert constants.HISTORY_LENGTH == 4
        assert constants.NUM_EPISODES == 500
        assert constants.ROUNDS_PER_EPISODE == 100
        assert constants.UPDATE_EPOCHS == 10
        assert constants.BATCH_SIZE == 20
        assert constants.LEARNING_RATE == 1e-5
        assert constants.HIDDEN_SIZES == (64, 64)

    def test_population_ranges(self):
        assert constants.VT_DATA_SIZE_RANGE_MB == (100.0, 300.0)
        assert constants.IMMERSION_COEF_RANGE == (5.0, 20.0)
        assert constants.MAX_VMUS == 6

    def test_error_hierarchy(self):
        from repro import errors

        for name in (
            "ConfigurationError",
            "GameError",
            "NeuralNetworkError",
            "ExperimentError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)
