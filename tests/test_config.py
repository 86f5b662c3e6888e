"""Unit tests for MiningParams (paper Sec. III-E / Table VI)."""

import pytest

from repro import MiningParams
from repro.events.relations import RelationConfig
from repro.exceptions import ConfigError


class TestValidation:
    def test_valid_construction(self):
        params = MiningParams(2, 3, (4, 10), 2)
        assert params.dist_min == 4
        assert params.dist_max == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_period": 0},
            {"min_density": 0},
            {"dist_interval": (5, 4)},
            {"dist_interval": (-1, 4)},
            {"min_season": 0},
            {"max_pattern_length": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        base = {"max_period": 2, "min_density": 3, "dist_interval": (4, 10), "min_season": 2}
        base.update(kwargs)
        with pytest.raises(ConfigError):
            MiningParams(**base)


class TestPercentResolution:
    def test_table6_style_values(self):
        # 0.4% maxPeriod / 0.5% minDensity of 1460 sequences.
        params = MiningParams.from_percentages(
            n_granules=1460,
            max_period_pct=0.4,
            min_density_pct=0.5,
            dist_interval=(90, 270),
            min_season=4,
        )
        assert params.max_period == 6  # ceil(1460 * 0.004)
        assert params.min_density == 8  # ceil(1460 * 0.005)
        assert params.min_season == 4

    def test_floors_at_one(self):
        params = MiningParams.from_percentages(
            n_granules=10,
            max_period_pct=0.1,
            min_density_pct=0.1,
            dist_interval=(0, 5),
            min_season=1,
        )
        assert params.max_period == 1
        assert params.min_density == 1

    def test_invalid_percentages(self):
        with pytest.raises(ConfigError):
            MiningParams.from_percentages(100, 0.0, 0.5, (0, 5), 1)
        with pytest.raises(ConfigError):
            MiningParams.from_percentages(0, 0.5, 0.5, (0, 5), 1)

    def test_custom_relation_config_passthrough(self):
        relation = RelationConfig(epsilon=2, min_overlap=3)
        params = MiningParams.from_percentages(
            100, 1.0, 1.0, (0, 5), 1, relation=relation
        )
        assert params.relation.epsilon == 2
        assert params.relation.min_overlap == 3


class TestWithUpdates:
    def test_sweep_helper(self):
        params = MiningParams(2, 3, (4, 10), 2)
        swept = params.with_updates(min_season=5)
        assert swept.min_season == 5
        assert swept.max_period == 2
        assert params.min_season == 2  # original untouched


class TestComputeBackend:
    """The numpy-optional compute-backend switch of the vectorized paths."""

    def test_validate_rejects_unknown(self):
        from repro.core.config import validate_compute_backend

        assert validate_compute_backend("auto") == "auto"
        with pytest.raises(ConfigError):
            validate_compute_backend("cupy")

    def test_python_backend_disables_numpy(self):
        from repro.core.config import (
            compute_backend,
            get_numpy,
            set_compute_backend,
        )

        previous = set_compute_backend("python")
        try:
            assert compute_backend() == "python"
            assert get_numpy() is None
        finally:
            set_compute_backend(previous)

    def test_environment_override(self, monkeypatch):
        from repro.core import config
        from repro.core.config import (
            COMPUTE_ENV_VAR,
            compute_backend,
            get_numpy,
            set_compute_backend,
        )

        previous = set_compute_backend(None)
        monkeypatch.setenv(COMPUTE_ENV_VAR, "python")
        monkeypatch.setattr(config, "_NUMPY_MODULE", ...)
        try:
            assert compute_backend() == "python"
            assert get_numpy() is None
        finally:
            set_compute_backend(previous)

    def test_numpy_backend_when_available(self):
        from repro.core.config import get_numpy, set_compute_backend

        try:
            import numpy  # noqa: F401
        except ImportError:
            pytest.skip("numpy not installed in this environment")
        previous = set_compute_backend("numpy")
        try:
            assert get_numpy() is not None
        finally:
            set_compute_backend(previous)
