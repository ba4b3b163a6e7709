"""SystemConfig and CostModel validation."""

import pytest

from repro.errors import ConfigurationError
from repro.system.config import SystemConfig
from repro.system.costs import CostModel


def test_defaults_are_paper_experiment1():
    config = SystemConfig()
    assert config.db_size == 50
    assert config.num_sites == 4
    assert config.max_txn_size == 10
    config.validate()


def test_site_and_item_ids():
    config = SystemConfig(num_sites=3, db_size=5)
    assert config.site_ids == [0, 1, 2]
    assert config.manager_id == 3
    assert config.item_ids == [0, 1, 2, 3, 4]


def test_paper_presets():
    assert SystemConfig.paper_experiment2().num_sites == 2
    assert SystemConfig.paper_experiment2().max_txn_size == 5
    assert SystemConfig.paper_experiment3_scenario2().num_sites == 4
    assert SystemConfig.paper_experiment3_scenario2().max_txn_size == 5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"db_size": 0},
        {"num_sites": 0},
        {"max_txn_size": 0},
        {"write_probability": 1.5},
        {"batch_threshold": -0.1},
        {"batch_size": 0},
        {"cores": 0},
        {"wire_latency_ms": -1.0},
        {"failure_detect_delay_ms": -1.0},
    ],
)
def test_validation_rejects(kwargs):
    with pytest.raises(ConfigurationError):
        SystemConfig(**kwargs).validate()


def test_cost_model_communication_is_nine_ms():
    assert CostModel().communication_cost == pytest.approx(9.0)


def test_cost_model_takes_no_overrides():
    with pytest.raises(TypeError):
        CostModel(msg_send_cost=1.0)


def test_cost_model_size_dependent_costs_grow():
    costs = CostModel()
    assert costs.control1_format_cost(100) > costs.control1_format_cost(50)
    assert costs.control1_install_cost(100) > costs.control1_install_cost(50)
    assert costs.copy_response_cost(3) > costs.copy_response_cost(1)
    assert costs.faillock_maintenance_cost(4, 4) == pytest.approx(
        4 * 4 * costs.faillock_bit_cost
    )
