"""The stabilized BO harness: budgets nested in one trajectory, frozen selections."""

import numpy as np
import pytest

from gprates.bayesopt import BOConfig, run_gamma_F_n
from gprates.designs import gen_grid
from gprates.errors import ConfigurationError
from gprates.experiments import config_from_dict, run_bo_experiment

# a7's kernel, target and strategy on 512 candidates; from step 51 on, the
# masked expected improvement is exactly 0 on every stabilized candidate, so
# budget 64 also checks that ties break to the first maximizer
SMALL_BO = {
    "kind": "bo", "name": "small_bo", "seed": 1,
    "kernel": {"tau": 2.5, "lengthscale": 0.15, "amplitude": 1.0, "dim": 1},
    "target": {"name": "peaks3"},
    "design": {"kind": "grid", "candidate_resolution": 512},
    "bo": {"gamma": 0.3, "budgets": [8, 16, 32, 64]},
}

# recorded with the code that refitted at every step and ran each budget on
# its own: the 62 trace points of budget 64 (each budget's trace is a prefix)
TRACE_X = [
    0.6025390625, 0.7314453125, 0.4892578125, 0.9990234375, 0.2119140625,
    0.2841796875, 0.1435546875, 0.6376953125, 0.8857421875, 0.3603515625,
    0.2451171875, 0.5712890625, 0.8349609375, 0.9287109375, 0.0751953125,
    0.1845703125, 0.4208984375, 0.6748046875, 0.3134765625, 0.5361328125,
    0.1123046875, 0.7802734375, 0.0361328125, 0.1650390625, 0.8681640625,
    0.9677734375, 0.2607421875, 0.6201171875, 0.4541015625, 0.2275390625,
    0.8564453125, 0.3896484375, 0.5888671875, 0.3349609375, 0.7021484375,
    0.6533203125, 0.8056640625, 0.2001953125, 0.5146484375, 0.2978515625,
    0.7548828125, 0.2724609375, 0.5556640625, 0.0947265625, 0.9482421875,
    0.0166015625, 0.9052734375, 0.1298828125, 0.0556640625, 0.0244140625,
    0.0458984375, 0.0830078125, 0.1513671875, 0.3212890625, 0.3408203125,
    0.3662109375, 0.3740234375, 0.3955078125, 0.1748046875, 0.4033203125,
    0.4267578125, 0.4345703125,
]
# (n, x_final, regret, sup_error, rho_selected, certificate_ok)
RUNS = [
    (8, 0.2177734375, 0.13288831328174722, 1.139079562112927, 3.675675675675676, True),
    (16, 0.2294921875, 0.12245395596801723, 0.46007364027575637, 4.5, True),
    (32, 0.8662109375, 0.0607559694270946, 0.32668054604600494, 3.75, True),
    (64, 0.8701171875, 0.0029632925815058497, 0.02382094870014942, 6.0, True),
]


def test_budgets_frozen():
    result = run_bo_experiment(config_from_dict(SMALL_BO))
    assert len(result["runs"]) == len(RUNS)
    for run, (n, x_final, regret, sup_error, rho, cert) in zip(result["runs"], RUNS):
        assert run["n"] == n
        assert [row["x"] for row in run["trace"]] == [[x] for x in TRACE_X[: n - 2]]
        assert run["x_final"] == [x_final]
        assert run["regret"] == regret
        assert run["sup_error"] == sup_error
        assert run["rho_selected"] == rho
        assert run["certificate_ok"] is cert


def _trajectory(n):
    cfg = config_from_dict(SMALL_BO)
    bo = BOConfig(gamma=0.3, n=n, kernel=cfg.kernel_for(0),
                  candidates=gen_grid(512, cfg.domain))
    return run_gamma_F_n(cfg.target, bo)


def test_budget_result_is_the_trajectory_prefix():
    trajectory = _trajectory(12)
    assert len(trajectory.trace) == 10
    res = trajectory.result(7)
    assert res.trace == trajectory.trace[:5]
    assert len(res.selected) == 6
    np.testing.assert_array_equal(res.selected.points[1:, 0], [r["x"][0] for r in res.trace])


@pytest.mark.parametrize("n", [1, 13])
def test_budget_outside_the_trajectory_is_rejected(n):
    with pytest.raises(ConfigurationError):
        _trajectory(12).result(n)
