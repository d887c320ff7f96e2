import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceralab.errors import DomainError
from ceralab.tasks import (VOCAB, detect_state_collapse, linear_floor,
                           linear_floor_xr, logistic_map, logistic_map_table,
                           make_teacher_task, nonlinear_teacher,
                           tokenize_trajectory, trajectory_sequences)
from ceralab.tensor import stream

TABLE_GOLDEN = [0.84, 0.4704, 0.8719, 0.3909, 0.8333]


def test_logistic_map_first_steps():
    traj = logistic_map(3.5, 0.4, 2)
    assert traj[1] == pytest.approx(0.84, abs=1e-12)
    assert traj[2] == pytest.approx(0.4704, abs=1e-12)


def test_logistic_table_matches_printed_trajectory():
    traj = logistic_map_table(3.5, 0.4, 5)
    assert np.max(np.abs(traj[1:] - TABLE_GOLDEN)) < 5e-5
    assert [format(v, ".4f") for v in traj] == \
        ["0.4000", "0.8400", "0.4704", "0.8719", "0.3909", "0.8333"]


def test_logistic_map_fixed_point_zero():
    assert np.all(logistic_map(3.5, 0.0, 10) == 0.0)


def test_logistic_map_domain_errors():
    for fn in (logistic_map, logistic_map_table):
        for args, message in (((4.5, 0.4, 3), "growth rate"), ((3.5, -0.1, 3), "x0"),
                              ((3.5, 1.5, 3), "x0"), ((3.5, 0.4, -1), "n must be >= 0")):
            with pytest.raises(DomainError, match=message):
                fn(*args)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=4.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=50))
def test_logistic_map_stays_in_unit_interval(r, x0, n):
    traj = logistic_map(r, x0, n)
    assert np.all((traj >= 0.0) & (traj <= 1.0))


def test_tokenize_round_trip():
    traj = logistic_map_table(3.7, 0.21, 6)
    text = "".join(VOCAB[i] for i in tokenize_trajectory(traj))
    values = [float(part) for part in text.split(",")]
    assert np.max(np.abs(np.asarray(values) - np.round(traj, 4))) < 1e-12


def test_trajectory_dataset_deterministic():
    a_train, a_test = trajectory_sequences(seed=5, count=20, n_steps=6)
    b_train, b_test = trajectory_sequences(seed=5, count=20, n_steps=6)
    assert np.array_equal(a_train.inputs, b_train.inputs)
    assert np.array_equal(a_test.targets, b_test.targets)
    c_train, _ = trajectory_sequences(seed=6, count=20, n_steps=6)
    assert not np.array_equal(a_train.inputs, c_train.inputs)


def test_trajectory_split_sizes_and_disjoint():
    train, test = trajectory_sequences(seed=7, count=20, n_steps=6)
    assert len(train) == 16 and len(test) == 4
    train_rows = {row.tobytes() for row in train.inputs}
    test_rows = {row.tobytes() for row in test.inputs}
    assert not train_rows & test_rows


def test_ground_truth_has_no_state_collapse():
    traj = logistic_map_table(3.5, 0.4, 10)
    collapsed, _ = detect_state_collapse(traj)
    assert not collapsed


def test_state_collapse_detection():
    collapsed, value = detect_state_collapse([0.84, 0.8719, 0.8719, 0.8719])
    assert collapsed and value == pytest.approx(0.8719)
    collapsed, _ = detect_state_collapse(np.zeros(5))
    assert collapsed


def test_two_step_repeat_not_flagged():
    collapsed, _ = detect_state_collapse([0.5, 0.5, 0.7, 0.7, 0.1])
    assert not collapsed


def test_teacher_deterministic_and_zero_at_origin():
    t1 = nonlinear_teacher(3, 8, 4)
    t2 = nonlinear_teacher(3, 8, 4)
    assert np.array_equal(t1.u, t2.u) and np.array_equal(t1.v, t2.v)
    assert np.allclose(t1(np.zeros((2, 8))), 0.0)


def test_teacher_is_non_affine():
    teacher = nonlinear_teacher(4, 8, 4)
    rng = stream(5, 0)
    a, b = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
    gap = np.max(np.abs(teacher(a) + teacher(b) - teacher(a + b)))
    assert gap > 1e-3


def frozen_linear(w):
    return lambda x: x @ w.T


def test_linear_floor_of_linear_teacher_is_zero():
    # hidden gain 0 -> teacher output identically zero -> residual zero
    teacher = nonlinear_teacher(6, 16, 4)
    teacher.v[:] = 0.0
    w = stream(7, 0).normal(size=(4, 16))
    task = make_teacher_task(frozen_linear(w), teacher, 16,
                             n_train=128, n_test=64, seed=8)
    assert linear_floor(task) < 1e-10


def test_linear_floor_constant_residual_oracle():
    # symmetric zero-mean inputs and a constant residual: X^T R = 0 exactly,
    # so the through-origin fit is L = 0 and the floor is mean ||R||^2
    rng = stream(9, 0)
    half = rng.normal(size=(64, 6))
    x_train = np.vstack([half, -half])
    const = np.full((128, 3), 0.7)
    x_test = rng.normal(size=(32, 6))
    r_test = np.full((32, 3), 0.7)
    floor = linear_floor_xr(x_train, const, x_test, r_test)
    assert floor == pytest.approx(np.mean(r_test ** 2), rel=1e-9)


def test_linear_floor_strictly_positive_for_default_task():
    teacher = nonlinear_teacher(13, 32, 8, hidden=16)
    w = stream(14, 0).normal(size=(8, 32))
    task = make_teacher_task(frozen_linear(w), teacher, 32,
                             n_train=256, n_test=128, seed=15)
    assert linear_floor(task) > 1e-3  # far above measurement tolerance


def test_teacher_task_residual_share():
    teacher = nonlinear_teacher(16, 32, 8, hidden=16)
    w = stream(17, 0).normal(size=(8, 32))
    task = make_teacher_task(frozen_linear(w), teacher, 32, n_train=512,
                             n_test=256, seed=18, residual_share=0.25)
    res_var = np.concatenate([task.residual_train, task.residual_test]).var()
    tgt_var = np.concatenate([task.train.targets, task.test.targets]).var()
    assert res_var / tgt_var == pytest.approx(0.25, rel=0.15)


def test_teacher_task_split_disjoint_and_deterministic():
    teacher = nonlinear_teacher(19, 16, 4, hidden=8)
    w = stream(20, 0).normal(size=(4, 16))
    t1 = make_teacher_task(frozen_linear(w), teacher, 16, 64, 32, seed=21)
    t2 = make_teacher_task(frozen_linear(w), teacher, 16, 64, 32, seed=21)
    assert np.array_equal(t1.train.inputs, t2.train.inputs)
    train_rows = {r.tobytes() for r in t1.train.inputs}
    test_rows = {r.tobytes() for r in t1.test.inputs}
    assert not train_rows & test_rows
