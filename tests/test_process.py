"""What importing ceralab sets for the process: a heap top pad, so that a
language-model step stops faulting its freed memory back in, and one BLAS
thread unless the caller chose a count; and what it does not load. Each
check runs in a fresh interpreter, so that neither earlier tests nor
pytest's own imports have shaped its heap or loaded numpy and the stdlib."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# 10 warm-up and 20 measured cera r=16 steps at the bench's trajectory
# shape; prints the minor faults per measured step
FAULT_PROBE = """
import resource
from ceralab import experiments, trainer
from ceralab.tensor import stream

model = {"d_model": 64, "n_heads": 4, "d_head": 16, "n_layers": 2,
         "vocab_size": 12, "max_seq_len": 64, "v_out_dim": 32,
         "mode": "language_model"}
method = {"name": "cera", "kind": "cera", "targets": ["Wq", "Wv"]}
_, bundle, backbone = experiments._build_run(
    {"task_id": "logistic_trajectories", "method": method, "rank": 16,
     "seed": 1, "model": model})
cfg = trainer.TrainConfig(steps=30, batch_size=8)
opt = trainer.adamw_state(list(backbone.adapters.values()))
batch_rng, drop_rng = stream(0, 0, 1), stream(0, 0, 2)
for t in range(cfg.steps):
    if t == 10:
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    idx = batch_rng.integers(0, len(bundle.train), cfg.batch_size)
    _, pullback = trainer._batch_loss(backbone, bundle.train, idx, drop_rng, None)
    pullback(opt.grads)
    trainer.clip_global_norm(opt, cfg.grad_clip)
    trainer.adamw_step(opt, trainer.cosine_lr(t, cfg), cfg)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / (cfg.steps - 10))
"""


def run_fresh(code: str, **env_changes) -> str:
    """stdout of `code` in a new interpreter that finds ceralab in src/;
    a None value removes that variable."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for key, value in env_changes.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
def test_a_language_model_step_does_not_fault_its_heap_back_in():
    # without the pad each step faulted about 2,200 pages back in
    faults = float(run_fresh(FAULT_PROBE))
    assert faults < 50, f"{faults} minor faults per step"


def test_blas_defaults_to_one_thread_and_a_caller_count_wins():
    show = ("import os, ceralab, numpy; "
            f"print(' '.join(os.environ[v] for v in {BLAS_VARS!r}))")
    assert run_fresh(show, **dict.fromkeys(BLAS_VARS)).split() == ["1", "1", "1"]
    kept = run_fresh(show, **dict(dict.fromkeys(BLAS_VARS), OPENBLAS_NUM_THREADS="2"))
    assert kept.split() == ["2", "1", "1"]


def test_import_loads_no_network_or_xml_stack():
    # xml.sax.saxutils alone pulled in urllib.request, http.client, email,
    # ssl and socket: about 30 ms of a cold import
    heavy = ("http.client", "email", "ssl", "xml.sax")
    show = f"import sys, ceralab; print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    assert run_fresh(show).split() == []
