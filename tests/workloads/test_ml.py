"""The TensorFlow analog (SS7.6)."""
import os
import subprocess
import sys

import pytest

import repro
from repro.cpu.machine import HASWELL_XEON, HostEnvironment
from repro.workloads.ml import (
    ALEXNET,
    CIFAR10,
    losses_of,
    run_dettrace,
    run_parallel_native,
    run_serial_native,
)


def host(seed, boot=0.0):
    return HostEnvironment(machine=HASWELL_XEON, entropy_seed=seed,
                           boot_epoch=1.7e9 + boot)


class TestTraining:
    def test_parallel_native_trains(self):
        r = run_parallel_native(CIFAR10, host=host(1))
        assert r.succeeded, (r.status, r.error)
        losses = losses_of(r)
        assert len(losses) == CIFAR10.steps
        assert all(line.startswith("step ") for line in losses)

    def test_serial_native_trains(self):
        r = run_serial_native(CIFAR10, host=host(1))
        assert r.succeeded
        assert len(losses_of(r)) == CIFAR10.steps

    def test_dettrace_trains(self):
        r = run_dettrace(CIFAR10, host=host(1))
        assert r.succeeded, (r.status, r.error)
        assert len(losses_of(r)) == CIFAR10.steps


class TestReproducibility:
    def test_parallel_native_losses_vary(self):
        a = run_parallel_native(CIFAR10, host=host(1))
        b = run_parallel_native(CIFAR10, host=host(2, boot=300.0))
        assert losses_of(a) != losses_of(b)

    def test_serialized_native_still_varies(self):
        """SS6.1: 'irreproducible when running natively, even with
        serialized TensorFlow' (the sampling seed)."""
        a = run_serial_native(CIFAR10, host=host(1))
        b = run_serial_native(CIFAR10, host=host(2, boot=300.0))
        assert losses_of(a) != losses_of(b)

    @pytest.mark.parametrize("cfg", [ALEXNET, CIFAR10],
                             ids=["alexnet", "cifar10"])
    def test_dettrace_losses_bit_identical(self, cfg):
        a = run_dettrace(cfg, host=host(1))
        b = run_dettrace(cfg, host=host(2, boot=300.0))
        assert losses_of(a) == losses_of(b)
        assert a.output_tree == b.output_tree


class TestPerformanceShape:
    def test_dettrace_much_slower_than_parallel_native(self):
        par = run_parallel_native(ALEXNET, host=host(1)).wall_time
        dt = run_dettrace(ALEXNET, host=host(1)).wall_time
        assert dt / par > 8.0   # paper: 17.49x

    def test_dettrace_close_to_serialized_native(self):
        ser = run_serial_native(CIFAR10, host=host(1)).wall_time
        dt = run_dettrace(CIFAR10, host=host(1)).wall_time
        assert dt / ser < 1.6   # paper: 1.08x

    def test_alexnet_overhead_exceeds_cifar10(self):
        """alexnet synchronizes more per unit compute (SS7.6 ordering)."""
        ratios = {}
        for cfg in (ALEXNET, CIFAR10):
            ser = run_serial_native(cfg, host=host(1)).wall_time
            dt = run_dettrace(cfg, host=host(1)).wall_time
            ratios[cfg.name] = dt / ser
        assert ratios["alexnet"] > ratios["cifar10"]


def test_importing_the_program_leaves_numpy_unloaded():
    """Only the TF analog's guest code needs numpy; importing the
    package (the TF module included) must not load it."""
    code = ("import sys\n"
            "import repro.core, repro.cache, repro.ckpt\n"
            "import repro.workloads.debian, repro.workloads.bioinf\n"
            "import repro.workloads.ml\n"
            "print('numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
