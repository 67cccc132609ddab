"""TensorFlow analog: threaded SGD training (paper §7.6).

The model is a small linear regressor trained with minibatch SGD.  Like
real TensorFlow on CPU, each step fans a batch of shards out to a worker
thread pool; workers accumulate gradients into a shared float32 buffer
under a futex lock.  The two native irreproducibility sources the paper
calls out are both present:

* the training batch is sampled with an RNG seeded from ``/dev/urandom``
  and the wall clock — different every run;
* gradient accumulation order depends on thread scheduling, and float32
  addition is not associative — so even *serialized* native runs differ
  (via sampling), and parallel runs differ more.

Under DetTrace, the PRNG and logical clock pin the sampling and thread
serialization pins the accumulation order: the recorded per-step loss
values become bit-identical across runs, with no code changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional

from ...core.config import ContainerConfig
from ...core.container import ContainerResult, DetTrace, NativeRunner
from ...core.image import Image
from ...cpu.machine import HASWELL_XEON, HostEnvironment
from ...guest.program import with_args
from ...kernel.errors import Errno, SyscallError

# Only the guest code needs numpy, so only it imports numpy: importing
# ``repro.workloads`` should not pay for it.
if TYPE_CHECKING:
    import numpy as np

LOSS_FILE = "losses.txt"


@dataclasses.dataclass(frozen=True)
class TfConfig:
    """One training workload (the paper uses the alexnet and cifar10
    tutorials; these configs mirror their relative compute/lock mix)."""

    name: str
    steps: int = 6
    shards_per_step: int = 32
    #: Compute work per gradient shard (reference seconds).
    shard_work: float = 1.0e-3
    #: Extra lock round-trips per shard (alexnet's op graph synchronizes
    #: more per unit of compute than cifar10's).
    lock_rounds: int = 2
    #: Serial work the main thread does per step (sampling, weight update).
    serial_work: float = 1.0e-3
    features: int = 16
    threads: int = 16
    learning_rate: float = 0.05


ALEXNET = TfConfig(name="alexnet", shards_per_step=64, shard_work=6.0e-4,
                   lock_rounds=4, serial_work=1.0e-3)
CIFAR10 = TfConfig(name="cifar10", shard_work=1.6e-3, lock_rounds=1,
                   serial_work=1.4e-3)


def _dataset(cfg: TfConfig) -> np.ndarray:
    """Deterministic synthetic training data (an *input*)."""
    import numpy as np

    seed = int.from_bytes(hashlib.sha256(cfg.name.encode()).digest()[:4], "big")
    rng = np.random.RandomState(seed)
    return rng.standard_normal((256, cfg.features)).astype(np.float32)


def _xorshift(state: int) -> int:
    state ^= (state << 13) & 0xFFFFFFFFFFFFFFFF
    state ^= state >> 7
    state ^= (state << 17) & 0xFFFFFFFFFFFFFFFF
    return state & 0xFFFFFFFFFFFFFFFF


def _sample_indices(seed: int, n: int, count: int) -> List[int]:
    out = []
    state = seed or 1
    for _ in range(count):
        state = _xorshift(state)
        out.append(state % n)
    return out


def _shard_gradient(data: np.ndarray, weights: np.ndarray,
                    indices: List[int]) -> np.ndarray:
    """Least-squares gradient for one shard, in float32."""
    import numpy as np

    x = data[indices]
    target = np.float32(1.0)
    err = (x @ weights) - target
    return (x.T @ err).astype(np.float32) / np.float32(len(indices))


def tf_worker(sys, cfg: TfConfig, shard_indices):
    """One pool thread: drain the shard queue, accumulate gradients."""
    import numpy as np

    data = sys.mem["tf_data"]
    weights = sys.mem["tf_weights"]
    while True:
        yield from sys.lock_acquire("tf_queue_lock")
        queue = sys.mem["tf_queue"]
        shard = queue.pop() if queue else None
        yield from sys.lock_release("tf_queue_lock")
        if shard is None:
            break
        grad = _shard_gradient(data, weights, shard)
        yield from sys.compute(cfg.shard_work)
        for _ in range(max(0, cfg.lock_rounds - 1)):
            yield from sys.lock_acquire("tf_queue_lock")
            yield from sys.lock_release("tf_queue_lock")
        yield from sys.lock_acquire("tf_accum_lock")
        # float32 accumulation: order-sensitive rounding.
        sys.mem["tf_grad"] = (sys.mem["tf_grad"] + grad).astype(np.float32)
        sys.mem["tf_done"] += 1
        done = sys.mem["tf_done"]
        yield from sys.lock_release("tf_accum_lock")
        if done == sys.mem["tf_total"]:
            # Proper futex protocol: bump the futex word, then wake, so
            # the waiter's value check closes the lost-wakeup window.
            sys.mem["tf_step_done"] = sys.mem.get("tf_step_done", 0) + 1
            yield from sys.futex_wake("tf_step_done")
    return 0


def tf_main(sys, cfg: TfConfig):
    """The training driver."""
    import numpy as np

    data = _dataset(cfg)
    sys.mem["tf_data"] = data
    weights = np.zeros(cfg.features, dtype=np.float32)
    losses: List[bytes] = []
    for step in range(cfg.steps):
        # Irreproducible batch sampling: urandom + wall clock seed.
        rnd = yield from sys.urandom(8)
        t = yield from sys.gettimeofday()
        seed = int.from_bytes(rnd, "little") ^ int(t * 1e6)
        batch = _sample_indices(seed, len(data), cfg.shards_per_step * 8)
        shards = [batch[i::cfg.shards_per_step] for i in range(cfg.shards_per_step)]
        yield from sys.compute(cfg.serial_work)

        sys.mem["tf_weights"] = weights
        sys.mem["tf_grad"] = np.zeros(cfg.features, dtype=np.float32)
        sys.mem["tf_done"] = 0
        sys.mem["tf_total"] = len(shards)

        if cfg.threads <= 1:
            for shard in shards:
                grad = _shard_gradient(data, weights, shard)
                yield from sys.compute(cfg.shard_work)
                sys.mem["tf_grad"] = (sys.mem["tf_grad"] + grad).astype(np.float32)
        else:
            sys.mem["tf_queue"] = list(shards)
            for _ in range(cfg.threads):
                yield from sys.spawn_thread(
                    with_args(tf_worker, cfg, None))
            while sys.mem["tf_done"] < sys.mem["tf_total"]:
                observed = sys.mem.get("tf_step_done", 0)
                if sys.mem["tf_done"] >= sys.mem["tf_total"]:
                    break
                try:
                    yield from sys.futex_wait("tf_step_done", observed)
                except SyscallError as err:
                    if err.errno != Errno.EAGAIN:
                        raise

        grad = sys.mem["tf_grad"]
        weights = (weights - np.float32(cfg.learning_rate) * grad).astype(np.float32)
        x = data[batch[:64]]
        err = (x @ weights) - np.float32(1.0)
        loss = float(np.float32(np.mean(err * err)))
        line = b"step %d loss %.9g\n" % (step, loss)
        losses.append(line)
        yield from sys.write(1, line)
    yield from sys.write_file(LOSS_FILE, b"".join(losses))
    return 0


def tf_image(cfg: TfConfig) -> Image:
    img = Image()
    img.add_binary("/usr/bin/tensorflow", with_args(tf_main, cfg))
    return img


def _host(seed: int = 0) -> HostEnvironment:
    return HostEnvironment(machine=HASWELL_XEON, entropy_seed=seed)


def run_parallel_native(cfg: TfConfig,
                        host: Optional[HostEnvironment] = None) -> ContainerResult:
    return NativeRunner().run(tf_image(cfg), "/usr/bin/tensorflow",
                              host=host or _host())


def run_serial_native(cfg: TfConfig,
                      host: Optional[HostEnvironment] = None) -> ContainerResult:
    serial = dataclasses.replace(cfg, threads=1)
    return NativeRunner().run(tf_image(serial), "/usr/bin/tensorflow",
                              host=host or _host())


def run_dettrace(cfg: TfConfig, host: Optional[HostEnvironment] = None,
                 config: Optional[ContainerConfig] = None) -> ContainerResult:
    return DetTrace(config or ContainerConfig()).run(
        tf_image(cfg), "/usr/bin/tensorflow", host=host or _host())


def losses_of(result: ContainerResult) -> List[str]:
    data = result.output_tree.get(LOSS_FILE, b"")
    return data.decode().splitlines()
