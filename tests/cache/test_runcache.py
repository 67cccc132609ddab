"""Run-key semantics and the memoized DetTrace run path."""
import importlib
import sys

import pytest

from repro.cache import RunCache, run_key
from repro.cache.key import engine_digest
from repro.core import CacheConfig, ContainerConfig, DetTrace, Image, ablated
from repro.core.config import CheckpointConfig
from repro.cpu.machine import HASWELL_XEON, HostEnvironment

pytestmark = pytest.mark.cache


def _main(sys):
    yield from sys.println("hello")
    yield from sys.write_file("out.txt", b"artifact\n")
    return 0


def _image(program=_main) -> Image:
    image = Image()
    image.add_binary("/bin/main", program)
    return image


def _key(image=None, config=None, command="/bin/main", argv=None, host=None):
    return run_key(image if image is not None else _image(),
                   config or ContainerConfig(), command, argv,
                   host or HostEnvironment()).digest


class TestRunKey:
    def test_same_inputs_same_key(self):
        assert _key() == _key()

    def test_argv_changes_key(self):
        assert _key(argv=["main"]) != _key(argv=["main", "-v"])

    def test_config_seed_changes_key(self):
        assert (_key(config=ContainerConfig(prng_seed=1))
                != _key(config=ContainerConfig(prng_seed=2)))

    def test_image_content_changes_key(self):
        a = _image()
        a.add_file("/etc/extra", "one\n")
        b = _image()
        b.add_file("/etc/extra", "two\n")
        assert _key(image=a) != _key(image=b)

    def test_guest_program_edit_changes_key(self):
        def other(sys):
            yield from sys.println("HELLO")  # one byte of behaviour moved
            yield from sys.write_file("out.txt", b"artifact\n")
            return 0

        assert _key(image=_image(_main)) != _key(image=_image(other))

    def test_called_helper_edit_changes_key(self, tmp_path, monkeypatch):
        """A binary defined outside the package keys on its module's
        source: editing a helper it calls moves the key even though the
        binary's own code object is unchanged."""
        source = (
            "def helper():\n"
            "    return %r\n"
            "\n"
            "def main(sys):\n"
            "    yield from sys.println(helper())\n"
            "    return 0\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        keys = []
        for greeting in ("hello", "HELLO"):
            (tmp_path / "edited_guest.py").write_text(source % greeting)
            sys.modules.pop("edited_guest", None)
            importlib.invalidate_caches()
            module = importlib.import_module("edited_guest")
            keys.append(_key(image=_image(module.main)))
            keys.append(_key(image=_image(module.main)))
        sys.modules.pop("edited_guest", None)
        assert keys[0] == keys[1] and keys[2] == keys[3]
        assert keys[0] != keys[2]

    def test_engine_sources_are_in_the_key(self):
        components = run_key(_image(), ContainerConfig(), "/bin/main", None,
                             HostEnvironment()).components
        assert components["engine"] == engine_digest()
        assert len(components["engine"]) == 64

    def test_operational_knobs_do_not_change_key(self):
        # checkpoint + cache placement never changes what a run computes,
        # so neither may move its content address.
        plain = _key(config=ContainerConfig())
        assert plain == _key(config=ContainerConfig(
            cache=CacheConfig(directory="/somewhere", mode="verify")))
        assert plain == _key(config=ContainerConfig(
            checkpoint=CheckpointConfig(directory="/elsewhere", every=5)))

    def test_determinized_run_keys_ignore_the_boot(self):
        boot_a = HostEnvironment(entropy_seed=1, boot_epoch=1.6e9,
                                 pid_start=1000, inode_start=100_000)
        boot_b = HostEnvironment(entropy_seed=2, boot_epoch=1.7e9,
                                 pid_start=4321, inode_start=900_000)
        assert _key(host=boot_a) == _key(host=boot_b)

    def test_ablated_run_keys_include_the_boot(self):
        # With a determinism mechanism off the run may observe the boot:
        # the key must keep distinct boots apart.
        cfg = ablated("virtualize_time")
        boot_a = HostEnvironment(entropy_seed=1, boot_epoch=1.6e9)
        boot_b = HostEnvironment(entropy_seed=2, boot_epoch=1.7e9)
        assert _key(config=cfg, host=boot_a) != _key(config=cfg, host=boot_b)

    def test_machine_spec_always_in_key(self):
        assert (_key(host=HostEnvironment())
                != _key(host=HostEnvironment(machine=HASWELL_XEON)))


class TestMemoizedRun:
    def _cfg(self, directory, mode="write"):
        return ContainerConfig(cache=CacheConfig(directory=str(directory),
                                                 mode=mode))

    def test_store_then_hit_with_zero_execution(self, tmp_path):
        cfg = self._cfg(tmp_path)
        first = DetTrace(cfg).run(_image(), "/bin/main")
        assert first.cache["outcome"] == "store"
        assert first.cache["executed"] is True
        second = DetTrace(cfg).run(_image(), "/bin/main")
        assert second.cache["outcome"] == "hit"
        assert second.cache["executed"] is False
        assert second.cache["key"] == first.cache["key"]
        # The hit reproduces every deterministic surface bytewise.
        assert second.stdout == first.stdout
        assert second.stderr == first.stderr
        assert second.output_tree == first.output_tree
        assert second.exit_code == first.exit_code
        assert second.syscall_count == first.syscall_count

    def test_hit_metrics_carry_the_producing_runs_counters(self, tmp_path):
        cfg = self._cfg(tmp_path)
        first = DetTrace(cfg).run(_image(), "/bin/main")
        second = DetTrace(cfg).run(_image(), "/bin/main")
        assert second.metrics is not None
        # Disposition counters describe *this* lookup, not the stored run:
        assert second.metrics.counters.get("cache/hit") == 1
        assert "cache/store" not in second.metrics.counters
        # everything else is the producing run's deterministic snapshot.
        stripped = {name: n for name, n in first.metrics.counters.items()
                    if not name.startswith("cache/")}
        hit_stripped = {name: n for name, n in second.metrics.counters.items()
                        if not name.startswith("cache/")}
        assert hit_stripped == stripped

    def test_read_mode_never_stores(self, tmp_path):
        cfg = self._cfg(tmp_path, mode="read")
        result = DetTrace(cfg).run(_image(), "/bin/main")
        assert result.cache["outcome"] == "miss"
        assert result.cache["executed"] is True
        assert RunCache(str(tmp_path)).store.stats().keys == 0

    def test_read_mode_serves_hits(self, tmp_path):
        DetTrace(self._cfg(tmp_path)).run(_image(), "/bin/main")
        result = DetTrace(self._cfg(tmp_path, mode="read")).run(
            _image(), "/bin/main")
        assert result.cache["outcome"] == "hit"

    def test_off_mode_leaves_no_trace(self, tmp_path):
        result = DetTrace(self._cfg(tmp_path, mode="off")).run(
            _image(), "/bin/main")
        assert result.cache is None
        assert RunCache(str(tmp_path)).store.stats().keys == 0

    def test_failed_runs_are_not_cached(self, tmp_path):
        def spin(sys):
            while True:
                yield from sys.compute(1.0)

        cfg = ContainerConfig(timeout=0.5, busy_wait_budget=None,
                              cache=CacheConfig(directory=str(tmp_path)))
        result = DetTrace(cfg).run(_image(spin), "/bin/main")
        assert result.status != "ok"
        assert result.cache["outcome"] == "uncacheable"
        assert RunCache(str(tmp_path)).store.stats().keys == 0

    def test_verify_ok_re_executes_and_compares_clean(self, tmp_path):
        DetTrace(self._cfg(tmp_path)).run(_image(), "/bin/main")
        result = DetTrace(self._cfg(tmp_path, mode="verify")).run(
            _image(), "/bin/main")
        assert result.cache["outcome"] == "verify_ok"
        assert result.cache["executed"] is True

    def test_verify_miss_stores(self, tmp_path):
        result = DetTrace(self._cfg(tmp_path, mode="verify")).run(
            _image(), "/bin/main")
        assert result.cache["outcome"] == "store"
        assert RunCache(str(tmp_path)).store.stats().keys == 1

    def test_perturbed_entry_reported_as_divergence(self, tmp_path):
        cfg = self._cfg(tmp_path)
        DetTrace(cfg).run(_image(), "/bin/main")
        # Re-store a validly-checksummed but mutated outcome under the
        # same key — the supply-chain scenario verify mode exists for.
        rc = RunCache(str(tmp_path))
        key = rc.key_for(_image(), cfg, "/bin/main", None, HostEnvironment())
        entry = rc.lookup(key)
        entry.output_tree["out.txt"] = b"tampered\n"
        rc.store.put(key, entry)

        result = DetTrace(self._cfg(tmp_path, mode="verify")).run(
            _image(), "/bin/main")
        assert result.cache["outcome"] == "verify_mismatch"
        assert result.cache["differs"] == ["tree"]
        report = result.cache["report"]
        assert report.diverged
        assert report.classification == "fs-content"
        assert "out.txt" in report.format()
        # The fresh (correct) result is what the caller gets back.
        assert result.output_tree["out.txt"] == b"artifact\n"
        assert result.metrics.counters.get("cache/verify_mismatch") == 1

    def test_torn_entry_degrades_to_miss_then_restore(self, tmp_path):
        import os

        cfg = self._cfg(tmp_path)
        DetTrace(cfg).run(_image(), "/bin/main")
        objects = os.path.join(str(tmp_path), "objects")
        for name in os.listdir(objects):
            path = os.path.join(objects, name)
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) - 8)
        result = DetTrace(cfg).run(_image(), "/bin/main")
        assert result.cache["outcome"] == "store"  # miss → re-store
        assert DetTrace(cfg).run(_image(), "/bin/main").cache["outcome"] == "hit"

    def test_retry_attempts_bypass_the_cache(self, tmp_path):
        from repro.faults.plan import FaultPlan, FaultRule

        cfg = ContainerConfig(
            fault_plan=FaultPlan(rules=(
                FaultRule(fault="kill", at_tick=3, transient=True),)),
            cache=CacheConfig(directory=str(tmp_path)))
        result = DetTrace(cfg).run_supervised(_image(), "/bin/main")
        assert result.status == "retried"
        assert result.exit_code == 0
