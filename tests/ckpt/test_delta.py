"""Incremental checkpoints: delta-chain layout, torn-chain fallback,
full-vs-delta equivalence, and the incremental Merkle fingerprints.

The properties under test:

* the journal interleaves full and delta snapshots on the configured
  ``full_every`` cadence, each delta naming its base by payload sha256;
* truncating a delta — or the *full base* under a chain — makes
  recovery fall back to the newest fully-valid chain, and the resumed
  run stays byte-identical to a never-interrupted one;
* a ``full_every=1`` journal and a delta journal of the same run
  fingerprint equal barrier-for-barrier (materialization is lossless);
* the Merkle cursor advanced along a chain produces exactly the
  fingerprint a from-scratch computation of the materialized payload
  does;
* pruning never orphans a kept delta.
"""

import os

import pytest

from repro.ckpt import (
    FULL_SCOPE,
    GUEST_SCOPE,
    RecoveryManager,
    prune,
    scan,
)
from repro.core import DetTrace
from repro.cpu.machine import HostEnvironment

from .conftest import ckpt_config, ckpt_image, result_fp, run_baseline

pytestmark = pytest.mark.ckpt


def _crash(journal_dir, tick=100, **cfg_kwargs):
    cfg = ckpt_config(journal_dir, tick=tick, **cfg_kwargs)
    crashed = DetTrace(cfg).run(ckpt_image(), "/bin/main",
                                host=HostEnvironment(entropy_seed=7))
    assert crashed.status == "crashed", (crashed.status, crashed.error)
    return cfg


def _truncate(path):
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 20)


class TestChainLayout:
    def test_full_and_delta_cadence(self, journal_dir):
        _crash(journal_dir, every=7, full_every=4, keep=0)
        infos = list(reversed(scan(journal_dir)))  # oldest first
        assert len(infos) >= 12
        assert all(info.valid and info.chain_valid for info in infos)
        by_sha = {info.payload_sha256: info for info in infos}
        for i, info in enumerate(infos):
            if i % 4 == 0:
                assert info.snapshot_kind == "full", info.barrier
                assert info.chain_depth == 0
                assert info.base_sha256 == ""
            else:
                assert info.snapshot_kind == "delta", info.barrier
                assert info.chain_depth == i % 4
                base = by_sha[info.base_sha256]
                assert base.barrier == infos[i - 1].barrier

    def test_deltas_are_much_smaller_than_fulls(self, journal_dir):
        _crash(journal_dir, every=7, full_every=4, keep=0)
        infos = scan(journal_dir)
        fulls = [i.payload_len for i in infos if i.snapshot_kind == "full"]
        deltas = [i.payload_len for i in infos if i.snapshot_kind == "delta"]
        assert fulls and deltas
        # The workload writes a handful of files between barriers while
        # holding hundreds of inodes: deltas must not re-carry the tree.
        assert max(deltas) < min(fulls)

    def test_full_every_one_writes_only_fulls(self, journal_dir):
        _crash(journal_dir, every=7, full_every=1, keep=0)
        infos = scan(journal_dir)
        assert infos
        assert all(i.snapshot_kind == "full" for i in infos)


class TestTornChains:
    def test_torn_delta_falls_back_and_resumes_identically(
            self, journal_dir):
        baseline = run_baseline()
        cfg = _crash(journal_dir, every=7, full_every=4, keep=0)
        infos = scan(journal_dir)  # newest first
        newest = infos[0]
        assert newest.snapshot_kind == "delta"
        _truncate(newest.path)
        recovery = RecoveryManager(journal_dir)
        latest = recovery.latest()
        assert latest is not None
        assert latest.barrier == infos[1].barrier
        resumed = DetTrace(cfg).resume(ckpt_image(), "/bin/main")
        assert resumed.status == "resumed", (resumed.status, resumed.error)
        assert result_fp(resumed) == result_fp(baseline)

    def test_torn_base_invalidates_chain_and_resumes_identically(
            self, journal_dir):
        baseline = run_baseline()
        cfg = _crash(journal_dir, every=7, full_every=4, keep=0)
        infos = list(reversed(scan(journal_dir)))  # oldest first
        fulls = [i for i in infos if i.snapshot_kind == "full"]
        assert len(fulls) >= 2
        # Tear the newest full base: every delta chained on it becomes
        # unmaterializable, so recovery must fall back to the last
        # snapshot of the *previous* chain.
        _truncate(fulls[-1].path)
        rescan = scan(journal_dir)
        broken = [i for i in rescan
                  if i.valid and not i.chain_valid]
        assert broken, "deltas over the torn base must be chain-broken"
        latest = RecoveryManager(journal_dir).latest()
        assert latest is not None
        assert latest.barrier < fulls[-1].barrier
        assert latest.snapshot_kind == "delta"
        resumed = DetTrace(cfg).resume(ckpt_image(), "/bin/main")
        assert resumed.status == "resumed", (resumed.status, resumed.error)
        assert result_fp(resumed) == result_fp(baseline)


class TestEquivalence:
    def test_delta_journal_fingerprints_equal_full_journal(
            self, tmp_path):
        fps = {}
        for label, full_every in (("full", 1), ("delta", 5)):
            directory = str(tmp_path / label)
            _crash(directory, every=7, full_every=full_every, keep=0)
            recovery = RecoveryManager(directory)
            fps[label] = {
                scope: recovery.chain_fingerprints(scope=scope)
                for scope in (GUEST_SCOPE, FULL_SCOPE)}
        for scope in (GUEST_SCOPE, FULL_SCOPE):
            assert fps["full"][scope] == fps["delta"][scope], scope

    def test_cursor_matches_from_scratch_fingerprints(self, journal_dir):
        _crash(journal_dir, every=7, full_every=4, keep=0)
        recovery = RecoveryManager(journal_dir)
        for scope in (GUEST_SCOPE, FULL_SCOPE):
            incremental = recovery.chain_fingerprints(scope=scope)
            scratch = {snap.barrier: snap.fingerprint(scope=scope)
                       for snap in recovery.snapshots()}
            assert {b: fp for b, (fp, _v) in incremental.items()} == scratch

    def test_guest_and_full_scopes_differ(self, journal_dir):
        _crash(journal_dir, every=7, full_every=4, keep=0)
        recovery = RecoveryManager(journal_dir)
        guest = recovery.chain_fingerprints(scope=GUEST_SCOPE)
        full = recovery.chain_fingerprints(scope=FULL_SCOPE)
        for barrier in guest:
            assert guest[barrier][0] != full[barrier][0]


class TestPrune:
    def test_prune_keeps_transitive_base_closure(self, journal_dir):
        _crash(journal_dir, every=7, full_every=4, keep=0)
        removed = prune(journal_dir, keep=1)
        assert removed
        infos = scan(journal_dir)
        assert infos
        assert all(i.chain_valid for i in infos)
        # The newest snapshot is a delta; its whole chain down to the
        # full base must have survived, so it still materializes.
        info, payload = RecoveryManager(journal_dir).load()
        assert payload["kind"] == "repro.ckpt.payload"
        assert info.barrier == max(i.barrier for i in infos)


class TestJournalBytes:
    def test_identical_builds_write_identical_journals(self, tmp_path,
                                                       monkeypatch):
        """A journal is a pure function of the run: two identical
        checkpointed package builds in one interpreter write the same
        bytes, open-file records included."""
        from repro.core import ContainerConfig
        from repro.core.config import CheckpointConfig
        from repro.faults.plan import FaultPlan, FaultRule
        from repro.kernel.pipes import Pipe
        from repro.repro_tools import first_build_host
        from repro.workloads.debian import (
            TOOLS,
            generate_population,
            package_image,
        )

        spec = [s for s in generate_population(12, seed=33)
                if not s.expect_dt_unsupported and not s.syscall_storm][0]
        journals = []
        for run in range(2):
            directory = str(tmp_path / ("journal%d" % run))
            # Pipe ids come from a process-global counter (see
            # snapshot._canonical_maps): start both runs from one value.
            monkeypatch.setattr(Pipe, "_counter", 0)
            cfg = ContainerConfig(
                fault_plan=FaultPlan(rules=(FaultRule(
                    fault="kill", at_tick=300, transient=True),)),
                checkpoint=CheckpointConfig(directory=directory, every=20,
                                            keep=0, full_every=4))
            killed = DetTrace(cfg).run(
                package_image(spec), TOOLS["driver"],
                argv=["dpkg-buildpackage", spec.name],
                host=first_build_host())
            assert killed.status == "crashed"
            files = {}
            for name in sorted(os.listdir(directory)):
                with open(os.path.join(directory, name), "rb") as fh:
                    files[name] = fh.read()
            journals.append(files)
        assert len(journals[0]) > 5
        assert journals[0] == journals[1]


class TestRecoveryReads:
    @pytest.mark.parametrize("operation", ["load", "snapshots",
                                           "chain_fingerprints"])
    def test_each_journal_file_is_read_once(self, journal_dir, monkeypatch,
                                            operation):
        from repro.ckpt import journal

        _crash(journal_dir, every=7, full_every=4, keep=0)
        files = sorted(os.listdir(journal_dir))
        assert len(files) >= 8
        reads = []
        real_load = journal.load_snapshot

        def counting(path, fingerprint=None):
            reads.append(os.path.basename(path))
            return real_load(path, fingerprint=fingerprint)

        monkeypatch.setattr(journal, "load_snapshot", counting)
        getattr(RecoveryManager(journal_dir), operation)()
        assert sorted(reads) == files

    def test_torn_delta_is_read_once_and_skipped(self, journal_dir,
                                                 monkeypatch):
        from repro.ckpt import journal

        _crash(journal_dir, every=7, full_every=4, keep=0)
        newest = scan(journal_dir)[0]
        assert newest.snapshot_kind == "delta"
        _truncate(newest.path)
        reads = []
        real_load = journal.load_snapshot

        def counting(path, fingerprint=None):
            reads.append(path)
            return real_load(path, fingerprint=fingerprint)

        monkeypatch.setattr(journal, "load_snapshot", counting)
        info, _payload = RecoveryManager(journal_dir).load()
        assert info.barrier < newest.barrier
        assert reads.count(newest.path) == 1
        assert len(reads) == len(os.listdir(journal_dir))
