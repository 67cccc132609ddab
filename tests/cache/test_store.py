"""The CAS layer: atomic entries, torn-write detection, refcounted gc."""
import multiprocessing
import os
import sys
import threading

import pytest

from repro.cache import CachedOutcome, CacheStore, RunKey

pytestmark = pytest.mark.cache


def outcome(stdout="hello\n", tree=None) -> CachedOutcome:
    return CachedOutcome(
        status="ok", exit_code=0, error="", stdout=stdout, stderr="",
        output_tree=tree if tree is not None else {"out.txt": b"artifact\n"},
        syscall_count=12, wall_time=0.5,
        digests={"tree": "t", "stdout_sha256": "s", "stderr_sha256": "e"})


def key(n=0) -> RunKey:
    return RunKey(digest="%064x" % (0xABC0 + n))


@pytest.fixture
def store(tmp_path):
    return CacheStore(str(tmp_path))


class TestRoundTrip:
    def test_put_get(self, store):
        store.put(key(), outcome())
        got = store.get(key())
        assert got is not None
        assert got.stdout == "hello\n"
        assert got.output_tree == {"out.txt": b"artifact\n"}
        assert got.exit_code == 0

    def test_missing_key_is_none(self, store):
        assert store.get(key(9)) is None

    def test_overwrite_replaces(self, store):
        store.put(key(), outcome(stdout="v1\n"))
        store.put(key(), outcome(stdout="v2\n"))
        assert store.get(key()).stdout == "v2\n"

    def test_identical_outcomes_share_one_object(self, store):
        store.put(key(0), outcome())
        store.put(key(1), outcome())
        stats = store.stats()
        assert stats.keys == 2
        assert stats.objects == 1
        assert stats.deduplicated_keys == 2


class TestTornEntries:
    def _flip_last_byte(self, path):
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))

    def test_corrupt_object_reads_as_miss(self, store):
        store.put(key(), outcome())
        obj = os.path.join(store.objects_dir,
                           os.listdir(store.objects_dir)[0])
        self._flip_last_byte(obj)
        assert store.get(key()) is None

    def test_truncated_object_reads_as_miss(self, store):
        store.put(key(), outcome())
        obj = os.path.join(store.objects_dir,
                           os.listdir(store.objects_dir)[0])
        with open(obj, "r+b") as fh:
            fh.truncate(os.path.getsize(obj) - 10)
        assert store.get(key()) is None

    def test_corrupt_key_reads_as_miss(self, store):
        store.put(key(), outcome())
        with open(store.key_path(key().digest), "wb") as fh:
            fh.write(b"not json")
        assert store.get(key()) is None

    def test_dangling_key_reads_as_miss(self, store):
        store.put(key(), outcome())
        for name in os.listdir(store.objects_dir):
            os.remove(os.path.join(store.objects_dir, name))
        assert store.get(key()) is None

    def test_future_format_reads_as_miss(self, store):
        store.put(key(), outcome())
        path = store.key_path(key().digest)
        text = open(path, "rb").read().decode()
        with open(path, "w") as fh:
            fh.write(text.replace('"format": 1', '"format": 99'))
        assert store.get(key()) is None


class TestGc:
    def test_gc_keeps_live_entries(self, store):
        store.put(key(), outcome())
        removed = store.gc()
        assert removed == {"torn": [], "unreferenced": []}
        assert store.get(key()) is not None

    def test_gc_removes_torn_and_dangling(self, store):
        store.put(key(0), outcome(stdout="a\n"))
        store.put(key(1), outcome(stdout="b\n"))
        with open(store.key_path(key(0).digest), "wb") as fh:
            fh.write(b"garbage")
        removed = store.gc()
        assert len(removed["torn"]) == 1
        # The now-unreferenced object of key 0 goes with it.
        assert len(removed["unreferenced"]) == 1
        assert store.get(key(1)) is not None
        assert store.stats().unreferenced_objects == 0

    def test_gc_sweeps_leftover_tmp_files(self, store):
        store.put(key(), outcome())
        tmp = os.path.join(store.keys_dir, ".tmp-interrupted.key")
        with open(tmp, "wb") as fh:
            fh.write(b"half-written")
        store.gc()
        assert not os.path.exists(tmp)
        assert store.get(key()) is not None

    def test_verify_store_reports_problems(self, store):
        store.put(key(), outcome())
        assert store.verify_store() == []
        obj = os.path.join(store.objects_dir,
                           os.listdir(store.objects_dir)[0])
        with open(obj, "r+b") as fh:
            fh.truncate(os.path.getsize(obj) - 4)
        problems = store.verify_store()
        assert problems and any("torn" in p for p in problems)


class TestStats:
    def test_empty_store(self, store):
        stats = store.stats()
        assert stats.keys == 0 and stats.objects == 0

    def test_counts_and_bytes(self, store):
        store.put(key(0), outcome(stdout="a\n"))
        store.put(key(1), outcome(stdout="b\n"))
        stats = store.stats()
        assert stats.keys == 2
        assert stats.objects == 2
        assert stats.object_bytes > 0
        assert stats.deduplicated_keys == 0


def _put_one_key(directory, barrier, rounds):
    """Spawned writer: *rounds* puts of one key; exits with the number of
    puts that raised."""
    store = CacheStore(directory)
    barrier.wait()
    failures = 0
    for _ in range(rounds):
        try:
            store.put(key(), outcome())
        except OSError:
            failures += 1
    sys.exit(min(failures, 100))


def _put_across_gc(directory, written, swept):
    """Spawned writer: one put that stops with its first tmp file written
    and fsynced but not yet renamed, until the parent has run gc."""
    real_replace = os.replace

    def paused(src, dst):
        written.set()
        if not swept.wait(60):
            sys.exit(3)
        return real_replace(src, dst)

    os.replace = paused
    try:
        CacheStore(directory).put(key(), outcome())
    except OSError:
        sys.exit(1)
    sys.exit(0)


def _put_paused(directory, at, reached, resume):
    """Spawned writer: one put that stops just before its *at*-th rename
    (0: the object's, 1: the key's) until the parent resumes it."""
    real_replace = os.replace
    calls = []

    def paused(src, dst):
        if len(calls) == at:
            reached.set()
            if not resume.wait(60):
                sys.exit(3)
        calls.append(dst)
        return real_replace(src, dst)

    os.replace = paused
    try:
        CacheStore(directory).put(key(), outcome())
    except OSError:
        sys.exit(1)
    sys.exit(0)


def _exit_now():
    pass


class TestGcAgainstWriters:
    """``repro cache gc`` may run while fan-out workers are mid-``put``."""

    def test_gc_keeps_a_live_writers_tmp_file(self, store):
        ctx = multiprocessing.get_context("spawn")
        written, swept = ctx.Event(), ctx.Event()
        writer = ctx.Process(target=_put_across_gc,
                             args=(store.directory, written, swept))
        writer.start()
        try:
            assert written.wait(60)
            tmps = [name for name in os.listdir(store.objects_dir)
                    if name.startswith(".tmp-")]
            assert len(tmps) == 1
            removed = store.gc()
            assert removed == {"torn": [], "unreferenced": []}
            assert os.listdir(store.objects_dir) == tmps
        finally:
            swept.set()
            writer.join(120)
        assert writer.exitcode == 0
        got = store.get(key())
        assert got is not None and got.stdout == "hello\n"
        assert store.verify_store() == []

    def _paused_writer(self, store, at):
        ctx = multiprocessing.get_context("spawn")
        reached, resume = ctx.Event(), ctx.Event()
        writer = ctx.Process(target=_put_paused,
                             args=(store.directory, at, reached, resume))
        writer.start()
        assert reached.wait(60)
        return writer, resume

    def test_gc_between_object_and_key_rename_keeps_the_object(self, store):
        """The fresh object is on disk and no key names it yet: gc must
        wait for the put instead of dropping the object."""
        writer, resume = self._paused_writer(store, at=1)
        removed = {}
        sweeper = threading.Thread(target=lambda: removed.update(store.gc()))
        try:
            sweeper.start()
            sweeper.join(1.0)
        finally:
            resume.set()
            writer.join(120)
            sweeper.join(120)
        assert writer.exitcode == 0
        assert removed == {"torn": [], "unreferenced": []}
        got = store.get(key())
        assert got is not None and got.stdout == "hello\n"
        assert store.verify_store() == []

    def test_gc_listing_across_a_whole_put_keeps_the_key(self, store,
                                                          monkeypatch):
        """gc lists objects before a put's object rename and keys after
        its key rename: the fresh key looks dangling, and gc must not
        drop it."""
        writer, resume = self._paused_writer(store, at=0)
        real_listdir = CacheStore._listdir
        crossed = []

        def listdir(self, directory, suffix):
            if directory == self.keys_dir and not crossed:
                crossed.append(directory)
                resume.set()
                writer.join(120)
            return real_listdir(self, directory, suffix)

        monkeypatch.setattr(CacheStore, "_listdir", listdir)
        try:
            removed = store.gc()
        finally:
            resume.set()
            writer.join(120)
        assert crossed and writer.exitcode == 0
        assert removed == {"torn": [], "unreferenced": []}
        got = store.get(key())
        assert got is not None and got.stdout == "hello\n"
        assert store.verify_store() == []

    def test_gc_sweeps_a_dead_writers_tmp_file(self, store):
        store.put(key(), outcome())
        ctx = multiprocessing.get_context("spawn")
        gone = ctx.Process(target=_exit_now)
        gone.start()
        gone.join(60)
        dead = os.path.join(store.keys_dir, ".tmp-%s.key.%d.%s"
                            % ("0" * 64, gone.pid, "ab" * 6))
        live = os.path.join(store.keys_dir, ".tmp-%s.key.%d.%s"
                            % ("1" * 64, os.getpid(), "cd" * 6))
        for path in (dead, live):
            with open(path, "wb") as fh:
                fh.write(b"half-written")
        removed = store.gc()
        assert removed["torn"] == [dead]
        assert not os.path.exists(dead)
        assert os.path.exists(live)
        assert store.get(key()) is not None


class TestConcurrentWriters:
    """``repro run --jobs 2 --repeat 2 --cache-dir D`` stores one key from
    two fan-out workers at once."""

    def test_two_processes_put_one_key(self, store):
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=_put_one_key,
                             args=(store.directory, barrier, 200))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(120)
        assert [proc.exitcode for proc in procs] == [0, 0]
        assert store.get(key()).stdout == "hello\n"
        assert store.verify_store() == []
        leftovers = [name for d in (store.keys_dir, store.objects_dir)
                     for name in os.listdir(d) if name.startswith(".tmp-")]
        assert leftovers == []

    def test_losing_the_rename_to_identical_bytes_succeeds(self, store,
                                                           monkeypatch):
        store.put(key(), outcome())
        real_replace = os.replace

        def vanished(src, dst):
            os.remove(src)           # e.g. swept before the rename
            raise FileNotFoundError(src)

        monkeypatch.setattr(os, "replace", vanished)
        store.put(key(), outcome())  # the same bytes are already there
        with pytest.raises(FileNotFoundError):
            store.put(key(), outcome(stdout="other\n"))
        monkeypatch.setattr(os, "replace", real_replace)
        assert store.get(key()).stdout == "hello\n"
