"""Differential test for the path walk behind ``Filesystem.resolve``.

``_reference_walk`` is the walk as it was written before its helpers
(``split_path``, ``Inode.is_dir``, ``Inode.lookup``) were inlined.  Over
seeded random trees with symlinks, symlink loops, ``..``, files used as
directories and missing names, the product walk must return the same
inode or raise the same errno with the same message.
"""

import random

import pytest

from repro.cpu.machine import HostEnvironment
from repro.kernel.errors import Errno, SyscallError
from repro.kernel.filesystem import MAX_SYMLINK_DEPTH, Filesystem, split_path
from repro.kernel.types import FileKind


def _reference_walk(fs, root, cwd, path, follow_last, _depth):
    if _depth > MAX_SYMLINK_DEPTH:
        raise SyscallError(Errno.ELOOP, "resolve", path)
    node = root if path.startswith("/") else cwd
    comps = split_path(path)
    for i, comp in enumerate(comps):
        if not node.is_dir:
            raise SyscallError(Errno.ENOTDIR, "resolve", path)
        if comp == "..":
            node = fs._parent_of(root, node) or node
            continue
        child = node.lookup(comp)
        if child is None:
            raise SyscallError(Errno.ENOENT, "resolve", path)
        is_last = i == len(comps) - 1
        if child.kind is FileKind.SYMLINK and (follow_last or not is_last):
            target = child.symlink_target
            rest = "/".join(comps[i + 1:])
            newpath = target + ("/" + rest if rest else "")
            base = node if not target.startswith("/") else root
            return _reference_walk(fs, root, base, newpath, follow_last,
                                   _depth + 1)
        node = child
    return node


NAMES = ["a", "b", "c", "dir", "f.txt", "ln"]


def _random_tree(rng):
    """A small tree of directories, files and symlinks (some dangling,
    some looping, relative and absolute); returns (fs, dirs, paths)."""
    fs = Filesystem(HostEnvironment(entropy_seed=rng.randrange(1000)))
    dirs = [(fs.root, "")]
    paths = [""]
    for _ in range(rng.randrange(4, 14)):
        parent, ppath = rng.choice(dirs)
        name = rng.choice(NAMES)
        if parent.entries.get(name) is not None:
            continue
        path = ppath + "/" + name
        kind = rng.random()
        if kind < 0.45:
            dirs.append((fs.create_dir(parent, name), path))
        elif kind < 0.7:
            fs.create_file(parent, name, data=b"x")
        else:
            fs.create_symlink(parent, name, _random_path(rng, paths + [path]))
        paths.append(path)
    return fs, dirs, paths


def _random_path(rng, known):
    """A path mixing known prefixes with ``..``, ``.``, empty components,
    missing names and trailing slashes, absolute or relative."""
    comps = [c for c in rng.choice(known).split("/") if c]
    for _ in range(rng.randrange(0, 4)):
        comps.insert(rng.randrange(len(comps) + 1),
                     rng.choice(["..", ".", "", "missing"] + NAMES))
    path = "/".join(comps)
    if rng.random() < 0.5:
        path = "/" + path
    if rng.random() < 0.15:
        path += "/"
    return path


def _outcome(fn):
    try:
        return ("ok", fn())
    except SyscallError as err:
        return ("err", err.errno, str(err))


@pytest.mark.parametrize("seed", range(60))
def test_walk_matches_reference(seed):
    rng = random.Random(seed)
    fs, dirs, paths = _random_tree(rng)
    nodes = [node for node, _ in dirs]
    # A file as the working directory: its first component is ENOTDIR.
    files = [n for n in fs.root.entries.values()
             if n.kind is FileKind.REGULAR]
    for _ in range(150):
        path = _random_path(rng, paths)
        cwd = rng.choice(nodes + files[:1])
        follow_last = rng.random() < 0.7
        want = _outcome(lambda: _reference_walk(fs, fs.root, cwd, path,
                                                follow_last, 0))
        got = _outcome(lambda: fs._resolve_walk(fs.root, cwd, path,
                                                follow_last, 0))
        assert got == want, (seed, path, follow_last)
        # The cached entry point agrees too, on a miss and then a hit.
        for _hit in range(2):
            assert _outcome(lambda: fs.resolve(fs.root, cwd, path,
                                               follow_last)) == want


def test_reference_corpus_covers_every_outcome():
    """The random trees reach every branch the walk has."""
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        fs, dirs, paths = _random_tree(rng)
        for _ in range(150):
            path = _random_path(rng, paths)
            cwd = rng.choice([node for node, _ in dirs])
            out = _outcome(lambda: _reference_walk(fs, fs.root, cwd, path,
                                                   rng.random() < 0.7, 0))
            if out[0] == "ok":
                seen.add(out[1].kind)
            else:
                seen.add(Errno(out[1]))
    assert {Errno.ENOENT, Errno.ENOTDIR, Errno.ELOOP,
            FileKind.DIRECTORY, FileKind.REGULAR, FileKind.SYMLINK} <= seen


def test_symlink_loop_and_dotdot_at_root():
    fs = Filesystem(HostEnvironment(entropy_seed=1))
    d = fs.create_dir(fs.root, "d")
    fs.create_symlink(d, "x", "y")
    fs.create_symlink(d, "y", "x")
    fs.create_file(d, "f")
    for path, follow in (("/d/x", True), ("/d/x", False), ("/../../d/f", True),
                         ("/d/f/..", True), ("d/./x/", False)):
        want = _outcome(lambda: _reference_walk(fs, fs.root, fs.root, path,
                                                follow, 0))
        assert _outcome(lambda: fs._resolve_walk(fs.root, fs.root, path,
                                                 follow, 0)) == want
