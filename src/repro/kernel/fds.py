"""File descriptors and per-process descriptor tables."""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Dict, Optional

from .errors import Errno, SyscallError
from .inode import Inode
from .pipes import Pipe


class FdKind(enum.Enum):
    FILE = "file"
    DIRECTORY = "directory"
    PIPE_READ = "pipe_read"
    PIPE_WRITE = "pipe_write"
    DEVICE = "device"
    #: One end of an AF_UNIX socketpair (bidirectional; peer_pipe is the
    #: send direction, pipe the receive direction).
    SOCKETPAIR = "socketpair"
    #: A stream socket (repro.kernel.sockets): unbound, listening, or
    #: connected (then pipe/peer_pipe carry the two directions, exactly
    #: like SOCKETPAIR).
    SOCKET = "socket"


@dataclasses.dataclass
class OpenFile:
    """An open file description (shared across dup'd descriptors).

    ``path`` records the absolute container path the description was
    opened with; DetTrace's inode virtualization reads it back the way the
    real system reads ``/proc/self/fd`` (paper §5.5).
    """

    kind: FdKind
    flags: int = 0
    offset: int = 0
    path: str = ""
    inode: Optional[Inode] = None
    pipe: Optional[Pipe] = None
    refcount: int = 1

    #: Send-direction pipe for SOCKETPAIR and connected SOCKET
    #: descriptions.
    peer_pipe: Optional[Pipe] = None

    #: True when this description was counted in its inode's
    #: ``open_count`` (set by sys_open); the last close must then report
    #: back to the filesystem so unlinked-but-open inode numbers are
    #: recycled only after the final descriptor goes away.
    counts_inode: bool = False

    # -- SOCKET state (repro.kernel.sockets) ---------------------------
    #: Local address ("127.0.0.1:32768" or an AF_UNIX path; "" unbound).
    sock_local: str = ""
    #: Peer address once connected.
    sock_peer: str = ""
    #: Address family (sockets.AF_UNIX / AF_INET) for SOCKET kinds.
    sock_family: int = 0
    #: True when this description claimed its address via bind (close
    #: must release it back to the registry).
    sock_bound: bool = False
    #: The registry Listener this description owns (listening sockets).
    listener: Optional[object] = None
    #: shutdown(2) state: directions already torn down (close must not
    #: double-close the underlying pipe ends).
    shut_rd: bool = False
    shut_wr: bool = False

    @property
    def is_pipe(self) -> bool:
        return self.kind in (FdKind.PIPE_READ, FdKind.PIPE_WRITE,
                             FdKind.SOCKETPAIR, FdKind.SOCKET)


class FDTable:
    """Per-process mapping of descriptor numbers to open file descriptions."""

    MAX_FDS = 1024

    def __init__(self):
        self._fds: Dict[int, OpenFile] = {}
        #: Bumped whenever an existing descriptor is unbound (close, dup2
        #: displacement).  Host-only: a blocked probe's stamp compares it
        #: (repro.kernel.waiting.BlockStamp).
        self.epoch = 0

    def lowest_free(self, minimum: int = 0) -> int:
        fd = minimum
        while fd in self._fds:
            fd += 1
        if fd >= self.MAX_FDS:
            raise SyscallError(Errno.EMFILE, "open")
        return fd

    def install(self, of: OpenFile, minimum: int = 0) -> int:
        fd = self.lowest_free(minimum)
        self._fds[fd] = of
        return fd

    def install_at(self, fd: int, of: OpenFile) -> None:
        self._fds[fd] = of

    def get(self, fd: int) -> OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise SyscallError(Errno.EBADF, "fd %d" % fd) from None

    def remove(self, fd: int) -> OpenFile:
        try:
            of = self._fds.pop(fd)
        except KeyError:
            raise SyscallError(Errno.EBADF, "fd %d" % fd) from None
        self.epoch += 1
        return of

    def has(self, fd: int) -> bool:
        return fd in self._fds

    def dup(self, fd: int, minimum: int = 0) -> int:
        of = self.get(fd)
        of.refcount += 1
        return self.install(of, minimum)

    def dup2(self, oldfd: int, newfd: int,
             dropper: Optional[Callable[[OpenFile], None]] = None) -> int:
        """dup2(2): *newfd* becomes another name for *oldfd*'s description.

        A displaced *newfd* is implicitly closed.  That close must be a
        *full* close when it was the description's last reference —
        pipe reader/writer teardown, deferred inode-number release — so
        callers pass the kernel's drop hook as *dropper*.  A bare
        refcount decrement (the pre-fix behaviour, kept as the fallback
        for hookless unit-test tables) leaks reader/writer counts and
        EOF/EPIPE are never delivered on the other end.
        """
        of = self.get(oldfd)
        if oldfd == newfd:
            return newfd
        existing = self._fds.pop(newfd, None)
        of.refcount += 1
        self._fds[newfd] = of
        if existing is not None:
            self.epoch += 1
            if dropper is not None:
                dropper(existing)
            else:
                existing.refcount -= 1
        return newfd

    def items(self):
        return list(self._fds.items())

    def fork_copy(self) -> "FDTable":
        """Duplicate the table for a forked child (descriptions shared)."""
        table = FDTable()
        for fd, of in self._fds.items():
            of.refcount += 1
            table._fds[fd] = of
        return table

    def __len__(self) -> int:
        return len(self._fds)
