"""Wait channels and the would-block protocol.

A blocking syscall is implemented as a *retryable probe*: the syscall body
either completes, or raises :class:`WouldBlock` naming the channels whose
notification could change the answer.  The kernel then parks the thread
and re-executes the whole syscall when any named channel fires.

This retry structure is exactly what DetTrace needs (paper §5.6.1): the
tracer converts blocking calls into non-blocking probes (``WNOHANG``
style), observes the would-block outcome, and moves the process to its
Blocked queue to be retried later — so the native kernel and the
determinized container share one code path.

Because every wake goes through ``Kernel.notify``, a channel's
:attr:`Channel.version` counts its wakes.  A failed probe leaves a
:class:`BlockStamp` on the thread; while no named channel has moved, the
next probe of the same call is known to fail again and the kernel skips
re-executing its body (``Kernel.unchanged_block``).  Versions and stamps
are host-only: they never reach a snapshot, a fingerprint or a result.
"""

from __future__ import annotations

from typing import Iterable, List


class Channel:
    """Something a thread can wait on (pipe space, child exit, futex, ...)."""

    __slots__ = ("name", "version")

    def __init__(self, name: str):
        self.name = name
        #: Wakes so far: bumped by every ``Kernel.notify`` on this channel.
        self.version = 0

    def __repr__(self) -> str:
        return "Channel(%r)" % self.name


class WouldBlock(Exception):
    """The syscall cannot complete now; retry when a channel fires.

    *stampable* says whether a notify on the named channels is the only
    way the raising site's answer can change.  Sites whose readiness also
    reads state that moves without a notify (futex words, which guest code
    stores to directly) pass ``False``, so their probes always re-execute.
    """

    def __init__(self, channels: Iterable[Channel], stampable: bool = True):
        self.channels: List[Channel] = list(channels)
        self.stampable = stampable

    def __str__(self) -> str:
        # Rendered on demand only: probes raise this on the hot path.
        return "would block on %s" % ", ".join(c.name for c in self.channels)


class BlockStamp:
    """What a failed probe waited on, for skipping an unchanged retry.

    *wakes* is the kernel's notify count when the versions were last
    found unchanged: while it still matches, nothing anywhere has been
    notified and the per-channel comparison is skipped.  *fd_epoch* is
    the caller's descriptor-table epoch; a close or dup2 by a sibling
    thread rebinds descriptors without notifying any channel.
    """

    __slots__ = ("call", "channels", "versions", "wakes", "fd_epoch")

    def __init__(self, call, channels: List[Channel], wakes: int,
                 fd_epoch: int):
        self.call = call
        self.channels = channels
        self.versions = [c.version for c in channels]
        self.wakes = wakes
        self.fd_epoch = fd_epoch
