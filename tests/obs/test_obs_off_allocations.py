"""With observability off, dispatch builds no event objects.

DESIGN "Hot-path invariants" promises that an ``observe=False`` run
allocates no :class:`~repro.obs.trace.Span` or
:class:`~repro.obs.events.ObsEvent` on its way through the tracer and the
kernel: the collector would only throw them away.  These tests count the
constructions over package builds and a program that forks, traps
``rdtsc`` and blocks on a pipe.
"""

from collections import Counter

import pytest

from repro.core import ContainerConfig
from repro.obs.events import ObsEvent
from repro.obs.trace import Span
from repro.repro_tools import first_build_host
from repro.workloads.debian import build_dettrace, generate_population
from tests.conftest import dettrace_run

pytestmark = pytest.mark.obs


@pytest.fixture
def constructed(monkeypatch):
    counts: Counter = Counter()
    for cls in (Span, ObsEvent):
        real = cls.__init__

        def counting(self, *args, _real=real, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def _kid(sys):
    yield from sys.write(1, b"kid\n")
    return 0


def _program(sys):
    yield from sys.rdtsc()
    rfd, wfd = yield from sys.pipe()
    pid = yield from sys.spawn("/bin/kid", stdout=wfd, close_fds=[rfd])
    yield from sys.close(wfd)
    data = yield from sys.read(rfd, 64)
    yield from sys.waitpid(pid)
    yield from sys.write_file("out", data)
    return 0


def _runs(config):
    specs = [s for s in generate_population(10, seed=33)
             if not s.expect_dt_unsupported and not s.syscall_storm][:2]
    for spec in specs:
        record = build_dettrace(spec, config=config, host=first_build_host())
        assert record.status == "built", spec.name
    result = dettrace_run(_program, config=config,
                          extra_binaries={"/bin/kid": _kid})
    assert result.exit_code == 0
    assert result.counters.rdtsc_intercepted == 1


def test_observe_off_builds_no_spans_or_events(constructed):
    _runs(ContainerConfig(observe=False))
    assert constructed == Counter()


def test_observe_on_builds_both(constructed):
    # The positive control: the counting hook sees what it should.
    _runs(ContainerConfig(observe=True))
    assert constructed["Span"] > 100
    assert constructed["ObsEvent"] > 0
