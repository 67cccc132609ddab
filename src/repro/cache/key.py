"""Run keys: the content address of one container run.

DetTrace's thesis makes a container run a *pure function* of its
inputs: the initial filesystem state (the image), the container
configuration, the program and its argv/environment, and — for the few
surfaces a config may deliberately leave un-determinized — the machine
the run executes on.  :func:`run_key` hashes exactly those inputs into
one sha256 digest, the address under which ``repro.cache`` memoizes the
run's outcome.

Key composition (the DESIGN "Cache invariants" contract):

* **image fingerprint** — :func:`image_fingerprint`, a digest of what
  the image *declares*: the working directory, its directories and
  files (path, mode, content sha256) in declaration order, every
  registered guest binary and setup function (see
  :func:`_callable_digest`) and every published download URL body.
  Nothing is installed to compute it, so no host state (boot epochs,
  inode bases) can reach it.  A setup function is keyed like a binary,
  by its code and its bound arguments; one that reads *hidden* inputs
  (host files, mutable module globals) is not covered by the key, and
  ``--cache verify`` is the check that catches it.
* **engine** — :func:`engine_digest`, a sha256 of the package's own
  sources: the kernel, tracer and handlers decide what a run computes
  as much as the guest does, so a fix to any of them retires old
  entries instead of leaving them to be served stale.
* **config fingerprint** — :meth:`ContainerConfig.fingerprint`, which
  already covers every determinism-relevant knob and excludes the
  operational ones (``checkpoint``, ``cache``).
* **program coordinates** — the command path, argv vector and the
  exact environment the guest will see (``config.env_for``).
* **host component** — the machine spec name always (identity files
  like ``/etc/hostname`` may be un-canonicalized by config); when any
  determinism mechanism is ablated the run may genuinely depend on the
  boot, so the *full* host identity joins the key and distinct boots
  simply never collide.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import ContainerConfig
from ..cpu.machine import HostEnvironment

#: Bumped whenever key composition changes incompatibly: old entries
#: become unreachable instead of wrongly hit.
KEY_SCHEMA = 3

#: Config toggles whose *disabling* can let host identity reach the
#: output surface; with any of these off the full host identity joins
#: the run key (conservative: distinct boots never share an entry).
_DETERMINISM_TOGGLES = (
    "virtualize_time", "patch_vdso", "deterministic_randomness",
    "virtualize_inodes", "sort_getdents", "deterministic_dir_sizes",
    "deterministic_pids", "map_user_to_root", "serialize_threads",
    "trap_rdtsc", "mask_cpuid", "mask_machine", "disable_aslr",
    "canonical_env", "emulate_timers",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def engine_digest() -> str:
    """sha256 over every ``.py`` source of the ``repro`` package (path
    and bytes, in sorted order), computed once per process.  Kernel,
    tracer, handlers and every guest program shipped in the package are
    code the run executes, so an edit to any of them moves every key."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(_PACKAGE_DIR):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, _PACKAGE_DIR).encode())
                with open(path, "rb") as fh:
                    h.update(_sha(fh.read()).encode())
    return h.hexdigest()


#: module name -> (the module's __spec__ when digested, source digest).
_MODULE_DIGESTS: Dict[str, Tuple[Any, Optional[str]]] = {}


def _module_digest(module_name: str) -> Optional[str]:
    """Source digest of a module outside the package, memoized per
    module load (a re-import brings a new ``__spec__``, so a rewritten
    module is re-read); None when the module has no source file."""
    module = sys.modules.get(module_name)
    spec = getattr(module, "__spec__", None)
    memo = _MODULE_DIGESTS.get(module_name)
    if memo is not None and memo[0] is spec:
        return memo[1]
    digest = None
    path = getattr(module, "__file__", None)
    if path:
        try:
            with open(path, "rb") as fh:
                digest = _sha(fh.read())
        except OSError:
            pass
    _MODULE_DIGESTS[module_name] = (spec, digest)
    return digest


def _callable_digest(fn: Any, reprs: Dict[int, str],
                     _depth: int = 0) -> str:
    """Digest of a guest binary or setup function.

    Code inside the package is covered by :func:`engine_digest`; code
    defined elsewhere adds the source digest of its defining module, so
    an edit to it or to a helper it calls from that module moves the
    key.  A callable whose source cannot be read keys on its identity
    (its repr carries an address), so it never shares an entry across
    processes.  Closure cells and defaults — what ``with_args`` binds —
    are covered by repr (plain data by convention), and callable cells
    recursively.  *reprs* memoizes a cell value's repr by object
    identity for one key computation: an image binds one spec into many
    binaries, and nothing it holds can change while its key is built.
    """
    qualname = getattr(fn, "__qualname__", None) or repr(fn)
    module = getattr(fn, "__module__", None) or ""
    code = getattr(fn, "__code__", None)
    h = hashlib.sha256()
    # The first line tells apart same-named lambdas of one function.
    h.update(("%s|%s|%s|" % (module, qualname,
                             getattr(code, "co_firstlineno", ""))).encode())
    if module != "repro" and not module.startswith("repro."):
        h.update((_module_digest(module) or repr(fn)).encode())
    closure = getattr(fn, "__closure__", None)
    if closure and _depth < 8:
        for cell in closure:
            contents = cell.cell_contents
            if callable(contents):
                h.update(_callable_digest(contents, reprs,
                                          _depth + 1).encode())
            else:
                text = reprs.get(id(contents))
                if text is None:
                    text = reprs[id(contents)] = repr(contents)
                h.update(text.encode())
    defaults = getattr(fn, "__defaults__", None)
    if defaults:
        h.update(repr(defaults).encode())
    return h.hexdigest()


def image_fingerprint(image, working_dir: str = "/build") -> str:
    """Digest of what *image* declares, in this fixed order: the working
    directory; ``add_dir`` paths in order; ``add_file`` entries in order
    as (path, mode, content sha256) — a later entry for one path
    overwrites an earlier one at install, so order is content; binaries
    sorted by path, each with :func:`_callable_digest`; URLs sorted,
    each with its body's sha256; setup functions in order, each with
    :func:`_callable_digest`.

    Everything else :meth:`Image.install` reads is keyed elsewhere: its
    own code, the binary registry's and the kernel's by
    :func:`engine_digest`, the host identity files it writes by the
    machine name in the host component.
    """
    reprs: Dict[int, str] = {}
    programs = image.registry._programs
    declaration = [
        working_dir,
        list(image._dirs),
        [(path, mode, _sha(bytes(data))) for path, data, mode in image._files],
        [(path, _callable_digest(programs[path], reprs))
         for path in sorted(programs)],
        [(url, _sha(image._urls[url])) for url in sorted(image._urls)],
        [_callable_digest(fn, reprs) for fn in image._setup_fns],
    ]
    return _sha(json.dumps(declaration).encode("utf-8"))


def _host_component(config: ContainerConfig,
                    host: HostEnvironment) -> Dict[str, Any]:
    component: Dict[str, Any] = {"machine": host.machine.name}
    if not all(getattr(config, name) for name in _DETERMINISM_TOGGLES):
        # An ablated run may observe the boot: key on all of it.
        component.update({
            "boot_epoch": host.boot_epoch,
            "entropy_seed": host.entropy_seed,
            "pid_start": host.pid_start,
            "inode_start": host.inode_start,
            "dirent_hash_salt": host.dirent_hash_salt,
        })
    return component


@dataclasses.dataclass(frozen=True)
class RunKey:
    """The content address of one (image, config, program, host) run."""

    digest: str
    components: Dict[str, Any] = dataclasses.field(default_factory=dict,
                                                   hash=False, compare=False)

    def __str__(self) -> str:
        return self.digest


def run_key(image, config: ContainerConfig, command: str,
            argv: Optional[List[str]], host: HostEnvironment) -> RunKey:
    """Compute the :class:`RunKey` for ``DetTrace(config).run(image,
    command, argv, host)``."""
    components = {
        "schema": KEY_SCHEMA,
        "engine": engine_digest(),
        "image": image_fingerprint(image, config.working_dir),
        "config": config.fingerprint(),
        "command": command,
        "argv": list(argv) if argv is not None else [command],
        "env": config.env_for(host.env),
        "host": _host_component(config, host),
    }
    blob = json.dumps(components, sort_keys=True).encode("utf-8")
    return RunKey(digest=_sha(blob), components=components)
