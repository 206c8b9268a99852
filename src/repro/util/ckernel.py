"""Build, cache and load the repo's small C kernels.

A :class:`CKernel` compiles a C source beside its Python module on first
use (``cc -O2 -shared -fPIC`` plus the kernel's include directories and
link arguments) and caches ``<stem>-<tag>.so``; ``<tag>`` hashes the
source, the flags, the machine type, the link arguments and the
kernel's own tag strings, so a changed input builds a new library.  A
``.sha256`` file written after the library marks it complete: ``dlopen``
of a torn file can crash the process, so a mismatch is rebuilt.  The
cache is the ``__pycache__`` directory beside the source, else
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), else a private
temporary directory.  With no compiler, a missing input, or a failed
build or ``dlopen``, :meth:`CKernel.try_load` warns and returns
``False``; the caller memoizes that and runs its reference engine.
"""

from __future__ import annotations

import _ctypes
import atexit
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.obs.registry import OBS

__all__ = ["CFLAGS", "CKernel", "KernelUnavailable", "compiler"]

CFLAGS = ("-O2", "-shared", "-fPIC")


class KernelUnavailable(RuntimeError):
    """A C kernel could not be built or loaded."""


def compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


def cache_dirs(source: Path) -> Iterator[Path]:
    """Candidate directories for a built library, in preference order."""
    yield source.parent / "__pycache__"
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    yield Path(xdg) / "repro"
    private = tempfile.mkdtemp(prefix="repro-kernel-")
    atexit.register(shutil.rmtree, private, True)
    yield Path(private)


def checksum_path(path: Path) -> Path:
    return path.with_suffix(".sha256")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _replace_atomically(directory: Path, path: Path, write) -> None:
    """Create ``path`` by ``write(tmp)`` on a temporary file + rename."""
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class CKernel:
    """One C source, built and loaded on demand.

    Args:
        source: The ``.c`` file.
        bind: Types the loaded library's entry points and returns the
            kernel object, or ``None`` when the library lacks one (an
            older build): it is then unloaded and rebuilt.
        warning: The one-time warning when the kernel is unavailable,
            with ``{exc}`` for the reason, and its ``OBS.warn`` key.
        inputs: Called at build/load time; returns ``(include_dirs,
            link_args, tags)``: extra ``-I`` directories, arguments
            placed after the source on the compiler command line, and
            strings folded into the library's tag.  Raises
            :class:`KernelUnavailable` when a dependency is missing.
    """

    def __init__(self, source: Path, bind: Callable[[ctypes.CDLL], object],
                 *, warning: tuple[str, str],
                 inputs: Callable[[], tuple] = lambda: ((), (), ())):
        self.source, self.bind = Path(source), bind
        self.warning, self.inputs = warning, inputs

    def command(self, cc: str, out: str) -> list[str]:
        """The compiler command line that builds the library into ``out``."""
        include, link, _ = self.inputs()
        return [cc, *CFLAGS, *(f"-I{d}" for d in include), "-o", out,
                str(self.source), *map(str, link)]

    def library_name(self) -> str:
        _, link, tags = self.inputs()
        tag = hashlib.sha256(b"\0".join([
            self.source.read_bytes(), " ".join(CFLAGS).encode(),
            platform.machine().encode(),
            *(str(s).encode() for s in [*link, *tags])])).hexdigest()[:16]
        return f"{self.source.stem}-{tag}.so"

    def open(self, path: Path):
        """The bound kernel, or ``None`` if ``path`` fails its checksum
        or :attr:`bind` rejects it.  A rejected library is unloaded, or
        ``dlopen`` of the rebuilt file at the same path would hand back
        the stale handle."""
        try:
            if checksum_path(path).read_text() != sha256(path):
                return None
            lib = ctypes.CDLL(str(path))
        except OSError:
            return None
        try:
            kernel = self.bind(lib)
        except AttributeError:
            kernel = None
        if kernel is None:
            _ctypes.dlclose(lib._handle)
        return kernel

    def build(self, cc: str, path: Path) -> None:
        """Compile to ``path``, then write its checksum.  Raises ``OSError``
        when the directory is not writable, :class:`KernelUnavailable`
        when the compiler fails."""
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = []

        def compile_to(tmp: str) -> None:
            try:
                proc = subprocess.run(self.command(cc, tmp),
                                      capture_output=True, text=True,
                                      timeout=120)
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise KernelUnavailable(f"{cc} failed: {exc}") from exc
            if proc.returncode != 0:
                raise KernelUnavailable(
                    f"{cc} failed: {proc.stderr.strip()[:400]}")
            digest.append(sha256(Path(tmp)))

        _replace_atomically(path.parent, path, compile_to)
        _replace_atomically(path.parent, checksum_path(path),
                            lambda tmp: Path(tmp).write_text(digest[0]))

    def load(self, dirs: Iterable[Path] | None = None,
             find_compiler: Callable[[], str | None] | None = None):
        """Load the cached library or build it (:func:`cache_dirs` and
        :func:`compiler` by default); raises :class:`KernelUnavailable`."""
        dirs = cache_dirs(self.source) if dirs is None else dirs
        find_compiler = find_compiler or compiler
        name = self.library_name()
        cc = None
        for directory in dirs:
            path = directory / name
            if path.is_file():
                kernel = self.open(path)
                if kernel is not None:
                    return kernel
            cc = cc or find_compiler()
            if cc is None:
                raise KernelUnavailable("no C compiler (cc or gcc) on PATH")
            try:
                self.build(cc, path)
            except OSError:
                continue  # not writable here: try the next directory
            kernel = self.open(path)
            if kernel is not None:
                return kernel
        raise KernelUnavailable("built library could not be loaded")

    def try_load(self, load: Callable[[], object] | None = None):
        """``load()`` (default :meth:`load`), or ``False`` after warning;
        the caller memoizes the outcome, so it warns once per process."""
        try:
            return (load or self.load)()
        except KernelUnavailable as exc:
            message, key = self.warning
            OBS.warn(message.format(exc=exc), key=key)
            return False
