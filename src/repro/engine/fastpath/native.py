"""Native row and elementwise loops, built at set-up: one library,
three sources.

* ``gelu.c`` -- the float32 GELU.  :func:`.kernels.gelu_rational` makes
  nineteen whole-array numpy passes; ``gelu.c`` runs the same
  arithmetic (the same ``_ERF_C`` / ``_ERF_A``) as one vectorised
  loop, ~4x faster per call.  :func:`gelu_kernel` is the float32 GELU a
  compile puts in its slots: a :class:`NativeGelu` when the library
  builds and loads, else :func:`.kernels.gelu_rational`, which stays
  the definition.
* ``rows.c`` -- the float32 attention softmax and LayerNorm, one sweep
  per row (numpy makes 6-8 whole-array passes): the softmax folds the
  key bias into its max loop, runs exp (an inline Cody-Waite +
  degree-6 polynomial; libmvec's ``expf`` is no faster than
  ``np.exp``) and the row sum in one loop and scales by the sum's
  reciprocal; the LayerNorm reads strided rows and stops at the
  normalised row, because every float32 compile folds the affine into
  the next GEMM.  :func:`softmax_kernel` and :func:`layer_norm_kernel`
  give :class:`NativeSoftmax` / :class:`NativeLayerNorm` when the
  library loads, else :func:`.kernels.masked_softmax` /
  :func:`.kernels.fused_layer_norm`, which stay the definitions.  Held
  to float32 bounds, not to numpy's bits; a row's bits depend only on
  that row.
* ``qmlp.c`` -- the int8 float32 grade's hidden layer: fc1's rescale
  and bias plus the Eq. 12 GELU as one pass per tile, and fc2's input
  quantisation as one pass.  :class:`.quantized.FusedHiddenLayer` calls
  it when the library loads, else runs the numpy kernels
  (:func:`.qkernels.approx_gelu_fast`, :func:`.qkernels.quantize_fast`),
  which stay the definition.  Its results are the numpy passes' bits.

Build rules
-----------
* **Compiler.** ``cc``, else ``gcc``, on ``PATH``.  The GELU loop only
  pays with gcc's vector ``expf`` (libmvec), and ``rows.c`` is written
  in GCC's vector extensions, so a clang compiler counts as none.
* **Compile** each source to an object with its own flags
  (:data:`SOURCES`), ``-O3 -march=native -fPIC`` for all three:
  ``-march=native`` is safe because the library is built on the host
  that serves it.  ``gelu.c`` adds ``-ffast-math``: fast-math is what
  vectorises ``expf``, and the float32 GELU is held to a bound, not to
  numpy's bits.  ``rows.c`` is float32 too but adds nothing: its
  vectors are written out, and fast-math's reassociation would fold
  its exp's range reduction (``x - n ln2_hi - n ln2_lo``) and rounding
  (``x + 1.5 * 2^23 - 1.5 * 2^23``) away.  ``qmlp.c`` adds
  ``-ffp-contract=off`` and no fast-math: the int8 lane's served bits
  must not move, and that holds only while every multiply and add is
  its own IEEE rounding in numpy's order.  gcc's default
  ``-ffp-contract=fast`` fuses ``a * b + c`` into one FMA (one
  rounding instead of two) and moves the bits.
* **Link** the three objects into one library with ``-lm`` (libmvec's
  ``_ZGV*_expf``, else the library fails to load) and **without**
  ``-ffast-math``: gcc links ``crtfastmath.o`` for it, which turns on
  flush-to-zero for the whole process on load and silently zeroes
  every float64 subnormal.
* **Cache** the ``.so`` per user under ``~/.cache/repro``, else under a
  per-user directory in the system temp dir, keyed by every source and
  every flag, the compiler's version and the host's ISA.  A directory
  or library that another user can write is never loaded from.
* **When.** A native kernel (:class:`NativeGelu`,
  :class:`NativeSoftmax`, :class:`NativeLayerNorm`) or a
  :class:`.quantized.FusedHiddenLayer` loads the library when it is
  built and again when it is unpickled (a pool worker), the
  :class:`.kernels.SciPyImport` pattern: no request compiles or loads
  anything.  The build costs ~0.7 s once per host; a warm set-up
  only probes the compiler's version, once per process.

If there is no compiler, or the build or load fails, the numpy kernels
run.  There is no option to choose.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.engine.fastpath.kernels import (_ERF_A, _ERF_C, fused_layer_norm,
                                           gelu_rational, masked_softmax)

__all__ = ["load", "Library", "gelu_kernel", "NativeGelu", "softmax_kernel",
           "NativeSoftmax", "layer_norm_kernel", "NativeLayerNorm"]

#: Each source next to this module and the flags it compiles with.
SOURCES = {
    Path(__file__).with_name("gelu.c"):
        ("-O3", "-ffast-math", "-march=native", "-fPIC"),
    Path(__file__).with_name("qmlp.c"):
        ("-O3", "-march=native", "-ffp-contract=off", "-fPIC"),
    Path(__file__).with_name("rows.c"):
        ("-O3", "-march=native", "-fPIC"),
}
LINK_FLAGS = ("-shared",)
LIBS = ("-lm",)

# The coefficients in the order gelu.c reads them, rounded to float32
# as numpy rounds a Python float in a float32 pass.
_COEFFS = np.array((_ERF_C, *_ERF_A), dtype=np.float32)
_COEFFS_ADDRESS = _COEFFS.ctypes.data

# Compiler path -> the loaded :class:`Library`, or None when its build
# or load failed (not retried in this process).
_loaded = {}
_library = None


@functools.cache
def find_compiler():
    """Path of the C compiler to build with, or ``None``; looked up once
    per process (a ``PATH`` scan costs ~60 us, and a compile asks once
    per native kernel it installs)."""
    for name in ("cc", "gcc"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def cache_dir():
    """A directory only this user can write, created if missing, or
    ``None``."""
    if not hasattr(os, "getuid"):
        return None
    for root in (Path.home() / ".cache" / "repro",
                 Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"):
        try:
            root.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue
        if _private(root):
            return root
    return None


def _private(path):
    """Owned by this user and writable by no one else."""
    status = os.stat(path)
    return status.st_uid == os.getuid() and not status.st_mode & 0o022


def _host_isa():
    """What ``-march=native`` resolves from: the CPU's flag list where
    the OS shows it, else the machine and processor names."""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _library_path(compiler, version):
    key = hashlib.sha256()
    parts = [repr((LINK_FLAGS, LIBS)).encode(), version.encode(),
             _host_isa().encode()]
    for source, flags in SOURCES.items():
        parts += [source.name.encode(), source.read_bytes(),
                  repr(flags).encode()]
    for part in parts:
        key.update(part)
        key.update(b"\0")
    root = cache_dir()
    if root is None:
        raise OSError("no private cache directory")
    return root / f"native-{key.hexdigest()[:16]}.so"


def _run(command):
    subprocess.run(command, check=True, capture_output=True, timeout=120)


def _build(compiler, target):
    """Compile and link into a private temporary directory next to
    ``target``, then move the library into place in one rename, so a
    concurrent loader sees no library or a whole one.  The linker's
    mode follows the umask (group-writable under ``umask 002``), so the
    library is made writable by its owner alone."""
    with tempfile.TemporaryDirectory(dir=target.parent) as scratch:
        objects = []
        for source, flags in SOURCES.items():
            objects.append(str(Path(scratch) / f"{source.stem}.o"))
            _run([compiler, *flags, "-c", str(source), "-o", objects[-1]])
        lib = Path(scratch) / target.name
        _run([compiler, *LINK_FLAGS, *objects, "-o", str(lib), *LIBS])
        os.chmod(lib, 0o755)
        os.replace(lib, target)


def _version(compiler):
    return subprocess.run(
        [compiler, "--version"], check=True, capture_output=True,
        text=True, timeout=30).stdout


def _open(compiler):
    version = _version(compiler)
    if "clang" in version:
        return None
    path = _library_path(compiler, version)
    if not path.exists():
        _build(compiler, path)
    if not _private(path):
        return None
    return Library(ctypes.CDLL(str(path)))


class Library:
    """The loaded library's C functions, with their argument types."""

    __slots__ = ("gelu", "tile", "quantize", "softmax", "layer_norm")

    def __init__(self, cdll):
        pointer, size = ctypes.c_void_p, ctypes.c_size_t
        self.gelu = _typed(cdll.gelu_rational_f32, pointer, size, pointer)
        self.tile = _typed(cdll.qmlp_tile, pointer, size, size, pointer,
                           ctypes.c_int, pointer, pointer, pointer)
        self.quantize = _typed(cdll.qmlp_quantize, pointer, pointer, size,
                               ctypes.c_float)
        self.softmax = _typed(cdll.softmax_rows_f32, pointer, size, size,
                              pointer, size)
        self.layer_norm = _typed(cdll.layer_norm_rows_f32, pointer, size,
                                 size, size, pointer, ctypes.c_float)


def _typed(function, *argtypes):
    function.argtypes = argtypes
    function.restype = None
    return function


def _address(array):
    """Where ``array``'s data starts.  Through the buffer protocol for a
    writable C-contiguous array -- ~0.9 us against ~2.5 us for
    ``array.ctypes.data`` on a 2-vCPU host, and a float32 submit makes
    a few hundred native calls -- else through ``array.ctypes``."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):     # read-only, strided or empty
        return array.ctypes.data


def load():
    """Build (once per host) and load (once per process) the native
    library; returns its :class:`Library`, or ``None`` when there is no
    compiler or the build or load failed."""
    global _library
    compiler = find_compiler()
    if compiler is None:
        return None
    if compiler not in _loaded:
        try:
            _loaded[compiler] = _open(compiler)
        except (OSError, AttributeError, subprocess.SubprocessError):
            _loaded[compiler] = None
    if _loaded[compiler] is not None:
        _library = _loaded[compiler]
    return _loaded[compiler]


def gelu_kernel():
    """The float32 GELU for this host: :class:`NativeGelu` when the
    library loads, else :func:`.kernels.gelu_rational`."""
    return NativeGelu() if load() is not None else gelu_rational


class NativeGelu:
    """Float32 GELU in place through ``gelu.c``, as ``fn(x, ws, key)``.

    Built only by :func:`gelu_kernel`, once the library has loaded; it
    unpickles through :func:`gelu_kernel` too, so a worker loads the
    library before its first shard, or falls back to the numpy kernel
    where it cannot.  Every element runs the same vector code whatever
    its offset (``gelu.c``), so an image's bits do not depend on where
    its rows sit in the operand.  ``ws`` and ``key`` are unused.
    """

    __slots__ = ()

    def __call__(self, x, ws, key):
        if x.dtype != np.float32:
            raise TypeError(f"native GELU takes float32, not {x.dtype}")
        if not x.flags.c_contiguous:
            x[...] = self(np.ascontiguousarray(x), ws, key)
            return x
        _library.gelu(_address(x), x.size, _COEFFS_ADDRESS)
        return x

    def __reduce__(self):
        return gelu_kernel, ()


def softmax_kernel():
    """The float32 masked softmax for this host: :class:`NativeSoftmax`
    when the library loads, else :func:`.kernels.masked_softmax`."""
    return NativeSoftmax() if load() is not None else masked_softmax


class NativeSoftmax:
    """Float32 masked softmax in place through ``rows.c``, in the
    softmax slot's call shape ``fn(scores, bias, ws=, key=)``.

    ``scores`` is ``(B, ..., T)``; ``bias`` is ``None`` or the ``(B, T)``
    key bias of :func:`.kernels.mask_to_bias`.  Each row is one sweep
    (bias, max, exp, sum, scale), and its bits depend only on that row
    and its bias row (``rows.c``).  Built only by
    :func:`softmax_kernel`, through which it also unpickles, as
    :class:`NativeGelu` does.  ``ws`` and ``key`` are unused.
    """

    __slots__ = ()

    def __call__(self, scores, bias, ws=None, key=None):
        if scores.dtype != np.float32:
            raise TypeError(f"native softmax takes float32, not "
                            f"{scores.dtype}")
        if not scores.flags.c_contiguous:
            scores[...] = self(np.ascontiguousarray(scores), bias)
            return scores
        t = scores.shape[-1]
        if scores.size == 0:
            return scores
        rows = scores.size // t
        if bias is None:
            _library.softmax(_address(scores), rows, t, None, rows)
            return scores
        if bias.shape != (scores.shape[0], t):
            raise ValueError(f"key bias {bias.shape} does not match scores "
                             f"{scores.shape}")
        bias = np.ascontiguousarray(bias, dtype=np.float32)
        _library.softmax(_address(scores), rows, t, _address(bias),
                         rows // bias.shape[0])
        return scores

    def __reduce__(self):
        return softmax_kernel, ()


def layer_norm_kernel():
    """The float32 LayerNorm for this host: :class:`NativeLayerNorm`
    when the library loads, else :func:`.kernels.fused_layer_norm`."""
    return NativeLayerNorm() if load() is not None else fused_layer_norm


class NativeLayerNorm:
    """Float32 LayerNorm over the last axis through ``rows.c``, in the
    LayerNorm slot's call shape ``fn(x, weight, bias, eps, out=, ws=,
    key=)``.

    ``x``'s rows may be strided (``classify`` hands over ``x[:, 0, :]``);
    ``out`` is written whole and may not alias ``x``.  Every float32
    compile folds the affine into the next GEMM and passes ``None``, so
    this kernel takes none.  A row's bits depend only on that row
    (``rows.c``).  Built only by
    :func:`layer_norm_kernel`, through which it also unpickles.  ``ws``
    and ``key`` are unused.
    """

    __slots__ = ()

    def __call__(self, x, weight, bias, eps, out, ws=None, key=None):
        if x.dtype != np.float32 or out.dtype != np.float32:
            raise TypeError(f"native LayerNorm takes float32, not "
                            f"{x.dtype} into {out.dtype}")
        if out.shape != x.shape:
            raise ValueError(f"out {out.shape} does not match x {x.shape}")
        if weight is not None or bias is not None:
            raise ValueError("native LayerNorm takes no affine: float32 "
                             "compiles fold it into the next GEMM")
        if not out.flags.c_contiguous:
            out[...] = self(x, weight, bias, eps,
                            np.empty(out.shape, np.float32))
            return out
        stride = _row_stride(x)
        if stride is None:
            x = np.ascontiguousarray(x)
            stride = x.shape[-1]
        if x.size:
            d = x.shape[-1]
            _library.layer_norm(_address(x), x.size // d, d, stride,
                                _address(out), eps)
        return out

    def __reduce__(self):
        return layer_norm_kernel, ()


def _row_stride(x):
    """Floats from one row of ``x`` to the next when its rows are evenly
    spaced runs of contiguous floats (a C-contiguous array, or a 2-D
    view such as ``x[:, 0, :]``), else ``None``."""
    if x.flags.c_contiguous:
        return x.shape[-1]
    step, unit = x.strides[0], x.itemsize
    if (x.ndim == 2 and x.strides[1] == unit and step >= 0
            and step % unit == 0):
        return step // unit
    return None
