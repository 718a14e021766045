"""Native row, attention, elementwise and block loops, built at set-up:
one library, four sources.

* ``gelu.c`` -- the float32 GELU.  :func:`.kernels.gelu_rational` makes
  nineteen whole-array numpy passes; ``gelu.c`` runs the same
  arithmetic (the same ``_ERF_C`` / ``_ERF_A``) as one vectorised
  loop, ~4x faster per call.  :func:`gelu_kernel` is the float32 GELU a
  compile puts in its slots: a :class:`NativeGelu` when the library
  builds and loads, else :func:`.kernels.gelu_rational`, which stays
  the definition.
* ``rows.c`` -- the float32 LayerNorm, one sweep per row (numpy makes
  6-8 whole-array passes), reading strided rows and stopping at the
  normalised row, because every float32 compile folds the affine into
  the next GEMM.  :func:`layer_norm_kernel` gives
  :class:`NativeLayerNorm` when the library loads, else
  :func:`.kernels.fused_layer_norm`, which stays the definition.  Held
  to float32 bounds, not to numpy's bits; a row's bits depend only on
  that row.  ``rows.c`` also holds the attention core over packed
  images (``ragged_attention_f32``): per image and head, sixteen
  queries to a vector, the scores of every key, their exp (an inline
  Cody-Waite + degree-6 polynomial; libmvec's ``expf`` is no faster
  than ``np.exp``), the sum over values and the head merge, with no
  score matrix in memory.  :func:`attention_kernel` gives
  :class:`NativeAttention` when the library loads, else
  :func:`.kernels.ragged_attention`, the definition.  An image's bits
  depend only on its own rows.
* ``block.c`` -- a whole float32 block over one chunk of packed
  images (``block_f32``): ``rows.c``'s LayerNorms and core, ``gelu.c``'s
  GELU, and the four GEMMs through the sgemm numpy itself calls, with
  their bias and residual adds -- ``CompiledBlock._run_packed``'s
  passes in its order and with its bits.  :func:`block_runner` gives a
  :class:`NativeBlock` when the library loads and numpy's sgemm is
  found (:func:`find_sgemm`), else ``None``, and the block runs its
  numpy glue (``_run_packed``), which stays the definition.
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
  (:data:`SOURCES`), all four at once (a cold build takes the slowest
  compile, ``rows.c``, not the sum), ``-O3 -march=native -fPIC`` for
  all four:
  ``-march=native`` is safe because the library is built on the host
  that serves it.  ``gelu.c`` adds ``-ffast-math``: fast-math is what
  vectorises ``expf``, and the float32 GELU is held to a bound, not to
  numpy's bits.  ``rows.c`` is float32 too but adds nothing: its
  vectors are written out, and fast-math's reassociation would fold
  its exp's range reduction (``x - n ln2_hi - n ln2_lo``) and rounding
  (``x + 1.5 * 2^23 - 1.5 * 2^23``) away.  ``qmlp.c`` and ``block.c``
  add ``-ffp-contract=off`` and no fast-math: the int8 lane's served
  bits, and the float32 runner's against its numpy glue, hold only
  while every multiply and add is its own IEEE rounding in numpy's
  order.  gcc's default ``-ffp-contract=fast`` fuses ``a * b + c``
  into one FMA (one rounding instead of two) and moves the bits.
* **BLAS.** ``block.c`` links no BLAS.  At load time
  :func:`find_sgemm` looks up ``scipy_cblas_sgemm64_`` -- the ILP64
  ``cblas_sgemm`` of the OpenBLAS numpy's wheel bundles -- through
  numpy's own extension module, and :class:`NativeBlock` hands that
  pointer to every call.  Under any other name (an MKL or another
  numpy build) there is no runner, and blocks run their numpy glue.
* **Link** the four objects into one library with ``-lm`` (libmvec's
  ``_ZGV*_expf``, else the library fails to load) and **without**
  ``-ffast-math``: gcc links ``crtfastmath.o`` for it, which turns on
  flush-to-zero for the whole process on load and silently zeroes
  every float64 subnormal.
* **Cache** the ``.so`` per user under ``~/.cache/repro``, else under a
  per-user directory in the system temp dir, keyed by every source and
  every flag, the compiler's version and the host's ISA.  A directory
  or library that another user can write is never loaded from.
* **When.** A native kernel (:class:`NativeGelu`,
  :class:`NativeLayerNorm`, :class:`NativeAttention`,
  :class:`NativeBlock`) or a :class:`.quantized.FusedHiddenLayer`
  loads the library when it is built and again when it is unpickled (a
  pool worker), the :class:`.kernels.SciPyImport` pattern: no request
  compiles or loads anything.  The build costs ~0.5 s once per host
  (2-vCPU host); a warm set-up only probes the compiler's version, once
  per process.

If there is no compiler, or any compile, the link or the load fails,
no library is left in the cache and the numpy kernels run.  There is
no option to choose.

Helper threads
--------------
A :class:`NativeBlock` call releases the GIL for its length (a ctypes
``CDLL`` call does), so a block whose packed rows span two or more
chunks runs them on its caller and on this process's helper threads:
as many as the CPUs in the process's affinity mask, less one.  They
start with the first runner a compile or an unpickle builds, never in a
request, each with its own scratch arena; the caller offers a block's
chunks, drains them itself, and waits only for the chunks a helper has
taken -- so a busy helper (serving another session) delays nothing, and
two sessions that share the helpers cannot deadlock.  A chunk's bits
do not depend on the thread that runs it.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import queue
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.engine.fastpath.kernels import (_ERF_A, _ERF_C, fused_layer_norm,
                                           gelu_rational, ragged_attention)
from repro.engine.fastpath.workspace import Workspace

__all__ = ["load", "Library", "gelu_kernel", "NativeGelu",
           "layer_norm_kernel", "NativeLayerNorm", "attention_kernel",
           "NativeAttention", "find_sgemm", "block_runner", "NativeBlock"]

#: Each source next to this module and the flags it compiles with.
SOURCES = {
    Path(__file__).with_name("gelu.c"):
        ("-O3", "-ffast-math", "-march=native", "-fPIC"),
    Path(__file__).with_name("qmlp.c"):
        ("-O3", "-march=native", "-ffp-contract=off", "-fPIC"),
    Path(__file__).with_name("rows.c"):
        ("-O3", "-march=native", "-fPIC"),
    Path(__file__).with_name("block.c"):
        ("-O3", "-march=native", "-ffp-contract=off", "-fPIC"),
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
    """Compile every source at once, wait for all of them, and link
    into a private temporary directory next to ``target``; then move the
    library into place in one rename, so a concurrent loader sees no
    library or a whole one.  If any compile fails, nothing is linked and
    the first failure is raised once every compile has ended.  The
    linker's mode follows the umask (group-writable under ``umask
    002``), so the library is made writable by its owner alone."""
    with tempfile.TemporaryDirectory(dir=target.parent) as scratch:
        objects, failures = [], []

        def compile_one(command):
            try:
                _run(command)
            except (OSError, subprocess.SubprocessError) as error:
                failures.append(error)          # raised below, once all end

        compiles = []
        for source, flags in SOURCES.items():
            objects.append(str(Path(scratch) / f"{source.stem}.o"))
            compiles.append(threading.Thread(target=compile_one, args=(
                [compiler, *flags, "-c", str(source), "-o", objects[-1]],)))
        for thread in compiles:
            thread.start()
        for thread in compiles:
            thread.join()
        if failures:
            raise failures[0]
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

    __slots__ = ("gelu", "tile", "quantize", "layer_norm", "attention",
                 "block", "block_scratch")

    def __init__(self, cdll):
        pointer, size = ctypes.c_void_p, ctypes.c_size_t
        self.gelu = _typed(cdll.gelu_rational_f32, pointer, size, pointer)
        self.tile = _typed(cdll.qmlp_tile, pointer, size, size, pointer,
                           ctypes.c_int, pointer, pointer, pointer)
        self.quantize = _typed(cdll.qmlp_quantize, pointer, pointer, size,
                               ctypes.c_float)
        self.layer_norm = _typed(cdll.layer_norm_rows_f32, pointer, size,
                                 size, size, pointer, ctypes.c_float)
        self.attention = _typed(cdll.ragged_attention_f32, pointer, pointer,
                                size, size, size, size, pointer)
        self.attention.restype = ctypes.c_int
        self.block = _typed(cdll.block_f32, pointer, pointer, pointer, size,
                            pointer)
        self.block.restype = ctypes.c_int
        self.block_scratch = _typed(cdll.block_f32_scratch, pointer, size)
        self.block_scratch.restype = ctypes.c_size_t


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


def _status_error(status, rows):
    """The exception for a non-zero status of ``rows.c``'s core or
    ``block.c``'s runner."""
    return (MemoryError() if status == -2 else ValueError(
        f"offsets do not cut {rows} rows into ordered images"))


def attention_kernel():
    """The float32 attention core for this host: :class:`NativeAttention`
    when the library loads, else :func:`.kernels.ragged_attention`."""
    return NativeAttention() if load() is not None else ragged_attention


class NativeAttention:
    """Float32 attention over packed images through ``rows.c``, in the
    core slot's call shape ``fn(qkv, offsets, heads, out, ws=, key=)``
    (:func:`.kernels.ragged_attention`).

    For each image and head it takes sixteen queries to a vector,
    scores them against every key, runs the softmax's max, exp
    (``rows.c``'s) and sum over the keys and accumulates the values --
    no score matrix in memory, no padding, no key bias.  An image's
    bits depend only on its own rows (``rows.c``).  Built only by
    :func:`attention_kernel`, through which it also unpickles.  ``ws``
    and ``key`` are unused.
    """

    __slots__ = ()

    def __call__(self, qkv, offsets, heads, out, ws=None, key=None):
        if qkv.dtype != np.float32 or out.dtype != np.float32:
            raise TypeError(f"native attention takes float32, not "
                            f"{qkv.dtype} into {out.dtype}")
        rows, dim = out.shape
        if qkv.shape != (rows, 3 * dim) or dim % heads:
            raise ValueError(f"qkv {qkv.shape} does not match out "
                             f"{out.shape} with {heads} heads")
        if not out.flags.c_contiguous:
            out[...] = self(qkv, offsets, heads, np.empty((rows, dim),
                                                          np.float32))
            return out
        qkv = np.ascontiguousarray(qkv)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size == 0:
            raise ValueError(f"offsets {offsets.shape} hold no image")
        status = _library.attention(_address(qkv), _address(offsets),
                                    offsets.size - 1, rows, heads,
                                    dim // heads, _address(out))
        if status:
            raise _status_error(status, rows)
        return out

    def __reduce__(self):
        return attention_kernel, ()


@functools.cache
def find_sgemm():
    """Address of the sgemm numpy calls for a 2-D float32 matmul --
    ``scipy_cblas_sgemm64_``, the ILP64 ``cblas_sgemm`` of the OpenBLAS
    numpy's wheel bundles -- or ``None`` when numpy's extension module
    does not reach a symbol of that name (an MKL or another numpy
    build).  ``dlsym`` on the module's handle searches the libraries it
    links, so nothing is loaded that numpy has not loaded already."""
    core = getattr(np, "_core", None) or np.core
    try:
        symbol = ctypes.CDLL(core._multiarray_umath.__file__)[
            "scipy_cblas_sgemm64_"]
    except (AttributeError, OSError):
        return None
    return ctypes.cast(symbol, ctypes.c_void_p).value


class _BlockParams(ctypes.Structure):
    """``block.c``'s ``struct block_f32``."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "sgemm", "qkv_w", "qkv_b", "proj_w", "proj_b", "fc1_w", "fc1_b",
        "fc2_w", "fc2_b", "gelu")] + [
        (name, ctypes.c_int64) for name in ("dim", "hidden", "heads")] + [
        ("eps1", ctypes.c_float), ("eps2", ctypes.c_float)]


def block_runner(linears, heads, eps1, eps2):
    """A :class:`NativeBlock` over ``linears`` -- the block's qkv, proj,
    fc1 and fc2 kernels, each with a float32 ``weight`` and a ``bias``
    or ``None`` -- when the library loads and numpy's sgemm is found
    (:func:`find_sgemm`), else ``None``.  Starts this process's helper
    threads, so a compile or an unpickle starts them, never a
    request."""
    if load() is None:
        return None
    sgemm = find_sgemm()
    if sgemm is None:
        return None
    _start_helpers()
    return NativeBlock(linears, heads, eps1, eps2, sgemm)


class NativeBlock:
    """One float32 block chunk as one call into ``block.c``: the
    passes of ``CompiledBlock._run_packed`` (both LayerNorms, the four
    GEMMs with their biases, the attention core, the GELU, both
    residuals) on a chunk of whole packed images, with its bits.

    :meth:`__call__` takes a block's chunks and runs them on the caller
    and, from two chunks up, on the helper threads (module docstring).
    The call releases the GIL and the C side touches no Python object.
    Built only by :func:`block_runner`, through which it also unpickles:
    the weight and sgemm addresses are rebuilt, never pickled, and the
    kernels it holds pickle as the block's own.
    """

    __slots__ = ("linears", "heads", "eps", "_params", "_at")

    def __init__(self, linears, heads, eps1, eps2, sgemm):
        qkv, proj, fc1, fc2 = linears
        dim, hidden = fc1.weight.shape
        shapes = {qkv: (dim, 3 * dim), proj: (dim, dim),
                  fc1: (dim, hidden), fc2: (hidden, dim)}
        for kernel, shape in shapes.items():
            weight, bias = kernel.weight, kernel.bias
            if (weight.dtype != np.float32 or weight.shape != shape
                    or not weight.flags.c_contiguous
                    or bias is not None and (bias.dtype != np.float32
                                             or bias.shape != shape[1:]
                                             or not bias.flags.c_contiguous)):
                raise ValueError(f"native block takes contiguous float32 "
                                 f"weights {shape}, not {weight.shape}")
        if dim % heads:
            raise ValueError(f"{heads} heads do not divide {dim} features")
        self.linears, self.heads, self.eps = linears, heads, (eps1, eps2)

        def address(array):
            return None if array is None else array.ctypes.data

        self._params = _BlockParams(
            sgemm, *(address(array) for kernel in linears
                     for array in (kernel.weight, kernel.bias)),
            _COEFFS_ADDRESS, dim, hidden, heads, eps1, eps2)
        self._at = ctypes.addressof(self._params)

    def __call__(self, x, offsets, chunks, ws):
        """The block, in place on packed ``(R, D)`` rows ``x`` (C-
        contiguous float32) whose image ``i`` owns rows ``offsets[i]``
        to ``offsets[i + 1]``; ``chunks`` are ``(lo, hi)`` image ranges,
        each of at least two rows, run one native call each.  The
        caller's scratch is ``ws``'s ``blk_run`` arena."""
        if (x.dtype != np.float32 or not x.flags.c_contiguous
                or not x.flags.writeable):
            raise TypeError(f"native block takes writable C-contiguous "
                            f"float32 rows, not {x.dtype}")
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if (x.ndim != 2 or x.shape[1] != self._params.dim or offsets[0] < 0
                or offsets[-1] > x.shape[0]):
            raise ValueError(f"offsets {offsets[[0, -1]]} do not cut rows "
                             f"{x.shape} of {self._params.dim} features")
        at = _address(offsets)
        calls = [(at + 8 * lo, hi - lo) for lo, hi in chunks]
        rows = max(int(offsets[hi] - offsets[lo]) for lo, hi in chunks)
        job = _Chunks(self._at, _address(x), calls,
                      _library.block_scratch(self._at, rows), x.shape[0])
        helpers = _helpers
        if len(calls) > 1 and helpers is not None:     # None: forked
            helpers.offer(job)
        job.drain(ws)
        job.wait()
        return x

    def __reduce__(self):
        return block_runner, (self.linears, self.heads, *self.eps)


class _Chunks:
    """One block call's chunks, taken one at a time by whichever thread
    asks next: the caller, and any helper it was offered to."""

    __slots__ = ("params", "x", "calls", "floats", "rows", "taken",
                 "running", "done", "error")

    def __init__(self, params, x, calls, floats, rows):
        self.params, self.x, self.calls = params, x, calls
        self.floats, self.rows = floats, rows
        self.taken = self.running = 0
        self.done = threading.Condition(threading.Lock())
        self.error = None

    def _take(self):
        with self.done:
            if self.taken == len(self.calls):
                return None
            self.taken += 1
            self.running += 1
            return self.calls[self.taken - 1]

    def drain(self, ws):
        """Run chunks on this thread, with ``ws``'s scratch, until none
        is left."""
        scratch = None
        while (call := self._take()) is not None:
            try:
                if scratch is None:             # held while it runs
                    scratch = ws.take("blk_run", (self.floats,))
                    at = _address(scratch)
                status = _library.block(self.params, self.x, *call, at)
                if status:
                    raise _status_error(status, self.rows)
            except BaseException as error:
                # Re-raised by the caller's wait(), once every chunk has
                # run: a caller that left early would leave a helper
                # writing rows the next request owns.
                self.error = error
            finally:
                with self.done:
                    self.running -= 1
                    if not self.running:
                        self.done.notify_all()

    def wait(self):
        """Once the caller has drained: wait for the chunks a helper is
        still running, then raise the first chunk's error, if any."""
        with self.done:
            self.done.wait_for(lambda: not self.running)
        if self.error is not None:
            raise self.error


class _Helpers:
    """This process's helper threads: each takes offered block calls
    and drains them beside their caller, with its own scratch."""

    def __init__(self, count):
        self._offers = queue.SimpleQueue()
        self.threads = [threading.Thread(target=self._serve, daemon=True,
                                         name=f"repro-engine-helper-{i}")
                        for i in range(count)]
        for thread in self.threads:
            thread.start()

    def offer(self, job):
        """Offer ``job`` to up to one helper per chunk past the
        caller's first; a busy helper finds it drained later."""
        for _ in range(min(len(self.threads), len(job.calls) - 1)):
            self._offers.put(job)

    def _serve(self):
        ws = Workspace(np.float32)
        while True:
            self._offers.get().drain(ws)


_helpers = None
_helpers_lock = threading.Lock()


def _start_helpers():
    """Start this process's helper threads once: one per CPU of the
    affinity mask, less the caller's."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            cpus = (len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            _helpers = _Helpers(cpus - 1)
    return _helpers


def _forget_helpers():
    """A forked child inherits no thread: its runners serve serially
    until an unpickle or a compile starts its own helpers."""
    global _helpers, _helpers_lock
    _helpers, _helpers_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)
