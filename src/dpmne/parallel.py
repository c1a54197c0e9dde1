"""Thread policy: one worker thread per view, each running single-threaded BLAS.

Training's parallelism is the per-view thread pool of ``map_views``: one
worker per view, capped by the DPMNE_THREADS variable. The trainer sends a
view's work there only when its forward pass is large enough to pay for a
thread (``trainer._VIEW_THREAD_MIN_MACS``) and runs smaller views inline.
The products are small, so BLAS threads on top of the view threads
oversubscribe the CPUs and change how sums are split; ``one_blas_thread``
holds the bundled OpenBLAS libraries at one thread while training runs.
"""

import contextlib
import ctypes
import importlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# (extension module linked against an OpenBLAS, its get/set-thread-count symbols):
# numpy's 64-bit-integer OpenBLAS and scipy's own, which the Cholesky solves use
_OPENBLAS_HOOKS = (
    ("numpy._core._multiarray_umath",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy.linalg._fblas",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)

_blas_lock = threading.Lock()
_blas_controls = None   # [(get, set)] per library found; resolved on first entry
_blas_depth = 0         # callers inside one_blas_thread
_blas_saved = []        # thread counts to restore when the last caller leaves


def worker_count(num_tasks):
    """Workers for ``num_tasks`` independent jobs: one per job, capped by DPMNE_THREADS.

    DPMNE_THREADS at 0, blank or unset sets no cap, so each job gets its own
    worker even when there are more jobs than CPUs; 1 runs them inline.
    """
    raw = os.environ.get("DPMNE_THREADS", "").strip() or "0"
    try:
        requested = int(raw)
    except ValueError:
        raise ValueError(f"DPMNE_THREADS must be an integer, got {raw!r}")
    if requested < 0:
        raise ValueError(f"DPMNE_THREADS must be >= 0, got {requested}")
    return max(1, min(requested or num_tasks, num_tasks))


def map_views(fn, items):
    """Order-preserving map over independent per-view jobs."""
    items = list(items)
    workers = worker_count(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _find_blas_controls():
    """(get, set) thread-count functions of every bundled OpenBLAS that resolves.

    A build without them (MKL, Accelerate, another OpenBLAS packaging) is
    skipped, so the list may be empty.
    """
    controls = []
    for module, get_name, set_name in _OPENBLAS_HOOKS:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return controls


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every found OpenBLAS at one thread, then restore.

    Entries nest and may come from several threads at once: the first entry
    saves the thread counts and sets 1, the last exit restores them.
    """
    global _blas_controls, _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_controls is None:
            _blas_controls = _find_blas_controls()
        if _blas_depth == 0:
            _blas_saved = [get() for get, _ in _blas_controls]
            for _, set_ in _blas_controls:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for (_, set_), count in zip(_blas_controls, _blas_saved):
                    set_(count)
