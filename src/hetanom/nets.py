"""Minimal differentiable-network kernel in float64 numpy.

Two architectures live here: the scorer (one hidden rectifier layer, one
raw output score) shared by every base model and the unified model, and
the sequence predictor (two-layer bidirectional LSTM followed by a small
fully-connected head) that forecasts the next epoch's score vectors.
Gradients are hand-written reverse mode; both nets keep their parameters
in one flat vector so optimizer steps, broadcasting and checkpointing are
single array operations.

Both nets take batches only: the scorer (n, d) rows, the sequence
predictor (n, K, T) histories. The scorer takes an optional leading
stack axis: parameters (G, P) run G scorers in one call, which is how
the T base scorers train. Adam is elementwise with a step count per
stacked row, so rows may sit a step out. The sequence predictor keeps
its recurrence rows-innermost, states (K, 2, H, n) and step products
``U @ h``, with the gate rows in the order i, f, o, g, all four from one
tanh call per step; its backward pass runs in the same order and layout.
Its flat parameters are laid out as the recurrence reads them, so every
block it reads, and every weight gradient it writes, is a view.

Every product in training is small (batch 32, hidden width 7 in the
LSTM, a few thousand rows at most), too small for a second BLAS thread
to pay; OpenBLAS would still wake one and leave it spinning between
calls. ``one_blas_thread`` runs a scope on one BLAS thread and restores
the process's count when the outermost scope exits; training enters it,
and so does ``ScorerNet.forward``. Where the BLAS has no
``openblas_set_num_threads_local`` (MKL, Accelerate, OpenBLAS before
0.3.27) it does nothing.

A row's output can depend on where the row sits in the batch:
OpenBLAS's matrix-vector product (the scorer's ``a1 @ w2``, the sequence
predictor's output map at ``t_dim=1``) runs the last ``n % 4`` rows of a
call, and a one-row call, down other kernels, and at two threads it
splits the rows at a point that is not a multiple of 4. Calls whose rows
start at multiples of 4 from the first row, none of them one row long,
give every row the bits of one whole-batch call on one thread. Both
nets' inference runs a long batch that way (``_aligned_blocks``): in
blocks of ``SCORE_ROWS`` or ``INFER_ROWS`` rows from the first row, a
lone last row joining the block before it, so the temporaries stay in
cache and the outputs do not depend on the block size or, for
``ScorerNet.forward``, on the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import struct
import threading

import numpy as np

from .errors import ConfigurationError, HetanomError

CHECKPOINT_MAGIC = b"AHL1"


@functools.cache
def _numpy_core():
    """numpy's own extension module, and the same opened as a library,
    whose dependencies (the BLAS among them) ``dlsym`` searches."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    return _multiarray_umath, ctypes.CDLL(_multiarray_umath.__file__)


@functools.cache
def _blas_set_threads():
    """OpenBLAS's ``openblas_set_num_threads_local`` (sets the count, returns
    the previous one), resolved through numpy's extension module; None where
    the BLAS lacks it."""
    fn = getattr(_numpy_core()[1], "openblas_set_num_threads_local", None)
    if fn is not None:
        fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
    return fn


def float_platform() -> dict:
    """What decides a run's float bits besides the package and its inputs:
    numpy's version, its baseline and active CPU-dispatch targets, and
    OpenBLAS's config string and core name, resolved as
    ``_blas_set_threads`` resolves its symbol (None where the BLAS has no
    such symbol)."""
    core, lib = _numpy_core()
    record = {
        "numpy": np.__version__,
        "cpu_baseline": list(core.__cpu_baseline__),
        "cpu_dispatch": [t for t in core.__cpu_dispatch__ if core.__cpu_features__.get(t)],
    }
    for key, name in (("openblas_config", "get_config"), ("openblas_corename", "get_corename")):
        fn = getattr(lib, f"scipy_openblas_{name}64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
        record[key] = fn().decode() if fn is not None else None
    return record


# The OpenBLAS count is process-wide, not per thread: scopes on any thread
# share one depth, and only the outermost saves and restores the count.
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 0


@contextlib.contextmanager
def one_blas_thread():
    """Run the scope (or, as a decorator, each call) on one BLAS thread.
    Nested and concurrent scopes leave the count as the first one found it,
    also when the scope raises."""
    global _blas_depth, _blas_saved
    set_threads = _blas_set_threads()
    if set_threads is None:
        yield
        return
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = set_threads(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_threads(_blas_saved)


def _aligned_blocks(n, size):
    """Slices of ``size`` rows covering n rows from the first, a lone last
    row joining the block before it (see the module notes)."""
    stops = [*range(size, n - 1, size), n]
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


def _both_directions(x):
    """(K, d, n) sequence -> C-ordered (K, 2, d, n): as read, and reversed.
    (BLAS results depend on the memory layout, so it is fixed here.)"""
    xs = np.empty((x.shape[0], 2) + x.shape[1:])
    xs[:, 0] = x
    xs[:, 1] = x[::-1]
    return xs


def _uniform_block(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class ScorerNet:
    """d -> hidden -> 1 scorer: ``score = W2 . relu(W1 x + b1) + b2``.

    Parameters are a flat vector in declaration order W1, b1, W2, b2, or a
    (G, P) stack of G such vectors. A stack runs G scorers in one call, on
    inputs (G, n, d), each row of it with its own parameters; one net is
    the unstacked case of the same code.
    """

    # a power of two, so a multiple of 4; at the default hidden width of
    # 64 a block's two (rows, hidden) temporaries take 1 MB, inside a
    # core's L2 cache
    SCORE_ROWS = 1024

    def __init__(self, dim: int, hidden: int, theta: np.ndarray):
        self.dim = dim
        self.hidden = hidden
        expected = self.param_count(dim, hidden)
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim not in (1, 2) or theta.shape[-1] != expected:
            raise HetanomError(f"scorer wants {expected} parameters, got {theta.shape}")
        self.theta = theta

    @staticmethod
    def param_count(dim: int, hidden: int) -> int:
        return dim * hidden + hidden + hidden + 1

    @classmethod
    def init(cls, dim: int, hidden: int, rng: np.random.Generator) -> "ScorerNet":
        w1 = _uniform_block(rng, (hidden, dim), dim)
        b1 = _uniform_block(rng, (hidden,), dim)
        w2 = _uniform_block(rng, (hidden,), hidden)
        b2 = _uniform_block(rng, (1,), hidden)
        return cls(dim, hidden, np.concatenate([w1.ravel(), b1, w2, b2]))

    def _views(self):
        d, h = self.dim, self.hidden
        theta = self.theta
        w1 = theta[..., : d * h].reshape(theta.shape[:-1] + (h, d))
        b1 = theta[..., d * h : d * h + h]
        w2 = theta[..., d * h + h : d * h + 2 * h]
        b2 = theta[..., -1]
        return w1, b1, w2, b2

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Scores for a batch (n, d) -> (n,); a stack scores (G, n, d) -> (G, n).

        Runs on one BLAS thread, in aligned blocks of ``SCORE_ROWS`` rows
        (see the module notes).
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim < 2 or X.shape[-1] != self.dim:
            raise HetanomError(f"input must be a batch (n, {self.dim}), got {X.shape}")
        with one_blas_thread():
            return np.concatenate([self.forward_with_cache(X[..., rows, :])[0]
                                   for rows in _aligned_blocks(X.shape[-2], self.SCORE_ROWS)],
                                  axis=-1)

    def forward_with_cache(self, X):
        w1, b1, w2, b2 = self._views()
        z1 = X @ w1.swapaxes(-1, -2) + b1[..., None, :]
        a1 = np.maximum(z1, 0.0)
        scores = (a1 @ w2[..., None])[..., 0] + b2[..., None]
        return scores, (X, z1, a1)

    def backward(self, cache, dscores: np.ndarray) -> np.ndarray:
        """Gradient of sum(dscores . scores) w.r.t. the flat parameters,
        (P,) or, for a stack, (G, P)."""
        X, z1, a1 = cache
        w1, b1, w2, b2 = self._views()
        dw2 = (a1.swapaxes(-1, -2) @ dscores[..., None])[..., 0]
        db2 = dscores.sum(axis=-1)
        dz1 = dscores[..., None] * w2[..., None, :]
        dz1 *= z1 > 0
        dw1 = dz1.swapaxes(-1, -2) @ X
        db1 = dz1.sum(axis=-2)
        lead = self.theta.shape[:-1]
        return np.concatenate([dw1.reshape(lead + (-1,)), db1, dw2, db2[..., None]], axis=-1)

    def descriptor(self) -> dict:
        return {"kind": "scorer", "dim": self.dim, "hidden": self.hidden}


class SequencePredictor:
    """Forecasts the next score vector from a history window.

    Input is (n, K, T); each of the two stacked layers runs one LSTM of
    hidden size 7 per direction, the final states of the last layer's two
    directions feed a 14-unit rectifier layer and a linear map back to T.

    Both directions of a layer run in one recurrence: each of its blocks
    ``W`` (2, 4H, d), ``U`` (2, 4H, H) and ``b`` (2, 4H) stacks them on a
    leading axis (forward, backward), gate rows i, f, o, g, and every step
    is one batched matmul. Sequences are kept time-major with the rows
    innermost, (K, 2, ·, n), each direction's inputs in its own reading
    order, so a step's products are ``U @ h`` and its gate arithmetic runs
    on contiguous blocks.
    """

    HIDDEN = 7
    FC_HIDDEN = 2 * HIDDEN
    INFER_ROWS = 512
    # the checkpoint's name for the parameter layout; a checkpoint without
    # it kept each direction's blocks apart, gate rows i, f, g, o
    LAYOUT = "stacked-ifog"

    def __init__(self, t_dim: int, theta: np.ndarray):
        self.t_dim = t_dim
        H, F = self.HIDDEN, self.FC_HIDDEN
        shapes = {}
        for layer, in_dim in (("l1", t_dim), ("l2", 2 * H)):
            shapes |= {f"{layer}.W": (2, 4 * H, in_dim), f"{layer}.U": (2, 4 * H, H),
                       f"{layer}.b": (2, 4 * H)}
        shapes |= {"fc.W": (F, 2 * H), "fc.b": (F,), "out.W": (t_dim, F), "out.b": (t_dim,)}
        self._offsets = {}
        pos = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self._offsets[name] = (pos, pos + size, shape)
            pos += size
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (pos,):
            raise HetanomError(f"sequence net wants {pos} parameters, got {theta.shape}")
        self.theta = theta

    @classmethod
    def init(cls, t_dim: int, rng: np.random.Generator) -> "SequencePredictor":
        """Uniform draws in +-1/sqrt(fan-in): a weight map's fan-in is its
        input width, an LSTM bias's the hidden width, a head bias's its
        layer's input width. Each LSTM layer draws one direction after the
        other, W, U and b in turn with the gate rows i, f, g, o, the order
        the pinned fits were drawn in; the rows are then stacked in the
        order i, f, o, g."""
        H = cls.HIDDEN
        blocks = []
        for in_dim in (t_dim, 2 * H):
            drawn = [(_uniform_block(rng, (4 * H, in_dim), in_dim),
                      _uniform_block(rng, (4 * H, H), H),
                      _uniform_block(rng, (4 * H,), H)) for _ in "fb"]
            blocks += [np.stack(both).reshape(2, 4, H, -1)[:, [0, 1, 3, 2]]
                       for both in zip(*drawn)]
        for rows, cols in ((cls.FC_HIDDEN, 2 * H), (t_dim, cls.FC_HIDDEN)):
            blocks += [_uniform_block(rng, (rows, cols), cols), _uniform_block(rng, (rows,), cols)]
        return cls(t_dim, np.concatenate([block.ravel() for block in blocks]))

    def block(self, name: str) -> np.ndarray:
        return self._view(self.theta, name)

    def _view(self, flat, name):
        start, stop, shape = self._offsets[name]
        return flat[start:stop].reshape(shape)

    def forward(self, history: np.ndarray) -> np.ndarray:
        """(n, K, T) history -> (n, T) prediction. Rows are independent:
        aligned blocks keep the temporaries small and every row's bits those
        of one call (see the module notes); no per-step state is kept."""
        S = self._checked(history)
        return np.concatenate([self._forward(S[rows], keep=False)[0]
                               for rows in _aligned_blocks(len(S), self.INFER_ROWS)])

    def forward_with_cache(self, history):
        """Prediction for an (n, K, T) history and the cache ``backward`` needs."""
        return self._forward(self._checked(history), keep=True)

    def _checked(self, history):
        S = np.asarray(history, dtype=np.float64)
        if S.ndim != 3 or S.shape[2] != self.t_dim:
            raise HetanomError(f"history must be (n, K, {self.t_dim}), got {S.shape}")
        return S

    def _forward(self, S, keep):
        H = self.HIDDEN
        h1, cache1 = self._lstm_forward(_both_directions(S.transpose(1, 2, 0)), "l1", keep)
        u = _both_directions(np.concatenate([h1[:, 0], h1[::-1, 1]], axis=1))
        h2, cache2 = self._lstm_forward(u, "l2", keep)
        # the head runs rows-major: (n, 2H), each direction's final state
        head = np.ascontiguousarray(h2[-1].reshape(2 * H, -1).T)
        wf, bf = self.block("fc.W"), self.block("fc.b")
        wo, bo = self.block("out.W"), self.block("out.b")
        zf = head @ wf.T + bf
        af = np.maximum(zf, 0.0)
        out = af @ wo.T + bo
        return out, (cache1, cache2, head, zf, af)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        """Gradient of sum(dout . output) w.r.t. the flat parameters."""
        cache1, cache2, head, zf, af = cache
        dout = np.asarray(dout, dtype=np.float64)
        grad = np.zeros_like(self.theta)
        H = self.HIDDEN
        n, K = head.shape[0], cache2[0].shape[0]

        wf, wo = self.block("fc.W"), self.block("out.W")
        self._view(grad, "out.W")[...] = dout.T @ af
        self._view(grad, "out.b")[...] = dout.sum(axis=0)
        daf = dout @ wo
        dzf = daf * (zf > 0)
        self._view(grad, "fc.W")[...] = dzf.T @ head
        self._view(grad, "fc.b")[...] = dzf.sum(axis=0)
        dhead = dzf @ wf

        dh2 = np.zeros((K, 2, H, n))
        dh2[-1] = dhead.T.reshape(2, H, n)
        dx2 = self._lstm_backward(cache2, dh2, grad, "l2", need_dx=True)
        du = dx2[:, 0] + dx2[::-1, 1]
        dh1 = np.stack([du[:, :H], du[::-1, H:]], axis=1)
        self._lstm_backward(cache1, dh1, grad, "l1", need_dx=False)
        return grad

    def _lstm_forward(self, xs, layer, keep):
        """Both directions over (K, 2, d, n) inputs -> (K, 2, H, n) states,
        and with ``keep`` the cache ``_lstm_backward`` reads.

        The gate rows run in the order i, f, o, g, so one tanh call covers
        all four gates: the i, f, o rows take it at half their input and
        become sigmoids as sigmoid(x) = (1 + tanh(x / 2)) / 2. tanh cannot
        overflow, so a saturated gate is an exact 0 or 1.
        """
        H = self.HIDDEN
        K, _, _, n = xs.shape
        W, U, b = (self.block(f"{layer}.{part}") for part in "WUb")
        # per-step products (4H, d) @ (d, n) and the bias, for all K steps
        xw = np.matmul(W, xs)
        xw += b[:, :, None]
        hs = np.zeros((K + 1, 2, H, n))  # hs[t] is the state entering step t
        z = np.empty((2, 4 * H, n))
        c = np.zeros((2, H, n))
        steps = []
        for t in range(K):
            np.matmul(U, hs[t], out=z)
            z += xw[t]
            z[:, : 3 * H] *= 0.5
            gates = np.tanh(z)
            sig, g = gates[:, : 3 * H], gates[:, 3 * H :]
            sig *= 0.5
            sig += 0.5
            i, f, o = sig[:, :H], sig[:, H : 2 * H], sig[:, 2 * H :]
            c_prev, c = c, f * c
            c += i * g
            tanh_c = np.tanh(c)
            np.multiply(o, tanh_c, out=hs[t + 1])
            if keep:
                steps.append((c_prev, sig, g, tanh_c))
        return hs[1:], ((xs, hs, steps) if keep else None)

    def _lstm_backward(self, cache, dh_out, grad, layer, need_dx):
        """Backpropagation through time for both directions, in the forward's
        gate order i, f, o, g and layout (step, direction, unit, row). Each
        step's dz goes into one (K, 2, 4H, n) buffer; the weight gradients
        are then one batched product per block summed over the steps,
        written through the block's view of ``grad``."""
        xs, hs, steps = cache
        H = self.HIDDEN
        K, _, _, n = xs.shape
        Ut = self.block(f"{layer}.U").swapaxes(-1, -2)
        dzs = np.empty((K, 2, 4 * H, n))
        dh_next = np.zeros((2, H, n))
        dc_next = np.zeros((2, H, n))
        for t in reversed(range(K)):
            c_prev, sig, g, tanh_c = steps[t]
            i, f, o = sig[:, :H], sig[:, H : 2 * H], sig[:, 2 * H :]
            dz = dzs[t]
            dh = dh_out[t] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c ** 2)
            # sigmoid gates: (upstream * s) * (1 - s)
            dsig = dz[:, : 3 * H]
            np.multiply(dc, g, out=dsig[:, :H])
            np.multiply(dc, c_prev, out=dsig[:, H : 2 * H])
            np.multiply(dh, tanh_c, out=dsig[:, 2 * H :])
            dsig *= sig
            dsig *= 1.0 - sig
            dg = dz[:, 3 * H :]
            np.multiply(dc, i, out=dg)
            dg *= 1.0 - g ** 2
            dc_next = dc * f
            dh_next = np.matmul(Ut, dz)
        self._view(grad, f"{layer}.W")[...] = np.matmul(dzs, xs.swapaxes(-1, -2)).sum(axis=0)
        self._view(grad, f"{layer}.U")[...] = np.matmul(dzs, hs[:K].swapaxes(-1, -2)).sum(axis=0)
        self._view(grad, f"{layer}.b")[...] = dzs.sum(axis=(0, 3))
        if not need_dx:
            return None
        return np.matmul(self.block(f"{layer}.W").swapaxes(-1, -2), dzs)

    def descriptor(self) -> dict:
        return {"kind": "sequence", "t_dim": self.t_dim, "layout": self.LAYOUT}


class AdamState:
    """Bias-corrected Adam over a flat parameter vector or a (G, P) stack of
    them, with a step count per row. Moments are sized on the first step,
    which must take the whole stack; a later step may take only some rows,
    and the others keep their moments and step counts. One state must not
    be shared across threads."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float):
        if lr <= 0:
            raise HetanomError("learning rate must be > 0")
        self.lr = lr
        self.t = 0
        self.m = None
        self.v = None

    def step(self, theta: np.ndarray, grad: np.ndarray, rows=None) -> np.ndarray:
        """The stepped parameters, as a new array; ``theta`` and ``grad`` are
        left as they are. With ``rows`` (indices into the stack), ``theta``
        and ``grad`` hold only those rows."""
        if grad.shape != theta.shape:
            raise HetanomError("gradient/parameter shape mismatch")
        if self.m is None:
            if rows is not None:
                raise HetanomError("the first Adam step must take every row")
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
            self.t = np.zeros(theta.shape[:-1], dtype=np.int64)
        # the whole stack's moments and step counts update in place; a
        # ``rows`` step updates gathered copies and scatters them back
        m, v = (self.m, self.v) if rows is None else (self.m[rows], self.v[rows])
        if m.shape != theta.shape:
            raise HetanomError("parameter shape differs from the Adam moments")
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad ** 2
        if rows is None:
            self.t += 1
            t = self.t
        else:
            t = self.t[rows] + 1
            self.m[rows], self.v[rows], self.t[rows] = m, v, t
        # bias corrections in Python floats, one per row
        steps = t.ravel().tolist()
        m_hat = m / np.reshape([1 - self.beta1 ** k for k in steps], t.shape + (1,))
        v_hat = v / np.reshape([1 - self.beta2 ** k for k in steps], t.shape + (1,))
        m_hat *= self.lr
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        m_hat /= v_hat
        return np.subtract(theta, m_hat, out=m_hat)


def save_checkpoint(path, net) -> None:
    """Versioned binary checkpoint: magic, descriptor, raw float64 params."""
    desc = json.dumps(net.descriptor(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(desc)))
        fh.write(desc)
        fh.write(np.ascontiguousarray(net.theta, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Rebuild a net from ``save_checkpoint`` output; a file that cannot be
    read or is malformed raises ConfigurationError naming the path."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read checkpoint: {exc.strerror}") from None
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ConfigurationError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise ConfigurationError(f"{path}: truncated header ({len(raw)} bytes)")
    (desc_len,) = struct.unpack("<I", raw[4:8])
    body = raw[8 + desc_len :]
    if len(raw) < 8 + desc_len:
        raise ConfigurationError(f"{path}: truncated header ({len(raw)} bytes, "
                                 f"descriptor wants {8 + desc_len})")
    if len(body) % 8:
        raise ConfigurationError(f"{path}: parameter bytes ({len(body)}) are not whole float64s")
    try:
        desc = json.loads(raw[8 : 8 + desc_len].decode("utf-8"))
        kind = desc.get("kind")
        theta = np.frombuffer(body, dtype="<f8").copy()
        if kind == "scorer":
            return ScorerNet(int(desc["dim"]), int(desc["hidden"]), theta)
        if kind == "sequence" and desc.get("layout") == SequencePredictor.LAYOUT:
            return SequencePredictor(int(desc["t_dim"]), theta)
    except (HetanomError, ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ConfigurationError(f"{path}: malformed checkpoint: {exc}") from exc
    if kind == "sequence":
        raise ConfigurationError(f"{path}: sequence checkpoint in parameter layout "
                                 f"{desc.get('layout')!r}, not {SequencePredictor.LAYOUT!r}")
    raise ConfigurationError(f"{path}: unknown architecture {kind!r}")
