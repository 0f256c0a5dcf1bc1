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
``U @ h``, and forms its weight gradients in the rows-major layout;
every result is bit for bit that of the per-net, rows-major formulation.

Every product in training is small (batch 32, hidden width 7 in the
LSTM, a few thousand rows at most), too small for a second BLAS thread
to pay; OpenBLAS would still wake one and leave it spinning between
calls. ``one_blas_thread`` runs a scope on one BLAS thread and restores
the process's count when the outermost scope exits; training enters it.
Where the BLAS has no ``openblas_set_num_threads_local`` (MKL,
Accelerate, OpenBLAS before 0.3.27) it does nothing.
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

from .errors import CheckpointError, ShapeError

CHECKPOINT_MAGIC = b"AHL1"


@functools.cache
def _blas_set_threads():
    """OpenBLAS's ``openblas_set_num_threads_local`` (sets the count, returns
    the previous one), resolved through numpy's own extension module, whose
    dependencies ``dlsym`` searches; None where the BLAS lacks it."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    fn = getattr(ctypes.CDLL(_multiarray_umath.__file__), "openblas_set_num_threads_local", None)
    if fn is not None:
        fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
    return fn


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


def _sigmoid(x):
    # exp(-|x|) cannot overflow. The numerator is 1 where x >= 0 and e
    # elsewhere (0 <= e <= 1, so a maximum picks it without a branch):
    # bit for bit the piecewise 1/(1+exp(-x)) and exp(x)/(1+exp(x)).
    # In-place steps keep it to one full-size temporary.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


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

    def __init__(self, dim: int, hidden: int, theta: np.ndarray):
        self.dim = dim
        self.hidden = hidden
        expected = self.param_count(dim, hidden)
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim not in (1, 2) or theta.shape[-1] != expected:
            raise ShapeError(f"scorer wants {expected} parameters, got {theta.shape}")
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
        """Scores for a batch (n, d) -> (n,); a stack scores (G, n, d) -> (G, n)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim < 2 or X.shape[-1] != self.dim:
            raise ShapeError(f"input must be a batch (n, {self.dim}), got {X.shape}")
        return self.forward_with_cache(X)[0]

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

    Both directions of a layer run in one recurrence: their parameters are
    stacked on a leading axis of size 2 (forward, backward) and every step
    is one batched matmul. Sequences are kept time-major with the rows
    innermost, (K, 2, ·, n), each direction's inputs in its own reading
    order, so a step's products are ``U @ h`` and its gate arithmetic runs
    on contiguous blocks.
    """

    HIDDEN = 7
    FC_HIDDEN = 2 * HIDDEN
    INFER_ROWS = 512

    def __init__(self, t_dim: int, theta: np.ndarray):
        self.t_dim = t_dim
        self._offsets = {}
        pos = 0
        for name, shape, _ in self._block_table(t_dim):
            size = math.prod(shape)
            self._offsets[name] = (pos, pos + size, shape)
            pos += size
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (pos,):
            raise ShapeError(f"sequence net wants {pos} parameters, got {theta.shape}")
        self.theta = theta
        # flat positions of each layer's (2, 4H, ...) W, U and b stacks,
        # gate rows reordered from i, f, g, o to i, f, o, g so the three
        # sigmoid gates form one block
        flat = np.arange(pos)
        self._ifog_index = {}
        for layer in ("l1", "l2"):
            for part in ("W", "U", "b"):
                both = np.stack([self._view(flat, f"{layer}{d}.{part}") for d in "fb"])
                self._ifog_index[layer, part] = (
                    both.reshape(2, 4, self.HIDDEN, -1)[:, [0, 1, 3, 2]].reshape(both.shape))

    @classmethod
    def _block_table(cls, t_dim):
        # (name, shape, fan_in); recurrent and bias blocks scale with the
        # hidden width, input maps with their input width
        H = cls.HIDDEN
        table = []
        for layer, in_dim in (("l1", t_dim), ("l2", 2 * H)):
            for direction in ("f", "b"):
                table.append((f"{layer}{direction}.W", (4 * H, in_dim), in_dim))
                table.append((f"{layer}{direction}.U", (4 * H, H), H))
                table.append((f"{layer}{direction}.b", (4 * H,), H))
        table.append(("fc.W", (cls.FC_HIDDEN, 2 * H), 2 * H))
        table.append(("fc.b", (cls.FC_HIDDEN,), 2 * H))
        table.append(("out.W", (t_dim, cls.FC_HIDDEN), cls.FC_HIDDEN))
        table.append(("out.b", (t_dim,), cls.FC_HIDDEN))
        return table

    @classmethod
    def init(cls, t_dim: int, rng: np.random.Generator) -> "SequencePredictor":
        parts = [
            _uniform_block(rng, shape, fan).ravel()
            for _, shape, fan in cls._block_table(t_dim)
        ]
        return cls(t_dim, np.concatenate(parts))

    def block(self, name: str) -> np.ndarray:
        return self._view(self.theta, name)

    def _view(self, flat, name):
        start, stop, shape = self._offsets[name]
        return flat[start:stop].reshape(shape)

    def _stacked(self, layer, part):
        """(2, ...) stack of one block of a layer's forward and backward LSTM."""
        return np.stack([self.block(f"{layer}f.{part}"), self.block(f"{layer}b.{part}")])

    def _ifog(self, layer, part):
        """``_stacked`` with the gate rows in the order i, f, o, g."""
        return self.theta[self._ifog_index[layer, part]]

    def forward(self, history: np.ndarray) -> np.ndarray:
        """(n, K, T) history -> (n, T) prediction."""
        out, _ = self.forward_with_cache(history, keep=False)
        return out

    def forward_with_cache(self, history, keep: bool = True):
        """Prediction for an (n, K, T) history and the cache ``backward``
        needs; with ``keep=False`` no per-step state is kept and the cache
        is None."""
        S = np.asarray(history, dtype=np.float64)
        if S.ndim != 3 or S.shape[2] != self.t_dim:
            raise ShapeError(f"history must be (n, K, {self.t_dim}), got {S.shape}")
        if keep:
            return self._forward(S, keep=True)
        # rows are independent: blocks of at most INFER_ROWS keep the
        # temporaries small, and no block of a longer input has one row
        blocks = np.array_split(S, max(1, -(-len(S) // self.INFER_ROWS)))
        return np.concatenate([self._forward(block, keep=False)[0] for block in blocks]), None

    def _forward(self, S, keep):
        H = self.HIDDEN
        # each layer also gets its inputs rows-major, (2, K, n, d), for the
        # weight gradients; layer 1's keep each row's history contiguous, as
        # S has it (at an input width of 1 BLAS takes a vector path whose
        # rounding depends on the stride)
        x = S.transpose(1, 0, 2)
        h1, cache1 = self._lstm_forward(_both_directions(S.transpose(1, 2, 0)),
                                        np.stack([x, x[::-1]]), "l1", keep)
        u = _both_directions(np.concatenate([h1[:, 0], h1[::-1, 1]], axis=1))
        h2, cache2 = self._lstm_forward(u, u.transpose(1, 0, 3, 2), "l2", keep)
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
        n, K = head.shape[0], cache2[0].shape[1]

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

    def _lstm_forward(self, xs, xr, layer, keep):
        """Both directions over (K, 2, d, n) inputs -> (K, 2, H, n) states;
        ``xr`` holds the same inputs rows-major, for the cache.

        The gate rows run in the order i, f, o, g, so one sigmoid call
        covers the three sigmoid gates.
        """
        H = self.HIDDEN
        K, _, _, n = xs.shape
        U = self._ifog(layer, "U")
        b = self._ifog(layer, "b")[:, :, None]
        # per-step products (4H, d) @ (d, n), as one call for all K steps
        xw = np.matmul(self._ifog(layer, "W"), xs)
        hs = np.zeros((K + 1, 2, H, n))  # hs[t] is the state entering step t
        z = np.empty((2, 4 * H, n))
        c = np.zeros((2, H, n))
        steps = []
        for t in range(K):
            np.matmul(U, hs[t], out=z)
            z += xw[t]
            z += b
            sig = _sigmoid(z[:, : 3 * H])
            g = np.tanh(z[:, 3 * H :])
            i, f, o = sig[:, :H], sig[:, H : 2 * H], sig[:, 2 * H :]
            c_prev, c = c, f * c
            c += i * g
            tanh_c = np.tanh(c)
            np.multiply(o, tanh_c, out=hs[t + 1])
            if keep:
                steps.append((c_prev, sig, g, tanh_c))
        return hs[1:], ((xr, hs, steps) if keep else None)

    def _lstm_backward(self, cache, dh_out, grad, layer, need_dx):
        """Backpropagation through time for both directions. The loop keeps
        only what the recurrence needs and builds each step's dz in the
        parameters' gate order i, f, g, o. It also keeps every dz
        rows-major, (2, K, n, 4H), so the weight gradients, formed after it
        in one batched call and summed in the step order of the recurrence
        (last step first), run the same (4H, n) @ (n, ·) products and
        row-axis sums as a rows-major recurrence would."""
        xr, hs, steps = cache
        H = self.HIDDEN
        _, K, n, d = xr.shape
        Ut = self._stacked(layer, "U").transpose(0, 2, 1)
        dzs = np.empty((2, K, n, 4 * H))
        dz = np.empty((2, 4 * H, n))
        dsig = np.empty((2, 3 * H, n))  # the i, f, o gates, in forward order
        dh_next = np.zeros((2, H, n))
        dc_next = np.zeros((2, H, n))
        for t in reversed(range(K)):
            c_prev, sig, g, tanh_c = steps[t]
            i, f, o = sig[:, :H], sig[:, H : 2 * H], sig[:, 2 * H :]
            dh = dh_out[t] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c ** 2)
            # sigmoid gates: (upstream * s) * (1 - s)
            np.multiply(dc, g, out=dsig[:, :H])
            np.multiply(dc, c_prev, out=dsig[:, H : 2 * H])
            np.multiply(dh, tanh_c, out=dsig[:, 2 * H :])
            dsig *= sig
            dsig *= 1.0 - sig
            dc_next = dc * f
            dz[:, : 2 * H] = dsig[:, : 2 * H]
            dz[:, 3 * H :] = dsig[:, 2 * H :]
            dg = dz[:, 2 * H : 3 * H]
            np.multiply(dc, i, out=dg)
            dg *= 1.0 - g ** 2
            dh_next = np.matmul(Ut, dz)
            dzs[:, t] = dz.transpose(0, 2, 1)
        dzsT = dzs.transpose(0, 1, 3, 2)
        dW_steps = np.matmul(dzsT, xr)
        dU_steps = np.matmul(dzsT, hs[:K].transpose(1, 0, 3, 2))
        db_steps = dzs.sum(axis=2)
        dW = np.zeros((2, 4 * H, d))
        dU = np.zeros((2, 4 * H, H))
        db = np.zeros((2, 4 * H))
        for t in reversed(range(K)):
            dW += dW_steps[:, t]
            dU += dU_steps[:, t]
            db += db_steps[:, t]
        for k, direction in enumerate("fb"):
            self._view(grad, f"{layer}{direction}.W")[...] = dW[k]
            self._view(grad, f"{layer}{direction}.U")[...] = dU[k]
            self._view(grad, f"{layer}{direction}.b")[...] = db[k]
        if not need_dx:
            return None
        dx = np.matmul(dzs, self._stacked(layer, "W")[:, None])
        return dx.transpose(1, 0, 3, 2)

    def descriptor(self) -> dict:
        return {"kind": "sequence", "t_dim": self.t_dim}


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
            raise ValueError("learning rate must be > 0")
        self.lr = lr
        self.t = 0
        self.m = None
        self.v = None

    def step(self, theta: np.ndarray, grad: np.ndarray, rows=None) -> np.ndarray:
        """The stepped parameters. With ``rows`` (indices into the stack),
        ``theta`` and ``grad`` hold only those rows."""
        if grad.shape != theta.shape:
            raise ShapeError("gradient/parameter shape mismatch")
        if self.m is None:
            if rows is not None:
                raise ShapeError("the first Adam step must take every row")
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
            self.t = np.zeros(theta.shape[:-1], dtype=np.int64)
        sel = Ellipsis if rows is None else rows
        m, v, t = self.m[sel], self.v[sel], self.t[sel] + 1
        if m.shape != theta.shape:
            raise ShapeError("parameter shape differs from the Adam moments")
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad ** 2
        self.m[sel], self.v[sel], self.t[sel] = m, v, t
        # bias corrections in Python floats, one per row
        steps = t.ravel().tolist()
        m_hat = m / np.reshape([1 - self.beta1 ** k for k in steps], t.shape + (1,))
        v_hat = v / np.reshape([1 - self.beta2 ** k for k in steps], t.shape + (1,))
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def save_checkpoint(path, net) -> None:
    """Versioned binary checkpoint: magic, descriptor, raw float64 params."""
    desc = json.dumps(net.descriptor(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(desc)))
        fh.write(desc)
        fh.write(np.ascontiguousarray(net.theta, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Rebuild a net from ``save_checkpoint`` output; any malformed file
    raises CheckpointError naming the path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise CheckpointError(f"{path}: truncated header ({len(raw)} bytes)")
    (desc_len,) = struct.unpack("<I", raw[4:8])
    body = raw[8 + desc_len :]
    if len(raw) < 8 + desc_len:
        raise CheckpointError(f"{path}: truncated header ({len(raw)} bytes, "
                              f"descriptor wants {8 + desc_len})")
    if len(body) % 8:
        raise CheckpointError(f"{path}: parameter bytes ({len(body)}) are not whole float64s")
    try:
        desc = json.loads(raw[8 : 8 + desc_len].decode("utf-8"))
        kind = desc.get("kind")
        theta = np.frombuffer(body, dtype="<f8").copy()
        if kind == "scorer":
            return ScorerNet(int(desc["dim"]), int(desc["hidden"]), theta)
        if kind == "sequence":
            return SequencePredictor(int(desc["t_dim"]), theta)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    raise CheckpointError(f"{path}: unknown architecture {kind!r}")
