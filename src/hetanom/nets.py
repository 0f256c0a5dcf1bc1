"""Minimal differentiable-network kernel in float64 numpy.

Two architectures live here: the scorer (one hidden rectifier layer, one
raw output score) shared by every base model and the unified model, and
the sequence predictor (two-layer bidirectional LSTM followed by a small
fully-connected head) that forecasts the next epoch's score vectors.
Gradients are hand-written reverse mode; both nets keep their parameters
in one flat vector so optimizer steps, broadcasting and checkpointing are
single array operations.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import CheckpointError, ShapeError

CHECKPOINT_MAGIC = b"AHL1"


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


def _uniform_block(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class ScorerNet:
    """d -> hidden -> 1 scorer: ``score = W2 . relu(W1 x + b1) + b2``.

    Parameters are a flat vector in declaration order W1, b1, W2, b2.
    """

    def __init__(self, dim: int, hidden: int, theta: np.ndarray):
        self.dim = dim
        self.hidden = hidden
        expected = self.param_count(dim, hidden)
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (expected,):
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

    def copy(self) -> "ScorerNet":
        return ScorerNet(self.dim, self.hidden, self.theta.copy())

    def _views(self):
        d, h = self.dim, self.hidden
        w1 = self.theta[: d * h].reshape(h, d)
        b1 = self.theta[d * h : d * h + h]
        w2 = self.theta[d * h + h : d * h + 2 * h]
        b2 = self.theta[-1]
        return w1, b1, w2, b2

    def forward(self, x: np.ndarray):
        """Scores for a batch (n, d) -> (n,), or a single vector -> float."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        X = x[None, :] if single else x
        if X.shape[1] != self.dim:
            raise ShapeError(f"input dim {X.shape[1]} != net dim {self.dim}")
        scores, _ = self.forward_with_cache(X)
        return float(scores[0]) if single else scores

    def forward_with_cache(self, X):
        w1, b1, w2, b2 = self._views()
        z1 = X @ w1.T + b1
        a1 = np.maximum(z1, 0.0)
        scores = a1 @ w2 + b2
        return scores, (X, z1, a1)

    def backward(self, cache, dscores: np.ndarray) -> np.ndarray:
        """Gradient of sum(dscores . scores) w.r.t. the flat parameters."""
        X, z1, a1 = cache
        w1, b1, w2, b2 = self._views()
        dw2 = a1.T @ dscores
        db2 = dscores.sum()
        da1 = np.outer(dscores, w2)
        dz1 = da1 * (z1 > 0)
        dw1 = dz1.T @ X
        db1 = dz1.sum(axis=0)
        return np.concatenate([dw1.ravel(), db1, dw2, [db2]])

    def descriptor(self) -> dict:
        return {"kind": "scorer", "dim": self.dim, "hidden": self.hidden}


class SequencePredictor:
    """Forecasts the next score vector from a history window.

    Input is (n, K, T); each of the two stacked layers runs one LSTM of
    hidden size 7 per direction, the final states of the last layer's two
    directions feed a 14-unit rectifier layer and a linear map back to T.

    Both directions of a layer run in one recurrence: their parameters are
    stacked on a leading axis of size 2 (forward, backward) and every step
    is one batched matmul. Sequences are kept time-major, (2, K, n, ·),
    with each direction's inputs in its own reading order.
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

    def forward(self, history: np.ndarray) -> np.ndarray:
        """(n, K, T) history -> (n, T) prediction; also accepts (K, T)."""
        out, _ = self.forward_with_cache(history, keep=False)
        return out

    def forward_with_cache(self, history, keep: bool = True):
        """Prediction and the cache ``backward`` needs; with ``keep=False``
        no per-step state is kept and the cache is None."""
        S = np.asarray(history, dtype=np.float64)
        single = S.ndim == 2
        if single:
            S = S[None, :, :]
        if S.ndim != 3 or S.shape[2] != self.t_dim:
            raise ShapeError(f"history must be (n, K, {self.t_dim}), got {S.shape}")
        if keep:
            out, cache = self._forward(S, keep=True)
            cache += (single,)
        else:
            # rows are independent: blocks of at most INFER_ROWS keep the
            # temporaries small, and no block of a longer input has one row
            blocks = np.array_split(S, max(1, -(-len(S) // self.INFER_ROWS)))
            out = np.concatenate([self._forward(block, keep=False)[0] for block in blocks])
            cache = None
        return (out[0] if single else out), cache

    def _forward(self, S, keep):
        x = S.transpose(1, 0, 2)
        h1, cache1 = self._lstm_forward(np.stack([x, x[::-1]]), "l1", keep)
        u = np.concatenate([h1[0], h1[1, ::-1]], axis=2)
        h2, cache2 = self._lstm_forward(np.stack([u, u[::-1]]), "l2", keep)
        head = np.concatenate([h2[0, -1], h2[1, -1]], axis=1)
        wf, bf = self.block("fc.W"), self.block("fc.b")
        wo, bo = self.block("out.W"), self.block("out.b")
        zf = head @ wf.T + bf
        af = np.maximum(zf, 0.0)
        out = af @ wo.T + bo
        return out, (cache1, cache2, head, zf, af)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        """Gradient of sum(dout . output) w.r.t. the flat parameters."""
        cache1, cache2, head, zf, af, single = cache
        dout = np.asarray(dout, dtype=np.float64)
        if single:
            dout = dout[None, :]
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

        dh2 = np.zeros((2, K, n, H))
        dh2[0, -1] = dhead[:, :H]
        dh2[1, -1] = dhead[:, H:]
        dx2 = self._lstm_backward(cache2, dh2, grad, "l2", need_dx=True)
        du = dx2[0] + dx2[1, ::-1]
        dh1 = np.stack([du[:, :, :H], du[::-1, :, H:]])
        self._lstm_backward(cache1, dh1, grad, "l1", need_dx=False)
        return grad

    def _lstm_forward(self, xs, layer, keep):
        """Both directions over (2, K, n, d) inputs -> (2, K, n, H) states.

        Gates are kept gate-major, (4, 2, n, H) in the order i, f, g, o, so
        every elementwise step runs on contiguous arrays.
        """
        H = self.HIDDEN
        _, K, n, _ = xs.shape
        W = self._stacked(layer, "W")
        Ut = self._stacked(layer, "U").transpose(0, 2, 1)
        # per-step shapes (n, d) @ (d, 4H), as one call for all K steps
        xw = np.matmul(xs, W.transpose(0, 2, 1)[:, None])
        xw = np.ascontiguousarray(xw.reshape(2, K, n, 4, H).transpose(1, 3, 0, 2, 4))
        # the bias is spread over all rows once, so each step's add is contiguous
        b = self._stacked(layer, "b").reshape(2, 4, 1, H).transpose(1, 0, 2, 3)
        b = np.ascontiguousarray(np.broadcast_to(b, (4, 2, n, H)))
        hs = np.zeros((2, K + 1, n, H))  # hs[:, t] is the state entering step t
        hu = np.empty((2, n, 4 * H))
        z = np.empty((4, 2, n, H))
        c = np.zeros((2, n, H))
        steps = []
        for t in range(K):
            np.matmul(hs[:, t], Ut, out=hu)
            np.add(xw[t], hu.reshape(2, n, 4, H).transpose(2, 0, 1, 3), out=z)
            z += b
            gates = _sigmoid(z)  # i, f, o; the g block is overwritten
            np.tanh(z[2], out=gates[2])
            i, f, g, o = gates
            c_prev, c = c, f * c
            c += i * g
            tanh_c = np.tanh(c)
            np.multiply(o, tanh_c, out=hs[:, t + 1])
            if keep:
                steps.append((c_prev, gates, tanh_c))
        return hs[:, 1:], ((xs, hs, steps) if keep else None)

    def _lstm_backward(self, cache, dh_out, grad, layer, need_dx):
        """Backpropagation through time for both directions. The loop keeps
        only what the recurrence needs; the per-step weight gradients are
        formed in one batched call after it and summed in the step order
        of the recurrence (last step first)."""
        xs, hs, steps = cache
        H = self.HIDDEN
        _, K, n, d = xs.shape
        U = self._stacked(layer, "U")
        dzs = np.empty((2, K, n, 4 * H))  # per-step dz, (n, 4H) per direction
        dgates = np.empty((4, 2, n, H))
        dh_next = np.zeros((2, n, H))
        dc_next = np.zeros((2, n, H))
        for t in reversed(range(K)):
            c_prev, gates, tanh_c = steps[t]
            i, f, g, o = gates
            dh = dh_out[:, t] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c ** 2)
            # sigmoid gates: (upstream * s) * (1 - s); the g block follows
            np.multiply(dc, g, out=dgates[0])
            np.multiply(dc, c_prev, out=dgates[1])
            np.multiply(dh, tanh_c, out=dgates[3])
            dgates *= gates
            dgates *= 1.0 - gates
            np.multiply(dc, i, out=dgates[2])
            dgates[2] *= 1.0 - g ** 2
            dc_next = dc * f
            dz = dzs[:, t]
            dz.reshape(2, n, 4, H)[...] = dgates.transpose(1, 2, 0, 3)
            dh_next = np.matmul(dz, U)
        dzsT = dzs.transpose(0, 1, 3, 2)
        dW_steps = np.matmul(dzsT, xs)
        dU_steps = np.matmul(dzsT, hs[:, :K])
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
        return np.matmul(dzs, self._stacked(layer, "W")[:, None])

    def descriptor(self) -> dict:
        return {"kind": "sequence", "t_dim": self.t_dim}


class AdamState:
    """Bias-corrected Adam. Moments are lazily sized on the first step;
    one state must not be shared across threads."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("learning rate must be > 0")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
        if grad.shape != theta.shape:
            raise ShapeError("gradient/parameter shape mismatch")
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad ** 2
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
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
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    raise CheckpointError(f"{path}: unknown architecture {kind!r}")
