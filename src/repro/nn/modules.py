"""Layer / module abstraction on top of the autodiff tensors.

:class:`Module` mirrors the familiar container API: sub-modules and
parameters are discovered by attribute walking, ``state_dict`` /
``load_state_dict`` serialize weights, and ``train()`` / ``eval()`` toggle
dropout.  Each module owns a seeded ``np.random.Generator`` so dropout masks
and initializations are reproducible per experiment.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import backend as _backend
from . import functional as F
from . import init as initializers
from .conv import avg_pool2d, conv2d, max_pool2d
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "inference_mode",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "Flatten",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Dropout",
    "Sequential",
]


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True``)."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._training = True

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.forward(x)

    # ------------------------------------------------------------------ #
    # parameter / submodule discovery
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """All trainable parameters in this module and its children."""
        params: List[Parameter] = []
        seen = set()
        for _, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                params.append(p)
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------ #
    # train / eval and gradient helpers
    # ------------------------------------------------------------------ #
    @property
    def training(self) -> bool:
        return self._training

    def train(self) -> "Module":
        for m in self.modules():
            m._training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m._training = False
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # (de)serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        # State dicts are always host-side numpy (serialization,
        # fingerprinting and checkpoints all hash/save host bytes); a
        # device backend syncs here.
        b = _backend.active()
        return {name: b.to_numpy(p.data).copy()
                for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        # Validate every shape before touching any parameter, so a
        # mismatch can never leave the module half-loaded (and no value is
        # ever silently broadcast into a differently-shaped parameter).
        b = _backend.active()
        converted = {}
        for name, p in own.items():
            value = b.asarray(state[name], dtype=np.float32)
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {p.data.shape}"
                )
            converted[name] = value
        for name, p in own.items():
            p.data = converted[name].copy()


class inference_mode:
    """Run modules in ``eval()`` mode, restoring their exact flags on exit.

    ``Module.train()``/``eval()`` flip every submodule uniformly, so the
    usual save-one-flag-and-restore dance loses heterogeneous states (a
    model whose dropout was deliberately frozen would come back fully in
    train mode).  This context manager restores **every** submodule's
    ``_training`` flag individually — which is what lets a serving path
    or an evaluation borrow a *shared* model without permanently flipping
    its mode, even when the body raises.

    Contexts on one model may overlap in any order (two server threads
    sharing a model): each submodule keeps an enter count under a lock.
    The first enter saves its flag and sets eval; the last exit restores
    the flag, so no exit flips a module back while another context is
    still inside.

        with nn.inference_mode(model):
            logits = model(x)
    """

    #: submodule -> [open contexts, flag saved by the first of them]
    _open: Dict[Module, list] = {}
    _lock = threading.Lock()

    def __init__(self, *modules: Module) -> None:
        if not modules:
            raise ValueError("inference_mode needs at least one module")
        self._modules = modules
        self._entered: List[Module] = []

    def __enter__(self):
        entered = [m for mod in self._modules for m in mod.modules()]
        with self._lock:
            for module in entered:
                state = self._open.get(module)
                if state is None:
                    state = self._open[module] = [0, module._training]
                    module._training = False
                state[0] += 1
        self._entered = entered
        return self._modules[0] if len(self._modules) == 1 else self._modules

    def __exit__(self, *exc) -> None:
        with self._lock:
            for module in self._entered:
                state = self._open[module]
                state[0] -= 1
                if state[0] == 0:
                    module._training = state[1]
                    del self._open[module]
        self._entered = []


class Dense(Module):
    """Fully connected layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            initializers.glorot_uniform((in_features, out_features), rng),
            name="dense.weight",
        )
        self.bias = Parameter(initializers.zeros((out_features,)), name="dense.bias") \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2D(Module):
    """2-D convolution layer (NCHW)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(initializers.he_normal(shape, rng), name="conv.weight")
        self.bias = Parameter(initializers.zeros((out_channels,)), name="conv.bias") \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias,
                      stride=self.stride, padding=self.padding)


class MaxPool2D(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2D(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2D(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.flatten_batch()


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.negative_slope)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Dropout(Module):
    """Inverted dropout; active only in training mode.

    The allCNN classifier uses an *input* dropout layer, which the paper
    credits for inhibiting FGSM-Adv overfitting on the complex dataset —
    keep that layer when reproducing Table III.
    """

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, training=self._training, rng=self._rng)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        if len(layers) == 1 and isinstance(layers[0], (list, tuple)):
            layers = tuple(layers[0])
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def append(self, layer: Module) -> "Sequential":
        self.layers.append(layer)
        return self
