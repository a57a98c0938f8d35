"""Parameter and MAC accounting for network specs against efficiency limits.

Conventions match the usual GMac counters and the challenge's budget, which
is stated in MACs: one MAC per multiply-accumulate (not two FLOPs),
same-padding spatial dims, bias terms add parameters but no MACs.

``build_report`` is the one way to the parameter and MAC totals: it walks
and checks the layer shapes once, and its totals are the sums of its
per-layer breakdown.  Every input dimension must be >= 1.

The Bayer group convolution (bgc) layer runs an independent convolution on
each of the N^2 CFA-phase sub-tensors and reassembles the original layout,
so it carries N^2 times the parameters of a plain convolution while its
MAC count is exactly equal at stride 1: each of the N^2 sub-tensors has
1/N^2 of the spatial positions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .core import _check_choice, _check_int, _check_keys, _read_json
from .errors import SpecError

MAX_PARAMS = 15_000_000          # inclusive bound
MAX_MACS = 150 * 10**9           # exclusive bound
REFERENCE_INPUT = (1, 4, 512, 512)

_KINDS = ("conv2d", "bgc", "depthwise", "pointwise", "elementwise")


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_ch: int = 1
    out_ch: int = 1
    kernel: int = 1
    stride: int = 1
    bias: bool = True
    period_n: int = 2

    def __post_init__(self):
        _check_choice("kind", self.kind, _KINDS, error=SpecError)
        for name in ("in_ch", "out_ch", "kernel", "stride", "period_n"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), minimum=1,
                                                      error=SpecError))
        if type(self.bias) is not bool:
            raise SpecError(f"bias must be true or false, got {self.bias!r}")
        if self.kind == "depthwise" and self.in_ch != self.out_ch:
            raise SpecError(f"depthwise requires in_ch == out_ch, got {self}")
        if self.kind == "pointwise" and self.kernel != 1:
            raise SpecError(f"pointwise requires kernel == 1, got {self}")


@dataclass(frozen=True)
class BudgetReport:
    total_params: int
    total_macs: int
    per_layer: tuple[dict, ...] = ()
    ensemble: bool = False
    input_shape: tuple[int, int, int, int] = REFERENCE_INPUT


@dataclass(frozen=True)
class ConstraintResult:
    passed: bool
    reasons: tuple[str, ...] = ()


def _layer_cost(layer: LayerSpec) -> tuple[int, int]:
    """(params, weights) of a layer; ``weights`` are one group's multiply
    weights, and the layer spends that many MACs per output position."""
    if layer.kind == "elementwise":
        return 0, 0
    weights = layer.in_ch * layer.kernel * layer.kernel
    if layer.kind != "depthwise":
        weights *= layer.out_ch
    groups = layer.period_n**2 if layer.kind == "bgc" else 1
    return groups * (weights + (layer.out_ch if layer.bias else 0)), weights


def _out_hw(layer: LayerSpec, h: int, w: int) -> tuple[int, int]:
    """Output spatial dims at same padding; strides and bgc periods must divide."""
    if h % layer.stride or w % layer.stride:
        raise SpecError(f"spatial {h}x{w} not divisible by stride {layer.stride}")
    if layer.kind == "bgc":
        n = layer.period_n
        if h % n or w % n:
            raise SpecError(f"spatial {h}x{w} not divisible by bgc period {n}")
        if (h // n) % layer.stride or (w // n) % layer.stride:
            raise SpecError(
                f"bgc sub-tensor {h // n}x{w // n} not divisible by stride {layer.stride}"
            )
    return h // layer.stride, w // layer.stride


def build_report(
    model: list[LayerSpec],
    input_shape: tuple[int, int, int, int] = REFERENCE_INPUT,
    ensemble: bool = False,
) -> BudgetReport:
    """Per-layer breakdown plus totals for a model at the given input shape."""
    # Strides and bgc periods must divide the spatial dims, so with every
    # input dimension >= 1 no layer's output shape can fall below 1.
    if min(input_shape) < 1:
        raise SpecError(f"input shape {tuple(input_shape)} has a dimension < 1")
    per_layer = []
    _, c, h, w = input_shape
    for layer in model:
        if layer.kind != "elementwise" and layer.in_ch != c:
            raise SpecError(f"layer {layer} expects {layer.in_ch} channels, input has {c}")
        h, w = _out_hw(layer, h, w)
        params, weights = _layer_cost(layer)
        per_layer.append(
            {
                "kind": layer.kind,
                "params": params,
                "macs": weights * h * w,
                "out_shape": (layer.out_ch if layer.kind != "elementwise" else c, h, w),
            }
        )
        if layer.kind != "elementwise":
            c = layer.out_ch
    return BudgetReport(
        total_params=sum(e["params"] for e in per_layer),
        total_macs=sum(e["macs"] for e in per_layer),
        per_layer=tuple(per_layer),
        ensemble=ensemble,
        input_shape=tuple(input_shape),
    )


def check_constraints(report: BudgetReport) -> ConstraintResult:
    """Challenge gate: params <= 15M, MACs strictly < 150 G, no ensembling."""
    reasons = []
    if report.total_params > MAX_PARAMS:
        reasons.append(
            f"params {report.total_params:,} exceed {MAX_PARAMS:,} "
            f"by {report.total_params - MAX_PARAMS:,}"
        )
    if report.total_macs >= MAX_MACS:
        reasons.append(
            f"MACs {report.total_macs:,} not strictly below {MAX_MACS:,} "
            f"(margin {report.total_macs - MAX_MACS:,})"
        )
    if report.ensemble:
        reasons.append("model is declared as an ensemble, which is not allowed")
    return ConstraintResult(passed=not reasons, reasons=tuple(reasons))


def load_model_spec(path) -> tuple[list[LayerSpec], bool, tuple[int, int, int, int]]:
    """Read a model JSON: either a bare layer list or
    {"layers": [...], "ensemble": bool, "input": [1, C, H, W]}, no other keys."""
    doc = _read_json(path, error=SpecError)
    if isinstance(doc, list):
        layers_doc, ensemble, input_shape = doc, False, REFERENCE_INPUT
    elif isinstance(doc, dict) and isinstance(doc.get("layers"), list):
        _check_keys(path, doc, ("layers", "ensemble", "input"), error=SpecError)
        layers_doc = doc["layers"]
        ensemble = doc.get("ensemble", False)
        if type(ensemble) is not bool:
            raise SpecError(f"{path}: 'ensemble' must be true or false, got {ensemble!r}")
        input_shape = doc.get("input", REFERENCE_INPUT)
    else:
        raise SpecError(f"{path}: expected a layer list or an object with a 'layers' list")
    if not isinstance(input_shape, (list, tuple)) or len(input_shape) != 4:
        raise SpecError(f"{path}: input shape must be 4 integers (N, C, H, W), got {input_shape!r}")
    input_shape = tuple(_check_int(f"{path}: input[{i}]", v, minimum=1, error=SpecError)
                        for i, v in enumerate(input_shape))
    allowed = {f.name for f in fields(LayerSpec)}
    layers = []
    for i, entry in enumerate(layers_doc):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise SpecError(f"{path}: layer {i} must be an object with a 'kind'")
        _check_keys(f"{path}: layer {i}", entry, allowed, error=SpecError)
        try:
            layers.append(LayerSpec(**entry))
        except SpecError as exc:
            raise SpecError(f"{path}: layer {i}: {exc}") from exc
    return layers, ensemble, input_shape
