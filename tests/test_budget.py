import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rawbench.budget import (
    BudgetReport,
    LayerSpec,
    MAX_MACS,
    MAX_PARAMS,
    REFERENCE_INPUT,
    build_report,
    check_constraints,
    load_model_spec,
)
from rawbench.errors import SpecError


def params_oracle(layer):
    """Enumerate weight tensor elements one by one."""
    n = 0
    if layer.kind == "conv2d":
        for _ in range(layer.out_ch):
            for _ in range(layer.in_ch):
                n += layer.kernel * layer.kernel
            if layer.bias:
                n += 1
    elif layer.kind == "depthwise":
        for _ in range(layer.in_ch):
            n += layer.kernel * layer.kernel
            if layer.bias:
                n += 1
    elif layer.kind == "pointwise":
        for _ in range(layer.out_ch):
            n += layer.in_ch
            if layer.bias:
                n += 1
    elif layer.kind == "bgc":
        for _ in range(layer.period_n**2):
            for _ in range(layer.out_ch):
                n += layer.in_ch * layer.kernel * layer.kernel
                if layer.bias:
                    n += 1
    return n


def macs_oracle(layer, h, w):
    """Count one MAC per (output position, input channel, kernel tap)."""
    n = 0
    if layer.kind in ("conv2d", "pointwise", "depthwise"):
        per_pos = {
            "conv2d": layer.in_ch * layer.out_ch * layer.kernel**2,
            "pointwise": layer.in_ch * layer.out_ch,
            "depthwise": layer.in_ch * layer.kernel**2,
        }[layer.kind]
        for _ in range(h // layer.stride):
            for _ in range(w // layer.stride):
                n += per_pos
    elif layer.kind == "bgc":
        sub_h, sub_w = h // layer.period_n, w // layer.period_n
        for _ in range(layer.period_n**2):
            for _ in range(sub_h // layer.stride):
                for _ in range(sub_w // layer.stride):
                    n += layer.in_ch * layer.out_ch * layer.kernel**2
    return n


def params(layer):
    """``build_report``'s parameter total of one layer, on an input with its channels."""
    return build_report([layer], (1, layer.in_ch, 512, 512)).total_params


def macs(model, input_shape=REFERENCE_INPUT):
    """``build_report``'s MAC total of a model."""
    return build_report(model, input_shape).total_macs


class TestCountParams:
    def test_conv_hand_count(self):
        layer = LayerSpec("conv2d", in_ch=4, out_ch=32, kernel=3, bias=True)
        assert params(layer) == 4 * 32 * 9 + 32 == 1184
        assert params(layer) == params_oracle(layer)

    def test_bgc_is_n2_times_conv(self):
        layer = LayerSpec("bgc", in_ch=4, out_ch=32, kernel=3, bias=True, period_n=2)
        assert params(layer) == 4 * 1184 == 4736
        assert params(layer) == params_oracle(layer)

    def test_elementwise_free(self):
        assert params(LayerSpec("elementwise")) == 0

    def test_depthwise_pointwise(self):
        dw = LayerSpec("depthwise", in_ch=16, out_ch=16, kernel=3, bias=True)
        pw = LayerSpec("pointwise", in_ch=16, out_ch=32, kernel=1, bias=True)
        assert params(dw) == 16 * 9 + 16 == params_oracle(dw)
        assert params(pw) == 16 * 32 + 32 == params_oracle(pw)

    def test_no_bias(self):
        layer = LayerSpec("conv2d", in_ch=4, out_ch=8, kernel=3, bias=False)
        assert params(layer) == 4 * 8 * 9


class TestCountMacs:
    def test_conv_reference_shape(self):
        layer = LayerSpec("conv2d", in_ch=4, out_ch=32, kernel=3)
        assert macs([layer]) == 1152 * 262144 == 301_989_888

    def test_bgc_equals_conv(self):
        conv = LayerSpec("conv2d", in_ch=4, out_ch=32, kernel=3)
        bgc = LayerSpec("bgc", in_ch=4, out_ch=32, kernel=3, period_n=2)
        assert macs([bgc]) == macs([conv]) == 301_989_888

    def test_stride_two_quarters_macs(self):
        s1 = LayerSpec("conv2d", in_ch=4, out_ch=8, kernel=3, stride=1)
        s2 = LayerSpec("conv2d", in_ch=4, out_ch=8, kernel=3, stride=2)
        assert macs([s1]) == 4 * macs([s2])

    def test_matches_bruteforce_small_instances(self):
        for kind in ("conv2d", "depthwise", "pointwise", "bgc"):
            for k in (1, 3):
                if kind == "pointwise" and k != 1:
                    continue
                for hw in (4, 8, 16):
                    in_ch = out_ch = 3 if kind == "depthwise" else 2
                    layer = LayerSpec(kind, in_ch=in_ch, out_ch=out_ch, kernel=k)
                    got = macs([layer], (1, in_ch, hw, hw))
                    assert got == macs_oracle(layer, hw, hw), (kind, k, hw)

    def test_shapes_thread_through_layers(self):
        model = [
            LayerSpec("conv2d", in_ch=4, out_ch=8, kernel=3, stride=2),
            LayerSpec("elementwise"),
            LayerSpec("conv2d", in_ch=8, out_ch=4, kernel=3),
        ]
        expect = 4 * 8 * 9 * 256 * 256 + 8 * 4 * 9 * 256 * 256
        assert macs(model) == expect

    def test_channel_mismatch_rejected(self):
        with pytest.raises(SpecError):
            build_report([LayerSpec("conv2d", in_ch=3, out_ch=8, kernel=3)])
        # the parameter total is checked by the same walk: a layer that does
        # not take its predecessor's channels has no total
        with pytest.raises(SpecError, match="expects 16 channels, input has 8"):
            build_report([LayerSpec("conv2d", in_ch=4, out_ch=8, kernel=3),
                          LayerSpec("conv2d", in_ch=16, out_ch=4, kernel=3)])

    def test_indivisible_stride_rejected(self):
        with pytest.raises(SpecError):
            build_report([LayerSpec("conv2d", in_ch=4, out_ch=8, kernel=3, stride=3)])


class TestConstraints:
    def _report(self, params, macs, ensemble=False):
        return BudgetReport(total_params=params, total_macs=macs, ensemble=ensemble)

    def test_param_boundary_inclusive(self):
        assert check_constraints(self._report(MAX_PARAMS, 10**9)).passed
        result = check_constraints(self._report(MAX_PARAMS + 1, 10**9))
        assert not result.passed and "params" in result.reasons[0]

    def test_mac_boundary_exclusive(self):
        assert check_constraints(self._report(10**6, MAX_MACS - 10)).passed
        result = check_constraints(self._report(10**6, MAX_MACS))
        assert not result.passed and "MACs" in result.reasons[0]

    def test_published_point_passes(self):
        # 14.92 M params, 93.93 GMacs
        assert check_constraints(self._report(14_920_000, 93_930_000_000)).passed

    def test_149_99_gmacs_passes(self):
        assert check_constraints(self._report(MAX_PARAMS, 149_990_000_000)).passed

    def test_ensemble_flag_fails(self):
        result = check_constraints(self._report(10**6, 10**9, ensemble=True))
        assert not result.passed and "ensemble" in result.reasons[0]

    def test_all_violations_listed(self):
        result = check_constraints(self._report(MAX_PARAMS + 5, MAX_MACS + 5, ensemble=True))
        assert len(result.reasons) == 3


class TestModelSpecIO:
    def test_report_totals_match_breakdown(self):
        model = [
            LayerSpec("bgc", in_ch=4, out_ch=16, kernel=5),
            LayerSpec("conv2d", in_ch=16, out_ch=16, kernel=3),
            LayerSpec("conv2d", in_ch=16, out_ch=4, kernel=3),
        ]
        report = build_report(model)
        assert report.total_params == sum(e["params"] for e in report.per_layer)
        assert report.total_macs == sum(e["macs"] for e in report.per_layer)
        assert report.total_params == sum(params_oracle(layer) for layer in model)
        assert report.total_macs == (4 * 16 * 25 + 16 * 16 * 9 + 16 * 4 * 9) * 512 * 512

    def test_layer_takes_numpy_integers(self):
        # LayerSpec(in_ch=np.int64(4)) used to be refused while Roi took it
        layer = LayerSpec("conv2d", in_ch=np.int64(4), out_ch=np.int32(8), kernel=np.int64(3))
        assert layer == LayerSpec("conv2d", in_ch=4, out_ch=8, kernel=3)
        assert type(layer.in_ch) is int and type(layer.out_ch) is int

    def test_load_bare_list(self, tmp_path):
        doc = [{"kind": "conv2d", "in_ch": 4, "out_ch": 8, "kernel": 3}]
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        layers, ensemble, shape = load_model_spec(p)
        assert len(layers) == 1 and not ensemble and shape == (1, 4, 512, 512)

    def test_load_object_form(self, tmp_path):
        doc = {"layers": [{"kind": "elementwise"}], "ensemble": True, "input": [1, 4, 64, 64]}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        layers, ensemble, shape = load_model_spec(p)
        assert ensemble and shape == (1, 4, 64, 64)

    @pytest.mark.parametrize("layer, shape", [
        ({}, [1, 4, "512", 512]),
        ({}, [1, 4, 512.0, 512]),
        ({}, [1, True, 512, 512]),
        ({}, "1,4,512,512"),
        ({"out_ch": "8"}, [1, 4, 64, 64]),
        ({"out_ch": 8.0}, [1, 4, 64, 64]),
        ({"kernel": True}, [1, 4, 64, 64]),
        ({"bias": 1}, [1, 4, 64, 64]),
        ({"bias": "false"}, [1, 4, 64, 64]),
    ])
    def test_spec_types_checked(self, tmp_path, layer, shape):
        entry = {"kind": "conv2d", "in_ch": 4, "out_ch": 8, "kernel": 3, "bias": False, **layer}
        p = tmp_path / "typed.json"
        p.write_text(json.dumps({"layers": [entry], "input": shape}))
        with pytest.raises(SpecError, match="typed.json"):
            load_model_spec(p)

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [False]])
    def test_ensemble_must_be_a_json_bool(self, tmp_path, flag):
        p = tmp_path / "flagged.json"
        p.write_text(json.dumps({"layers": [{"kind": "elementwise"}], "ensemble": flag}))
        with pytest.raises(SpecError, match="flagged.json.*ensemble"):
            load_model_spec(p)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        # a misspelt "ensembel": true passed an ensemble as a single model
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"layers": [{"kind": "elementwise"}], "ensembel": True}))
        with pytest.raises(SpecError, match=re.escape("m.json: unknown keys ['ensembel']")):
            load_model_spec(p)

    def test_bad_layer_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps([{"kind": "conv2d", "wings": 2}]))
        with pytest.raises(SpecError):
            load_model_spec(p)

    def test_invalid_layers(self):
        with pytest.raises(SpecError):
            LayerSpec("warp")
        with pytest.raises(SpecError):
            LayerSpec("conv2d", in_ch=0)
        with pytest.raises(SpecError):
            LayerSpec("depthwise", in_ch=4, out_ch=8)
        with pytest.raises(SpecError):
            LayerSpec("pointwise", in_ch=4, out_ch=8, kernel=3)


@st.composite
def layer_stacks(draw):
    """A random layer list that build_report accepts, with its input shape."""
    c = draw(st.integers(1, 8))
    h = draw(st.sampled_from([1, 3])) * 2 ** draw(st.integers(0, 6))
    w = draw(st.sampled_from([1, 3])) * 2 ** draw(st.integers(0, 6))
    shape = (draw(st.integers(1, 2)), c, h, w)
    layers = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["conv2d", "bgc", "depthwise", "pointwise", "elementwise"]))
        out = c if kind in ("depthwise", "elementwise") else draw(st.integers(1, 8))
        stride = draw(st.sampled_from([s for s in (1, 2, 3) if h % s == 0 and w % s == 0]))
        periods = [n for n in (1, 2, 3)
                   if h % n == 0 and w % n == 0 and (h // n) % stride == 0 and (w // n) % stride == 0]
        layers.append(LayerSpec(
            kind, in_ch=c, out_ch=out,
            kernel=1 if kind == "pointwise" else draw(st.sampled_from([1, 3, 5])),
            stride=stride, bias=draw(st.booleans()), period_n=draw(st.sampled_from(periods)),
        ))
        h, w, c = h // stride, w // stride, out
    return layers, shape


class TestCountMacsFromReport:
    @settings(max_examples=150, deadline=None)
    @given(stack=layer_stacks())
    def test_equals_value_from_build_report(self, stack):
        layers, shape = stack
        report = build_report(layers, shape)
        assert report.total_macs == sum(entry["macs"] for entry in report.per_layer)
        assert report.total_params == sum(entry["params"] for entry in report.per_layer)
        assert [entry["params"] for entry in report.per_layer] == list(map(params_oracle, layers))

    @pytest.mark.parametrize("shape", [(1, 4, -512, 512), (1, 4, 512, 0), (0, 4, 64, 64),
                                       (1, 0, 64, 64)])
    def test_input_dimension_below_one_rejected(self, shape):
        layers = [LayerSpec("conv2d", in_ch=4, out_ch=8, kernel=3)]
        with pytest.raises(SpecError, match="dimension < 1"):
            build_report(layers, shape)
