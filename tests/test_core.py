import hashlib
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rawbench.core import (
    PackedImage,
    RawFrame,
    Roi,
    SPACE_DN,
    SPACE_DN_ABOVE_BLACK,
    SPACE_NORMALIZED,
    center_crop,
    crop_frame,
    denormalize,
    interleave_rggb,
    normalize,
    pack_rggb,
    read_frame,
    read_packed,
    read_planes,
    read_rgb,
    split_rggb,
    unpack_rggb,
    write_frame,
    write_packed,
    write_rgb,
)
from rawbench.errors import DimensionError, DomainError, FormatError, ProfileError

from conftest import make_frame


def pack_oracle(data):
    """Direct evaluation of the RGGB index formula."""
    h, w = data.shape
    planes = np.empty((4, h // 2, w // 2), dtype=data.dtype)
    for i in range(h // 2):
        for j in range(w // 2):
            planes[0, i, j] = data[2 * i, 2 * j]
            planes[1, i, j] = data[2 * i, 2 * j + 1]
            planes[2, i, j] = data[2 * i + 1, 2 * j]
            planes[3, i, j] = data[2 * i + 1, 2 * j + 1]
    return planes


class TestPackUnpack:
    def test_single_cfa_period(self):
        f = make_frame(np.array([[100, 200], [150, 50]], dtype=np.uint16))
        p = pack_rggb(f)
        assert p.channels[:, 0, 0].tolist() == [100, 200, 150, 50]
        assert p.channels.shape == (4, 1, 1)

    def test_index_formula_4x4(self):
        data = np.array([[10 * y + x for x in range(4)] for y in range(4)], dtype=np.uint16)
        p = pack_rggb(make_frame(data))
        np.testing.assert_array_equal(p.channels, pack_oracle(data))
        np.testing.assert_array_equal(p.channels[0], [[0, 2], [20, 22]])
        np.testing.assert_array_equal(p.channels[1], [[1, 3], [21, 23]])
        np.testing.assert_array_equal(p.channels[2], [[10, 12], [30, 32]])
        np.testing.assert_array_equal(p.channels[3], [[11, 13], [31, 33]])

    def test_unpack_single_period(self):
        img = PackedImage(
            channels=np.array([[[5]], [[6]], [[7]], [[8]]], dtype=np.uint16),
            space=SPACE_DN,
            black_level=0.0,
            white_level=100.0,
        )
        np.testing.assert_array_equal(unpack_rggb(img).data, [[5, 6], [7, 8]])

    def test_roundtrip_random_frames(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h, w = 2 * rng.integers(1, 9), 2 * rng.integers(1, 9)
            data = rng.integers(0, 16384, (h, w)).astype(np.uint16)
            f = make_frame(data, iso=int(rng.integers(100, 6400)), camera="camX")
            back = unpack_rggb(pack_rggb(f))
            np.testing.assert_array_equal(back.data, f.data)
            assert back.iso == f.iso and back.camera_id == f.camera_id
            assert back.white_level == f.white_level
            np.testing.assert_array_equal(back.black_level, f.black_level)

    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from([np.uint16, np.float32]), h=st.integers(1, 12),
           w=st.integers(1, 12), iso=st.integers(0, 25600), seed=st.integers(0, 2**16))
    def test_pack_and_unpack_are_inverses(self, dtype, h, w, iso, seed):
        rng = np.random.default_rng(seed)
        black = rng.integers(0, 1000, 4).astype(np.float64)
        data = (rng.random((2 * h, 2 * w)) * 16383).astype(dtype)
        f = RawFrame(data=data, black_level=black, white_level=16383.0, camera_id="camZ",
                     iso=iso, exposure_s=0.01)
        back = unpack_rggb(pack_rggb(f))
        assert back.data.dtype == data.dtype
        np.testing.assert_array_equal(back.data, data)
        packed = pack_rggb(back, space=SPACE_DN_ABOVE_BLACK)
        np.testing.assert_array_equal(pack_rggb(unpack_rggb(packed)).channels, packed.channels)
        for name in ("white_level", "camera_id", "iso", "exposure_s"):
            assert getattr(back, name) == getattr(f, name)
        np.testing.assert_array_equal(back.black_level, black)

    def test_odd_dims_rejected(self):
        with pytest.raises(DimensionError):
            RawFrame(data=np.zeros((3, 4)), black_level=0.0, white_level=1.0)

    def test_cfa_is_not_a_field(self):
        # RGGB is the only pattern: a frame cannot claim another one and then
        # be split, stored or read back as RGGB.
        with pytest.raises(TypeError, match="cfa"):
            RawFrame(data=np.zeros((4, 4), dtype=np.uint16), black_level=0.0,
                     white_level=10.0, cfa="BGGR")
        with pytest.raises(TypeError, match="cfa"):
            PackedImage(channels=np.zeros((4, 2, 2)), space=SPACE_DN, black_level=0.0,
                        white_level=10.0, cfa="RGGB")
        names = {f.name for f in fields(RawFrame)} | {f.name for f in fields(PackedImage)}
        assert "cfa" not in names


class TestNormalize:
    def test_black_maps_to_zero(self):
        f = make_frame(np.full((2, 2), 512, dtype=np.uint16))
        assert normalize(pack_rggb(f)).channels.max() == 0.0

    def test_white_maps_to_one(self):
        f = make_frame(np.full((2, 2), 16383, dtype=np.uint16))
        assert normalize(pack_rggb(f)).channels.min() == 1.0

    def test_mid_value(self):
        f = make_frame(np.full((2, 2), 8448, dtype=np.uint16))
        np.testing.assert_allclose(normalize(pack_rggb(f)).channels, 7936 / 15871, rtol=1e-15)

    def test_white_not_above_black(self):
        with pytest.raises(ProfileError):
            PackedImage(channels=np.zeros((4, 1, 1)), space=SPACE_DN,
                        black_level=200.0, white_level=100.0)

    def test_bounds_respected(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 40000, (8, 8)).astype(np.float32)  # values above white
        img = normalize(pack_rggb(make_frame(data)), clip_hi=1.0)
        assert img.channels.min() >= 0.0 and img.channels.max() <= 1.0
        img2 = normalize(pack_rggb(make_frame(data)), clip_hi=2.0)
        assert img2.channels.max() <= 2.0 and img2.clip_hi == 2.0

    def test_denormalize_endpoints(self):
        img = PackedImage(channels=np.stack([np.zeros((1, 1)), np.ones((1, 1)),
                                             np.zeros((1, 1)), np.ones((1, 1))]),
                          space=SPACE_NORMALIZED, black_level=512.0, white_level=16383.0)
        dn = denormalize(img)
        assert dn.channels[0, 0, 0] == 512.0
        assert dn.channels[1, 0, 0] == 16383.0

    def test_roundtrip_in_range(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(512, 16383, (16, 16))
        f = make_frame(data.astype(np.float32))
        packed = pack_rggb(f)
        back = denormalize(normalize(packed))
        np.testing.assert_allclose(back.channels, packed.channels.astype(np.float64), rtol=1e-12)

    def test_space_tags_enforced(self):
        packed = pack_rggb(make_frame(np.full((2, 2), 1000, dtype=np.uint16)))
        img = normalize(packed)
        with pytest.raises(DomainError):
            normalize(img)  # already normalized
        with pytest.raises(DomainError):
            denormalize(packed)  # still in DN space


class TestNormalizeProperties:
    @settings(max_examples=80, deadline=None)
    @given(dtype=st.sampled_from([np.uint16, np.float32, np.float64]),
           space=st.sampled_from([SPACE_DN, SPACE_DN_ABOVE_BLACK]),
           clip_hi=st.sampled_from([0.5, 1.0, 2.0]), h=st.integers(1, 9), w=st.integers(1, 9),
           seed=st.integers(0, 2**16))
    def test_in_place_steps_equal_the_expression(self, dtype, space, clip_hi, h, w, seed):
        rng = np.random.default_rng(seed)
        black = rng.uniform(0, 1000, 4).round()
        white = float(rng.uniform(2000, 16383))
        lo = 0 if dtype == np.uint16 else -500
        planes = rng.uniform(lo, 20000, (4, h, w)).astype(dtype)
        img = PackedImage(channels=planes, space=space, black_level=black, white_level=white)
        before = planes.copy()
        ch = planes.astype(np.float64)
        if space == SPACE_DN:
            ch = ch - black[:, None, None]
        expect = np.clip(ch / (white - black)[:, None, None], 0.0, clip_hi)
        out = normalize(img, clip_hi=clip_hi).channels
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, expect)
        np.testing.assert_array_equal(planes, before)  # the input is not touched

    @settings(max_examples=80, deadline=None)
    @given(dtype=st.sampled_from([np.uint16, np.float32]), h=st.integers(1, 9),
           w=st.integers(1, 9), seed=st.integers(0, 2**16))
    def test_denormalize_inverts_normalize(self, dtype, h, w, seed):
        # u16 DN in [black, white] come back exactly after rint; float DN
        # within 4 ulp of white (one rounding in each of -, /, *, +)
        rng = np.random.default_rng(seed)
        black = rng.integers(0, 1000, 4).astype(np.float64)
        white = float(rng.integers(2000, 65535))
        lo = black[:, None, None]
        planes = lo + rng.random((4, h, w)) * (white - lo)
        if dtype == np.uint16:
            planes = np.rint(planes)
            planes[:, 0, 0], planes[:, -1, -1] = black, white
        planes = planes.astype(dtype)
        img = PackedImage(channels=planes, space=SPACE_DN, black_level=black, white_level=white)
        back = denormalize(normalize(img)).channels
        if dtype == np.uint16:
            np.testing.assert_array_equal(np.rint(back).astype(np.uint16), planes)
        else:
            tol = 4 * np.finfo(np.float64).eps * white
            np.testing.assert_allclose(back, planes.astype(np.float64), rtol=0, atol=tol)


class TestCrop:
    def test_center_crop_4x4_to_2x2(self):
        data = np.arange(64, dtype=np.uint16).reshape(8, 8)  # planes are 4x4
        img = pack_rggb(make_frame(data))
        out = center_crop(img, 2, 2)
        np.testing.assert_array_equal(out.channels, img.channels[:, 1:3, 1:3])

    def test_full_crop_is_identity(self):
        img = pack_rggb(make_frame(np.arange(16, dtype=np.uint16).reshape(4, 4)))
        out = center_crop(img, 2, 2)
        np.testing.assert_array_equal(out.channels, img.channels)

    def test_odd_remainder_floor_offset(self):
        data = np.arange(100, dtype=np.uint16).reshape(10, 10)  # planes are 5x5
        img = pack_rggb(make_frame(data))
        out = center_crop(img, 2, 2)
        np.testing.assert_array_equal(out.channels, img.channels[:, 1:3, 1:3])

    def test_too_large_rejected(self):
        img = pack_rggb(make_frame(np.zeros((4, 4), dtype=np.uint16)))
        with pytest.raises(DimensionError):
            center_crop(img, 3, 2)

    def test_crop_commutes_with_pack(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 16000, (12, 16)).astype(np.uint16)
        f = make_frame(data)
        roi = Roi(4, 2, 8, 6)
        lhs = pack_rggb(crop_frame(f, roi))
        rhs = pack_rggb(f).channels[:, roi.y0 // 2 : (roi.y0 + roi.h) // 2,
                                    roi.x0 // 2 : (roi.x0 + roi.w) // 2]
        np.testing.assert_array_equal(lhs.channels, rhs)

    def test_roi_validation(self):
        with pytest.raises(DimensionError):
            Roi(1, 0, 4, 4)
        with pytest.raises(DimensionError):
            crop_frame(make_frame(np.zeros((4, 4), dtype=np.uint16)), Roi(2, 0, 4, 4))


class TestRawbIO:
    def test_u16_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        f = make_frame(rng.integers(0, 16384, (4, 4)).astype(np.uint16))
        p1, p2 = tmp_path / "a.rawb", tmp_path / "b.rawb"
        write_frame(f, p1)
        back = read_frame(p1)
        write_frame(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(back.data, f.data)

    def test_f32_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.uniform(0, 16000, (6, 6)).astype(np.float32)
        f = make_frame(data)
        write_frame(f, tmp_path / "f.rawb")
        back = read_frame(tmp_path / "f.rawb")
        assert back.data.dtype == np.dtype("<f4")
        assert back.data.tobytes() == data.astype("<f4").tobytes()

    def test_truncated_payload(self, tmp_path):
        f = make_frame(np.zeros((4, 4), dtype=np.uint16))
        path = tmp_path / "t.rawb"
        write_frame(f, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(FormatError):
            read_frame(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rawb"
        path.write_bytes(b'{"magic": "NOPE"}\n' + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_frame(path)

    def test_dtype_mismatch_with_header(self, tmp_path):
        f = make_frame(np.zeros((4, 4), dtype=np.uint16))
        path = tmp_path / "m.rawb"
        write_frame(f, path)
        blob = path.read_bytes()
        header, payload = blob.split(b"\n", 1)
        tampered = header.replace(b'"u16"', b'"f32"')
        path.write_bytes(tampered + b"\n" + payload)
        with pytest.raises(FormatError):
            read_frame(path)

    def test_unstorable_dtype_rejected(self, tmp_path):
        f = make_frame(np.zeros((2, 2), dtype=np.float64))
        with pytest.raises(FormatError):
            write_frame(f, tmp_path / "x.rawb")

    def test_packed_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        img = PackedImage(
            channels=rng.normal(0, 5, (4, 3, 5)).astype(np.float32),
            space="dn_above_black",
            black_level=512.0,
            white_level=16383.0,
            camera_id="camZ",
            iso=3200,
            clip_hi=2.0,
        )
        write_packed(img, tmp_path / "p.rawb")
        back = read_packed(tmp_path / "p.rawb")
        np.testing.assert_array_equal(back.channels, img.channels)
        assert back.space == img.space and back.clip_hi == 2.0
        assert back.iso == 3200 and back.camera_id == "camZ"


class TestSplitInterleave:
    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from([np.uint16, np.float32, np.float64]),
        h=st.integers(1, 24),
        w=st.integers(1, 24),
        seed=st.integers(0, 2**16),
    )
    def test_split_and_interleave_are_inverses(self, dtype, h, w, seed):
        rng = np.random.default_rng(seed)
        planes = (rng.random((4, h, w)) * 16383).astype(dtype)
        mosaic = interleave_rggb(planes)
        assert mosaic.dtype == planes.dtype
        np.testing.assert_array_equal(split_rggb(mosaic), planes)
        np.testing.assert_array_equal(interleave_rggb(split_rggb(mosaic)), mosaic)
        np.testing.assert_array_equal(split_rggb(mosaic), pack_oracle(mosaic))

    def test_odd_or_non_2d_rejected(self):
        for bad in (np.zeros((3, 4)), np.zeros((4, 5)), np.zeros((2, 4, 4))):
            with pytest.raises(DimensionError):
                split_rggb(bad)


class TestNonFiniteFrames:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rawframe_rejects_non_finite(self, bad):
        data = np.full((4, 4), 1000.0, dtype=np.float32)
        data[1, 2] = bad
        with pytest.raises(DomainError, match="finite"):
            make_frame(data)

    def test_read_frame_names_the_file(self, tmp_path):
        path = tmp_path / "pred.rawb"
        write_frame(make_frame(np.full((4, 4), 1000.0, dtype=np.float32)), path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.float32(np.nan).tobytes()  # last pixel
        path.write_bytes(bytes(blob))
        with pytest.raises(DomainError) as err:
            read_frame(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_read_packed_rejects_non_finite_naming_the_file(self, tmp_path, bad):
        path = tmp_path / "den.rawb"
        img = PackedImage(channels=np.full((4, 2, 2), 0.5, dtype=np.float32),
                          space=SPACE_NORMALIZED, black_level=512.0, white_level=16383.0)
        write_packed(img, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.float32(bad).tobytes()  # last B pixel
        path.write_bytes(bytes(blob))
        with pytest.raises(DomainError, match="finite") as err:
            read_packed(path)
        assert str(err.value).startswith(f"{path}: ")


class TestImageRule:
    """RawFrame and PackedImage share one check of levels and float data."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("space", [SPACE_DN, SPACE_DN_ABOVE_BLACK, SPACE_NORMALIZED])
    def test_packed_rejects_non_finite(self, bad, space):
        ch = np.full((4, 3, 3), 0.5)
        ch[2, 1, 0] = bad
        with pytest.raises(DomainError, match="finite"):
            PackedImage(channels=ch, space=space, black_level=512.0, white_level=16383.0)

    def test_replace_cannot_bring_in_non_finite(self):
        img = pack_rggb(make_frame(np.full((4, 4), 1000.0, dtype=np.float32)))
        with pytest.raises(DomainError, match="finite"):
            replace(img, channels=np.full((4, 2, 2), np.nan))

    def test_packed_may_be_negative_above_black(self):
        img = PackedImage(channels=np.full((4, 1, 1), -3.5), space=SPACE_DN_ABOVE_BLACK,
                          black_level=512.0, white_level=16383.0)
        assert img.channels.min() == -3.5

    @pytest.mark.parametrize("black,white", [
        (200.0, 100.0), (100.0, 100.0), ([0.0, 0.0, 0.0, 50.0], 50.0), (-1.0, 100.0),
        (0.0, np.nan), (np.nan, 100.0),
    ])
    def test_both_types_reject_bad_levels(self, black, white):
        with pytest.raises(ProfileError):
            PackedImage(channels=np.zeros((4, 1, 1)), space=SPACE_DN,
                        black_level=black, white_level=white)
        with pytest.raises(ProfileError):
            RawFrame(data=np.zeros((2, 2), dtype=np.uint16), black_level=black, white_level=white)


class TestReadPlanes:
    def test_mosaic_and_rggb_files(self, tmp_path):
        frame = make_frame(np.arange(16, dtype=np.uint16).reshape(4, 4) + 600)
        write_frame(frame, tmp_path / "m.rawb")
        write_packed(pack_rggb(frame), tmp_path / "p.rawb")
        for name in ("m.rawb", "p.rawb"):
            img = read_planes(tmp_path / name)
            assert img.space == SPACE_DN
            np.testing.assert_array_equal(img.channels, pack_oracle(frame.data))

    def test_other_files_name_the_path(self, tmp_path):
        (tmp_path / "x.ppm").write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(FormatError, match="x.ppm"):
            read_planes(tmp_path / "x.ppm")


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestStoredBytes:
    """Exact bytes of each RAWB layout for fixed inputs (the container format is frozen)."""

    def _ramp(self, h, w):
        return (np.arange(h * w).reshape(h, w) * 37 % 16384)

    def test_write_frame_u16(self, tmp_path):
        write_frame(make_frame(self._ramp(6, 8).astype(np.uint16), iso=1600), tmp_path / "u.rawb")
        assert _sha(tmp_path / "u.rawb") == PINNED["frame_u16"]

    def test_write_frame_f32(self, tmp_path):
        frame = RawFrame(data=(self._ramp(4, 6) / 3.0).astype(np.float32),
                         black_level=[512.0, 511.5, 512.25, 513.0], white_level=16383.0,
                         camera_id="camB", iso=3200, exposure_s=0.125)
        write_frame(frame, tmp_path / "f.rawb")
        assert _sha(tmp_path / "f.rawb") == PINNED["frame_f32"]

    def test_write_packed(self, tmp_path):
        img = PackedImage(channels=(self._ramp(8, 5).reshape(4, 2, 5) / 7.0 - 600).astype(np.float32),
                          space=SPACE_DN_ABOVE_BLACK, black_level=512.0, white_level=16383.0,
                          camera_id="camZ", iso=800, exposure_s=0.01, clip_hi=2.0)
        write_packed(img, tmp_path / "p.rawb")
        assert _sha(tmp_path / "p.rawb") == PINNED["packed_f32"]

    def test_write_rgb_with_extra(self, tmp_path):
        rgb = (self._ramp(12, 5).reshape(4, 5, 3) / 16383.0).astype(np.float64)
        write_rgb(rgb, tmp_path / "rgb.rawb", extra={"isp": {"wb": "gray-world", "gamma": "srgb"}})
        assert _sha(tmp_path / "rgb.rawb") == PINNED["rgb_extra"]


PINNED = {
    "frame_u16": "418d00194cb420fdb5b864bb712c56ca7c044e48ae429ccd305be70c04d22b59",
    "frame_f32": "ef1d81c2449f6827ade26d9cbe0eaea1cf28898515cf3ccfaf6fe7f0a561ca8e",
    "packed_f32": "bf2f9c60e58efabd15ce5183d164fa53c0cffaf324d2451d11cad15f372ea974",
    "rgb_extra": "ffbcc5421e8e9d94a65087d7e4f6629270b8417b51b5de99e84a78e6d89005a3",
}


_LAYOUT_META = st.fixed_dictionaries({
    "black": st.lists(st.floats(0, 4000, allow_nan=False), min_size=4, max_size=4),
    "headroom": st.floats(1.0, 60000, allow_nan=False),
    "camera_id": st.text(max_size=12),
    "iso": st.integers(0, 409600),
    "exposure_s": st.none() | st.floats(1e-6, 30, allow_nan=False),
})


class TestRawbRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(layout=st.sampled_from(["mosaic", "rggb", "rgb"]), dtype=st.sampled_from(["u16", "f32"]),
           h=st.integers(1, 6), w=st.integers(1, 6), meta=_LAYOUT_META,
           space=st.sampled_from([SPACE_DN, SPACE_DN_ABOVE_BLACK, SPACE_NORMALIZED]),
           clip_hi=st.floats(0.5, 4.0, allow_nan=False), seed=st.integers(0, 2**16))
    def test_every_layout_round_trips(self, tmp_path_factory, layout, dtype, h, w, meta,
                                      space, clip_hi, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path_factory.mktemp("rt") / "x.rawb"
        np_dtype = np.uint16 if dtype == "u16" else np.float32
        levels = dict(black_level=meta["black"], white_level=max(meta["black"]) + meta["headroom"],
                      camera_id=meta["camera_id"], iso=meta["iso"], exposure_s=meta["exposure_s"])
        if layout == "rgb":
            rgb = rng.uniform(0, 1, (h, w, 3)).astype(np.float32)
            write_rgb(rgb, path, extra={"note": meta["camera_id"]})
            assert read_rgb(path).tobytes() == rgb.tobytes()
            return
        if layout == "mosaic":
            orig = RawFrame(data=(rng.random((2 * h, 2 * w)) * 16383).astype(np_dtype), **levels)
            write_frame(orig, path)
            back, data = read_frame(path), orig.data
            got = back.data
        else:
            sign = -1 if space == SPACE_DN_ABOVE_BLACK and dtype == "f32" else 0
            chans = ((rng.random((4, h, w)) + 0.5 * sign) * 1000).astype(np_dtype)
            orig = PackedImage(channels=chans, space=space, clip_hi=clip_hi, **levels)
            write_packed(orig, path)
            back, data = read_packed(path), orig.channels
            got = back.channels
            assert back.space == space and back.clip_hi == clip_hi
            np.testing.assert_array_equal(read_planes(path).channels, chans)
        assert got.dtype == np.dtype(np_dtype).newbyteorder("<") and got.tobytes() == data.tobytes()
        np.testing.assert_array_equal(back.black_level, orig.black_level)
        assert (back.white_level, back.camera_id, back.iso, back.exposure_s) == (
            orig.white_level, orig.camera_id, orig.iso, orig.exposure_s)


class TestMalformedBlobs:
    def _valid_blobs(self, tmp_path):
        write_frame(make_frame(np.arange(16, dtype=np.uint16).reshape(4, 4)), tmp_path / "m.rawb")
        write_packed(PackedImage(channels=np.zeros((4, 2, 3), np.float32), space=SPACE_NORMALIZED,
                                 black_level=0.0, white_level=1.0), tmp_path / "p.rawb")
        write_rgb(np.zeros((2, 3, 3)), tmp_path / "r.rawb")
        return {name: (tmp_path / name).read_bytes() for name in ("m.rawb", "p.rawb", "r.rawb")}

    def test_every_truncation_raises_format_error(self, tmp_path):
        readers = {"m.rawb": read_frame, "p.rawb": read_packed, "r.rawb": read_rgb}
        for name, blob in self._valid_blobs(tmp_path).items():
            path = tmp_path / f"cut_{name}"
            for cut in range(len(blob)):
                path.write_bytes(blob[:cut])
                with pytest.raises(FormatError):
                    readers[name](path)
                with pytest.raises(FormatError):
                    read_planes(path)

    @pytest.mark.parametrize("change", [
        {"width": -2, "height": -2},
        {"dtype": ["u16"]},
        {"channels": "one"},
        {"channels": 4},
        {"layout": None},
        {"layout": "rgb"},
        {"black_level": [0.0, 1.0]},
        {"black_level": "dark"},
        {"white_level": "bright"},
        {"iso": None},
    ])
    def test_bad_header_field_raises_format_error(self, tmp_path, change):
        header = {"magic": "RAWB1", "width": 2, "height": 2, "channels": 1, "dtype": "u16",
                  "layout": "mosaic", "space": "dn", "black_level": [0.0] * 4,
                  "white_level": 100.0, **change}
        path = tmp_path / "h.rawb"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8))
        # a level that parses but breaks the image rule names the file too
        with pytest.raises((FormatError, ProfileError), match="h.rawb"):
            read_frame(path)

    def test_missing_level_field_raises_format_error(self, tmp_path):
        path = tmp_path / "h.rawb"
        header = {"magic": "RAWB1", "width": 2, "height": 2, "channels": 1, "dtype": "u16",
                  "layout": "mosaic"}
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8))
        with pytest.raises(FormatError, match="h.rawb"):
            read_frame(path)

    @settings(max_examples=80, deadline=None)
    @given(blob=st.binary(max_size=96), prefix=st.sampled_from([b"", b"{", b'{"magic": "RAWB1"']))
    def test_garbage_raises_format_error(self, tmp_path_factory, blob, prefix):
        path = tmp_path_factory.mktemp("junk") / "junk.rawb"
        path.write_bytes(prefix + blob)
        for reader in (read_frame, read_packed, read_planes, read_rgb):
            with pytest.raises(FormatError):
                reader(path)
