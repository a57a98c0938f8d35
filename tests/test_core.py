import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rawbench.core import (
    PackedImage,
    RawFrame,
    Roi,
    SPACE_DN,
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
    split_rggb,
    unpack_rggb,
    write_frame,
    write_packed,
)
from rawbench.errors import DimensionError, DomainError, FormatError, ProfileError, UnsupportedCfa

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

    def test_odd_dims_rejected(self):
        with pytest.raises(DimensionError):
            RawFrame(data=np.zeros((3, 4)), black_level=0.0, white_level=1.0)

    def test_non_rggb_rejected(self):
        f = RawFrame(data=np.zeros((4, 4), dtype=np.uint16), black_level=0.0,
                     white_level=10.0, cfa="BGGR")
        with pytest.raises(UnsupportedCfa):
            pack_rggb(f)


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
        bad = PackedImage(channels=np.zeros((4, 1, 1)), space=SPACE_DN,
                          black_level=200.0, white_level=100.0)
        with pytest.raises(ProfileError):
            normalize(bad)

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
