"""Unit-conversion helpers."""

import pytest

from repro.config import units


class TestConstants:
    def test_binary_vs_decimal_sizes(self):
        assert units.KIB == 1024
        assert units.MIB == 1024 ** 2
        assert units.GIB == 1024 ** 3
        assert units.KB == 1000
        assert units.GB == 10 ** 9

    def test_time_constants(self):
        assert units.NS == pytest.approx(1e-9)
        assert units.US == pytest.approx(1e-6)
        assert units.MS == pytest.approx(1e-3)


class TestConversions:
    def test_transfer_time_basic(self):
        assert units.transfer_time(1e9, 1e9) == pytest.approx(1.0)

    def test_transfer_time_zero_bytes_is_free(self):
        assert units.transfer_time(0, 1e9) == 0.0

    def test_transfer_time_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            units.transfer_time(-1, 1e9)

    def test_transfer_time_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            units.transfer_time(10, 0)


class TestFormatting:
    def test_fmt_seconds_scales(self):
        assert units.fmt_seconds(0) == "0 s"
        assert "ns" in units.fmt_seconds(5e-9)
        assert "us" in units.fmt_seconds(5e-6)
        assert "ms" in units.fmt_seconds(5e-3)
        assert units.fmt_seconds(2.0).endswith(" s")


class TestParseBytes:
    def test_plain_and_binary_suffixes(self):
        assert units.parse_bytes("4096") == 4096
        assert units.parse_bytes("512B") == 512
        assert units.parse_bytes("32KB") == 32 * units.KIB
        assert units.parse_bytes("1MB") == units.MIB
        assert units.parse_bytes("2GiB") == 2 * units.GIB

    def test_case_and_whitespace_insensitive(self):
        assert units.parse_bytes(" 1 mb ") == units.MIB
        assert units.parse_bytes("32kib") == 32 * units.KIB

    def test_fractional_values_allowed_if_whole_bytes(self):
        assert units.parse_bytes("0.5KB") == 512

    def test_default_trace_payload_divides_the_dpu_grid(self):
        # `repro trace --payload 1MB` must satisfy the Algorithm 1
        # divisibility requirement for the 256-DPU default machine.
        assert units.parse_bytes("1MB") % (8 * 256) == 0

    def test_rejects_bad_inputs(self):
        for bad in ("", "12XB", "abc", "-4KB", "0", "0.3B"):
            with pytest.raises(ValueError):
                units.parse_bytes(bad)

    def test_rejects_negative_with_clear_error(self):
        with pytest.raises(ValueError, match="positive whole number"):
            units.parse_bytes("-1MB")

    def test_rejects_overflowing_digit_strings(self):
        # float("9" * 400) is inf; this used to surface as an
        # OverflowError from int(inf) rather than a clear ValueError.
        with pytest.raises(ValueError, match="finite"):
            units.parse_bytes("9" * 400)

    def test_rejects_overflow_after_multiplier(self):
        # The digits alone are finite, but scaling by GiB overflows.
        with pytest.raises(ValueError, match="overflows"):
            units.parse_bytes("1" + "0" * 308 + "GB")

    def test_rejects_nan_and_inf_spellings(self):
        # "nan"/"inf" parse as an unknown *suffix*, never as a value.
        for bad in ("nan", "inf", "-inf", "nanKB", "infGB"):
            with pytest.raises(ValueError):
                units.parse_bytes(bad)


class TestIsFiniteNumber:
    def test_accepts_real_numbers(self):
        for value in (1, 0, -3, 1.5, 2**62):
            assert units.is_finite_number(value)

    def test_rejects_non_finite_and_non_numbers(self):
        for value in (
            float("nan"), float("inf"), float("-inf"), "1", None, True,
        ):
            assert not units.is_finite_number(value)
