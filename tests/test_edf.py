"""EDF parser/writer round trips, calibration maps, and malformed inputs."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from eegloop.edf import (
    _BLOCK_LEN,
    _FIXED_FIELDS,
    _SIGNAL_FIELDS,
    EdfError,
    EdfFileHeader,
    EdfSignalHeader,
    SignalTrace,
    parse_edf,
    read_signal,
    to_trace,
    write_edf,
)


def make_file(
    num_signals=1, num_records=2, samples_per_record=4, record_duration_s=1.0,
    signals=None, **sig_fields,
):
    header = EdfFileHeader(
        num_signals=num_signals,
        num_records=num_records,
        record_duration_s=record_duration_s,
    )
    sig_headers = [
        EdfSignalHeader(samples_per_record=samples_per_record, **sig_fields)
        for _ in range(num_signals)
    ]
    if signals is None:
        n = num_records * samples_per_record
        signals = [np.linspace(-500.0, 500.0, n) for _ in range(num_signals)]
    return header, sig_headers, signals


def encoded(values, sig):
    """The codes ``write_edf`` stores for the physical ``values`` under ``sig``'s
    calibration, as ``parse_edf`` reads them back."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    sig = dataclasses.replace(sig, samples_per_record=values.size)
    _, _, (codes,) = parse_edf(write_edf(EdfFileHeader(num_records=1), [sig], [values]))
    return codes.astype(np.int64)


def decoded(codes, sig):
    """The physical values ``to_trace`` decodes ``codes`` to under ``sig``."""
    return to_trace(EdfFileHeader(), sig, np.asarray(codes).reshape(-1)).samples


def reference_physical_to_digital(values, hdr):
    """The encoder on arrays as first written: whole-array steps."""
    scale = (hdr.digital_max - hdr.digital_min) / (hdr.physical_max - hdr.physical_min)
    raw = hdr.digital_min + (values - hdr.physical_min) * scale
    rounded = np.sign(raw) * np.floor(np.abs(raw) + 0.5)
    return np.clip(rounded, hdr.digital_min, hdr.digital_max).astype(np.int64)


def reference_digital_to_physical(codes, hdr):
    """The decoder on arrays as first written."""
    scale = (hdr.physical_max - hdr.physical_min) / (hdr.digital_max - hdr.digital_min)
    return hdr.physical_min + (codes.astype(np.float64) - hdr.digital_min) * scale


def reference_records(num_records, sig_headers, signals):
    """The data records ``write_edf`` appends to the header, as first written."""
    digital = [reference_physical_to_digital(np.asarray(s, dtype=np.float64), sig)
               .astype("<i2") for sig, s in zip(sig_headers, signals)]
    return np.concatenate(
        [codes.reshape(num_records, sig.samples_per_record)
         for sig, codes in zip(sig_headers, digital)], axis=1).tobytes()


# (physical_min, physical_max, digital_min, digital_max), reversed maps included.
CALIBRATIONS = [(-1000.0, 1000.0, -32768, 32767), (-500.0, 500.0, -2048, 2047),
                (0.0, 100.0, 0, 100), (3.25, -3.25, -100, 100), (-0.5, 2000.0, -7, 32767)]

# (num_records, samples_per_record of each signal): one sample, records around
# a block, many short records per block, and demo 01's unequal signals.
LAYOUTS = [(1, (1,)), (3, (7,)), (_BLOCK_LEN // 7 + 3, (7,)), (2, (_BLOCK_LEN - 1,)),
           (2, (_BLOCK_LEN,)), (2, (_BLOCK_LEN + 1,)), (10, (256, 1)),
           (2 * _BLOCK_LEN // 256 + 1, (256, 1, 7))]


@st.composite
def edf_files(draw):
    """Header, signal headers and physical signals spanning past both limits."""
    num_records, rates = draw(st.sampled_from(LAYOUTS))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sig_headers, signals = [], []
    for i, spr in enumerate(rates):
        pmin, pmax, dmin, dmax = draw(st.sampled_from(CALIBRATIONS))
        sig = EdfSignalHeader(label=f"S{i}", physical_min=pmin, physical_max=pmax,
                              digital_min=dmin, digital_max=dmax, samples_per_record=spr)
        n = num_records * spr
        x = pmin + rng.uniform(-0.2, 1.2, n) * (pmax - pmin)
        half_codes = [pmin + (c + 0.5 - dmin) * (pmax - pmin) / (dmax - dmin)
                      for c in (dmin, -1, 0, dmax - 1)]
        specials = half_codes + [pmin, pmax, 0.0, -0.0, math.inf, -math.inf, 1e300]
        picks = draw(st.lists(st.sampled_from(specials), max_size=6))
        x[rng.integers(0, n, len(picks))] = picks
        sig_headers.append(sig)
        signals.append(x)
    header = EdfFileHeader(num_signals=len(rates), num_records=num_records)
    return header, sig_headers, signals


class TestCodecsMatchReference:
    """The blocked, in-place codecs give the whole-array result to the byte."""

    @given(edf_files())
    @settings(max_examples=60, deadline=None)
    def test_write_edf_is_byte_identical(self, case):
        header, sigs, signals = case
        data = write_edf(header, sigs, signals)
        assert data[header.header_bytes:] == reference_records(header.num_records,
                                                               sigs, signals)

    @given(edf_files())
    @settings(max_examples=40, deadline=None)
    def test_to_trace_is_byte_identical(self, case):
        header, sigs, signals = case
        parsed, parsed_sigs, digital = parse_edf(write_edf(header, sigs, signals))
        for sig, codes in zip(parsed_sigs, digital):
            expected = reference_digital_to_physical(codes, sig).tobytes()
            assert to_trace(parsed, sig, codes).samples.tobytes() == expected

    @pytest.mark.parametrize("n", [1, _BLOCK_LEN - 1, _BLOCK_LEN + 1, 3 * _BLOCK_LEN + 5])
    def test_to_trace_of_every_code_is_byte_identical(self, n):
        sig = EdfSignalHeader(physical_min=-187.5, physical_max=312.25)
        codes = np.random.default_rng(n).integers(-32768, 32768, n).astype("<i2")
        codes[0], codes[-1] = sig.digital_min, sig.digital_max
        trace = to_trace(EdfFileHeader(num_records=1), sig, codes)
        assert trace.samples.tobytes() == reference_digital_to_physical(codes, sig).tobytes()

    def test_code_out_of_range_in_a_later_block_raises(self):
        sig = EdfSignalHeader(digital_min=-100, digital_max=100)
        codes = np.zeros(2 * _BLOCK_LEN, dtype="<i2")
        codes[_BLOCK_LEN + 1] = 101
        with pytest.raises(EdfError, match="outside"):
            to_trace(EdfFileHeader(num_records=1), sig, codes)

    def test_rounding_matches_sign_abs_floor(self):
        # A unit scale: each value here lands on the code axis exactly.
        sig = EdfSignalHeader(physical_min=-100.0, physical_max=100.0,
                              digital_min=-100, digital_max=100)
        halves = np.array([0.5, 1.5, 2.5, 50.5, 99.5])
        values = np.concatenate([halves, halves - 2**-40, halves + 2**-40,
                                 [0.0, -0.0, 5e-324, 0.25, 0.75, 1e300, math.inf]])
        values = np.concatenate([values, -values])
        codes = encoded(values, sig)
        assert codes.tobytes() == reference_physical_to_digital(values, sig).tobytes()
        assert codes[0] == 1 and codes[len(values) // 2] == -1  # half away from zero
        with pytest.raises(EdfError, match=f"NaN sample at index {len(values)}"):
            encoded(np.append(values, math.nan), sig)

    @pytest.mark.parametrize("value, index", [(math.nan, 0), ([1.0, -2.0, math.nan], 2)])
    def test_nan_sample_rejected_naming_its_index(self, value, index):
        with pytest.raises(EdfError, match=f"signal 'EEG' has a NaN sample at index {index}"):
            encoded(value, EdfSignalHeader())

    def test_nan_sample_rejected_by_write_edf(self):
        header, sigs, signals = make_file(num_signals=2, num_records=3,
                                          samples_per_record=_BLOCK_LEN,
                                          label="EEG Pz-Oz")
        sigs[1] = EdfSignalHeader(label="marker", samples_per_record=_BLOCK_LEN)
        signals[1][_BLOCK_LEN + 5] = math.nan
        with pytest.raises(EdfError, match=f"signal 'marker' has a NaN sample at "
                                           f"index {_BLOCK_LEN + 5}"):
            write_edf(header, sigs, signals)


class TestHeaderLayout:
    def test_single_signal_header_bytes(self):
        header, sigs, signals = make_file(num_signals=1)
        parsed, _, _ = parse_edf(write_edf(header, sigs, signals))
        assert parsed.header_bytes == 512
        assert parsed.header_bytes == 256 * (parsed.num_signals + 1)

    def test_written_file_size_matches_layout(self):
        header, sigs, signals = make_file(num_signals=3, num_records=5,
                                          samples_per_record=7)
        data = write_edf(header, sigs, signals)
        expected = 256 * (3 + 1) + 5 * sum(s.samples_per_record for s in sigs) * 2
        assert len(data) == expected

    def test_zero_bytes_decode_to_zero_codes(self):
        header, sigs, signals = make_file(num_records=1, samples_per_record=8)
        data = bytearray(write_edf(header, sigs, signals))
        data[512:] = bytes(16)
        _, _, samples = parse_edf(bytes(data))
        assert_array_equal(samples[0], np.zeros(8, dtype=np.int16))


class TestRoundTrip:
    def test_header_fields_and_digital_samples_survive(self):
        header, sigs, signals = make_file(
            num_signals=2, num_records=10, samples_per_record=16,
            label="EEG Fpz-Cz", physical_dimension="uV",
        )
        data = write_edf(header, sigs, signals)
        parsed, parsed_sigs, digital = parse_edf(data)
        assert parsed == header
        assert parsed_sigs == sigs
        for sig, phys, dig in zip(sigs, signals, digital):
            assert_array_equal(dig, reference_physical_to_digital(phys, sig))

    def test_codes_are_read_only_and_one_signal_is_a_view_of_the_bytes(self):
        header, sigs, signals = make_file(num_records=3, samples_per_record=8)
        data = write_edf(header, sigs, signals)
        _, _, (codes,) = parse_edf(data)
        assert np.shares_memory(codes, np.frombuffer(data, dtype=np.uint8))
        assert not codes.flags.writeable
        header, sigs, signals = make_file(num_signals=2, num_records=3,
                                          samples_per_record=8)
        _, _, digital = parse_edf(write_edf(header, sigs, signals))
        assert not any(d.flags.writeable for d in digital)

    def test_write_parse_write_is_byte_identical(self):
        header, sigs, signals = make_file(num_records=3, record_duration_s=0.5)
        data = write_edf(header, sigs, signals)
        parsed, parsed_sigs, digital = parse_edf(data)
        rewritten = write_edf(
            parsed, parsed_sigs,
            [to_trace(parsed, s, d).samples for d, s in zip(digital, parsed_sigs)],
        )
        assert rewritten == data

    def test_out_of_range_samples_clamp_to_digital_max(self):
        header, sigs, _ = make_file(num_records=1, samples_per_record=4,
                                    physical_min=-100.0, physical_max=100.0)
        _, _, digital = parse_edf(
            write_edf(header, sigs, [np.array([0.0, 50.0, 150.0, 1e9])])
        )
        assert digital[0][2] == sigs[0].digital_max
        assert digital[0][3] == sigs[0].digital_max

    @given(
        st.lists(
            st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False),
            min_size=4, max_size=4,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_any_in_range_signal_round_trips_codes(self, values):
        header, sigs, _ = make_file(num_records=1, samples_per_record=4)
        data = write_edf(header, sigs, [np.array(values)])
        _, _, digital = parse_edf(data)
        assert_array_equal(digital[0],
                           reference_physical_to_digital(np.array(values), sigs[0]))


class TestCalibration:
    """The calibration map through the one codec path: codes decode with
    ``to_trace``, and physical values encode with ``write_edf``."""

    HDR = EdfSignalHeader(physical_min=-1000.0, physical_max=1000.0,
                          digital_min=-32768, digital_max=32767)

    def test_endpoints_map_exactly(self):
        assert_array_equal(decoded([-32768, 32767], self.HDR), [-1000.0, 1000.0])
        assert_array_equal(encoded([-1000.0, 1000.0], self.HDR), [-32768, 32767])

    def test_code_zero_maps_off_center(self):
        # -1000 + 32768 * 2000/65535, evaluated independently
        assert decoded(0, self.HDR)[0] == pytest.approx(0.015259021896667946, abs=1e-15)

    def test_out_of_range_code_raises(self):
        with pytest.raises(ValueError):
            decoded(40000, self.HDR)

    @pytest.mark.parametrize("code", [-101, 101, np.array([0, 101])])
    def test_out_of_range_code_raises_edf_error(self, code):
        hdr = EdfSignalHeader(digital_min=-100, digital_max=100)
        with pytest.raises(EdfError, match=r"digital code outside \[-100, 100\]"):
            decoded(code, hdr)

    def test_out_of_range_values_and_infinities_clamp(self):
        assert_array_equal(encoded([2000.0, -2000.0, math.inf, -math.inf], self.HDR),
                           [32767, -32768, 32767, -32768])

    def test_round_trip_of_every_code(self):
        codes = np.arange(self.HDR.digital_min, self.HDR.digital_max + 1)
        assert_array_equal(encoded(decoded(codes, self.HDR), self.HDR), codes)

    @given(st.integers(min_value=-32768, max_value=32767))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_any_code(self, code):
        assert encoded(decoded(code, self.HDR), self.HDR)[0] == code

    def test_calibration_strictly_monotonic(self):
        codes = np.arange(-32768, 32767, 37)
        phys = decoded(codes, self.HDR)
        assert np.all(np.diff(phys) > 0)


class TestHeadersCheckThemselves:
    def test_default_headers_are_valid(self):
        assert EdfFileHeader().num_signals == 1
        assert EdfSignalHeader().samples_per_record == 256

    @pytest.mark.parametrize(
        "fields, cause",
        [({"num_signals": 0}, "num_signals must be >= 1, got 0"),
         ({"num_signals": -3}, "num_signals must be >= 1, got -3"),
         ({"record_duration_s": 0.0}, "record duration must be positive and finite"),
         ({"record_duration_s": -1.0}, "record duration must be positive and finite"),
         ({"record_duration_s": math.inf}, "record duration must be positive and finite"),
         ({"record_duration_s": math.nan}, "record duration must be positive and finite"),
         ({"num_records": -2}, "num_records must be -1 (unknown) or 0 to 99999999, got -2"),
         ({"num_records": 10**8},
          "num_records must be -1 (unknown) or 0 to 99999999, got 100000000"),
         ({"num_records": 10**9},
          "num_records must be -1 (unknown) or 0 to 99999999, got 1000000000")],
        ids=["no_signals", "negative_signals", "zero_duration", "negative_duration",
             "infinite_duration", "nan_duration", "negative_records", "records_past_field",
             "billion_records"],
    )
    def test_invalid_file_header_refused(self, fields, cause):
        with pytest.raises(EdfError, match=f"^{re.escape(cause)}$"):
            EdfFileHeader(**fields)
        with pytest.raises(EdfError, match=f"^{re.escape(cause)}$"):
            dataclasses.replace(EdfFileHeader(), **fields)

    @pytest.mark.parametrize("num_records", [-1, 0, 1, 99_999_999])
    def test_record_count_that_fits_its_field_accepted(self, num_records):
        assert EdfFileHeader(num_records=num_records).num_records == num_records

    @pytest.mark.parametrize(
        "fields, cause",
        [({"digital_min": 5, "digital_max": 5}, "digital_min must be < digital_max"),
         ({"digital_min": 6, "digital_max": 5}, "digital_min must be < digital_max"),
         ({"physical_min": -math.inf}, "physical limits must be finite"),
         ({"physical_max": math.inf}, "physical limits must be finite"),
         ({"physical_max": math.nan}, "physical limits must be finite"),
         ({"physical_min": 3.0, "physical_max": 3.0},
          "physical_min must differ from physical_max"),
         ({"samples_per_record": 0}, "samples_per_record must be 1 to 99999999, got 0"),
         ({"samples_per_record": 10**8},
          "samples_per_record must be 1 to 99999999, got 100000000"),
         ({"digital_min": -32769}, "digital range must fit in signed 16 bits"),
         ({"digital_max": 32768}, "digital range must fit in signed 16 bits")],
        ids=["empty_digital_range", "reversed_digital_range", "infinite_physical_min",
             "infinite_physical_max", "nan_physical_max", "empty_physical_range",
             "no_samples", "too_many_samples", "digital_min_width", "digital_max_width"],
    )
    def test_invalid_signal_header_refused(self, fields, cause):
        with pytest.raises(EdfError, match=f"^{cause}$"):
            EdfSignalHeader(**fields)
        with pytest.raises(EdfError, match=f"^{cause}$"):
            dataclasses.replace(EdfSignalHeader(), **fields)


class TestMalformedInput:
    def test_truncated_header_rejected(self):
        with pytest.raises(EdfError, match="too short"):
            parse_edf(b"0" * 100)

    def test_non_numeric_num_records_rejected(self):
        header, sigs, signals = make_file()
        data = bytearray(write_edf(header, sigs, signals))
        data[236:244] = b"abc     "  # num_records field
        with pytest.raises(EdfError, match="non-numeric"):
            parse_edf(bytes(data))

    def test_inconsistent_header_bytes_rejected(self):
        header, sigs, signals = make_file()
        data = bytearray(write_edf(header, sigs, signals))
        data[184:192] = b"9999    "  # header_bytes field
        with pytest.raises(EdfError, match="header_bytes"):
            parse_edf(bytes(data))

    def test_short_data_section_rejected(self):
        header, sigs, signals = make_file(num_records=4)
        data = write_edf(header, sigs, signals)
        with pytest.raises(EdfError, match="data section"):
            parse_edf(data[:-5])

    # Byte ranges of one signal's header fields, after the 256-byte fixed header.
    @pytest.mark.parametrize(
        "field, start, text",
        [
            ("physical_min must differ", 368, b"-1000"),  # physical_max = physical_min
            ("digital_min must be < digital_max", 384, b"-32768"),  # digital_max
            ("samples_per_record", 472, b"0"),
            ("signed 16 bits", 384, b"40000"),  # digital_max
            ("non-numeric", 360, b"nan"),  # physical_min
            ("non-numeric", 368, b"inf"),  # physical_max
            ("finite", 368, b"1e999"),  # physical_max overflows to inf
        ],
        ids=["physical_range", "digital_range", "samples_per_record", "digital_width",
             "physical_nan", "physical_inf", "physical_overflow"],
    )
    def test_invalid_signal_header_rejected(self, field, start, text):
        header, sigs, signals = make_file()
        data = bytearray(write_edf(header, sigs, signals))
        data[start : start + 8] = text.ljust(8)
        with pytest.raises(EdfError, match=field):
            parse_edf(bytes(data))

    # Byte ranges of fixed header fields.
    @pytest.mark.parametrize(
        "cause, start, text",
        [
            ("non-numeric", 244, b"nan"),  # record duration
            ("non-numeric", 244, b"inf"),
            ("positive and finite", 244, b"0"),
            ("positive and finite", 244, b"1e999"),
            ("non-numeric", 236, b"1_0"),  # num_records
            ("non-ASCII", 200, b"\xff"),  # reserved
        ],
        ids=["duration_nan", "duration_inf", "duration_zero", "duration_overflow",
             "num_records_underscore", "reserved_non_ascii"],
    )
    def test_invalid_fixed_header_rejected(self, cause, start, text):
        header, sigs, signals = make_file()
        data = bytearray(write_edf(header, sigs, signals))
        data[start : start + len(text)] = text
        with pytest.raises(EdfError, match=cause):
            parse_edf(bytes(data))

    def test_writer_rejects_partial_records(self):
        header, sigs, _ = make_file(num_records=2, samples_per_record=4)
        with pytest.raises(EdfError, match="samples"):
            write_edf(header, sigs, [np.zeros(7)])

    @pytest.mark.parametrize(
        "file_fields, sig_fields, cause",
        [({"num_signals": 2}, {}, "header.num_signals disagrees with provided signals"),
         ({"num_records": -1}, {}, "num_records must be >= 1 when writing"),
         ({"record_duration_s": 1 / 3}, {}, "value 0.3333333333333333 for field "
          "'record_duration_s' has no exact 8-character representation"),
         ({"patient_id": "Zo\u00eb"}, {}, "field 'patient_id' is not ASCII"),
         ({}, {"label": "x" * 17}, "field 'label' longer than 16 bytes: 'xxxxxxxxxxxxxxxxx'")],
        ids=["signal_count", "unknown_record_count", "inexact_duration", "non_ascii",
             "long_label"],
    )
    def test_writer_refuses_what_it_cannot_encode(self, file_fields, sig_fields, cause):
        header = EdfFileHeader(**{"num_records": 1, **file_fields})
        sig = EdfSignalHeader(samples_per_record=4, **sig_fields)
        with pytest.raises(EdfError, match=f"^{re.escape(cause)}$"):
            write_edf(header, [sig], [np.zeros(4)])

    def test_unknown_record_count_with_a_partial_record_rejected(self):
        header, sigs, signals = make_file(num_records=3)
        data = bytearray(write_edf(header, sigs, signals))
        data[236:244] = b"-1      "  # num_records
        with pytest.raises(EdfError, match="^data section is not a whole number of records$"):
            parse_edf(bytes(data[:-2]))


def numeric_fields(num_signals):
    """(offset, width) of each numeric header field for ``num_signals`` signals."""
    found, pos = [], 0
    for fields, count in ((_FIXED_FIELDS, 1), (_SIGNAL_FIELDS, num_signals)):
        for _, width, kind in fields:
            for _ in range(count):
                if kind is not str:
                    found.append((pos, width))
                pos += width
    return found


# A valid 2-signal file. A mutation either fills a numeric field with a
# number-like token or writes a byte, often printable, anywhere in the header.
FUZZ_FILE = write_edf(*make_file(num_signals=2, num_records=3, samples_per_record=5))
HEADER_LEN = 256 * 3
TOKENS = [b"0", b"-1", b"+7", b".5", b"1e999", b"nan", b"inf", b"1_0", b"99999999"]
fuzz_patch = st.one_of(
    st.tuples(st.sampled_from(numeric_fields(2)), st.sampled_from(TOKENS)).map(
        lambda field_token: (field_token[0][0], field_token[1].ljust(field_token[0][1]))
    ),
    st.tuples(
        st.integers(0, HEADER_LEN - 1),
        st.one_of(st.integers(32, 126), st.integers(0, 255)).map(lambda b: bytes([b])),
    ),
)


class TestParserFuzz:
    @given(
        st.lists(fuzz_patch, min_size=1, max_size=3),
        st.one_of(st.none(), st.integers(0, len(FUZZ_FILE))),
    )
    @settings(max_examples=600, deadline=None)
    def test_mutated_header_parses_or_raises_edf_error(self, patches, cut):
        data = bytearray(FUZZ_FILE)
        for pos, token in patches:
            data[pos : pos + len(token)] = token
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a label may turn into an annotation
                header, sig_headers, digital = parse_edf(bytes(data[:cut]))
        except EdfError:
            return
        # The headers checked themselves when parse_edf built them.
        record_counts = set()
        for sig, codes in zip(sig_headers, digital, strict=True):
            assert codes.size % sig.samples_per_record == 0
            record_counts.add(codes.size // sig.samples_per_record)
        assert len(record_counts) <= 1
        if header.num_records >= 0:
            assert record_counts <= {header.num_records}


class TestAnnotationsAndTraces:
    def test_annotation_signal_skipped_with_warning(self):
        header = EdfFileHeader(num_signals=2, num_records=1)
        sigs = [
            EdfSignalHeader(samples_per_record=4),
            EdfSignalHeader(label="EDF Annotations", samples_per_record=4),
        ]
        data = write_edf(header, sigs, [np.arange(4.0), np.zeros(4)])
        with pytest.warns(UserWarning, match="annotation"):
            _, parsed_sigs, digital = parse_edf(data)
        assert len(parsed_sigs) == 1
        assert len(digital) == 1
        assert parsed_sigs[0].label == "EEG"

    def test_trace_rate_from_record_layout(self):
        header, sigs, signals = make_file(samples_per_record=128,
                                          record_duration_s=0.5)
        parsed, parsed_sigs, digital = parse_edf(write_edf(header, sigs, signals))
        trace = to_trace(parsed, parsed_sigs[0], digital[0])
        assert trace.rate_hz == 256.0
        assert trace.samples.size == 256

    def test_trace_of_no_rate_rejected(self):
        with pytest.raises(ValueError, match="^rate_hz must be positive$"):
            SignalTrace(np.zeros(4), 0.0)

    def test_unknown_record_count_inferred_from_length(self):
        header, sigs, signals = make_file(num_records=3)
        data = bytearray(write_edf(header, sigs, signals))
        data[236:244] = b"-1      "
        parsed, _, digital = parse_edf(bytes(data))
        assert digital[0].size == 12


class TestReadSignal:
    def test_returns_the_headers_and_trace_of_one_signal(self):
        header, sigs, signals = make_file(num_signals=2, samples_per_record=128,
                                          record_duration_s=0.5)
        signals[1] = -signals[1]
        data = write_edf(header, sigs, signals)
        parsed, parsed_sigs, digital = parse_edf(data)
        file_header, sig, trace = read_signal(data, 1)
        assert file_header == parsed
        assert sig == parsed_sigs[1]
        assert trace.rate_hz == 256.0
        assert_array_equal(trace.samples,
                           to_trace(parsed, parsed_sigs[1], digital[1]).samples)
        assert_array_equal(read_signal(data)[2].samples,
                           to_trace(parsed, parsed_sigs[0], digital[0]).samples)

    @pytest.mark.parametrize("index", [-1, 2, 5])
    def test_index_out_of_range_raises_edf_error(self, index):
        data = write_edf(*make_file(num_signals=2))
        with pytest.raises(EdfError, match=f"no signal {index}; the file has 2 signal"):
            read_signal(data, index)

    def test_annotation_signals_are_not_counted(self):
        header = EdfFileHeader(num_records=1)
        sigs = [EdfSignalHeader(label="EDF Annotations", samples_per_record=4)]
        data = write_edf(header, sigs, [np.zeros(4)])
        with pytest.warns(UserWarning, match="annotation"), \
                pytest.raises(EdfError, match="no signal 0; the file has 0 signal"):
            read_signal(data)
