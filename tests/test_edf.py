"""EDF writer/parser round trips, header validation offsets, and TAL decoding."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sst.edf import (
    HEADER_FIELDS,
    SIGNAL_FIELDS,
    EdfHeader,
    EdfSignalHeader,
    Hypnogram,
    annotation_hypnogram,
    parse_edf,
    parse_tal_annotations,
    write_edf,
)
from sst.errors import DataError, ParseError

from conftest import tal_edf


def one_signal_header(n_records=2, spr=3, duration=1.0):
    sig = EdfSignalHeader(
        label="EEG Fpz-Cz", transducer="AgAgCl electrode", phys_dim="uV",
        phys_min=-1.0, phys_max=1.0, dig_min=-100, dig_max=100,
        prefilter="HP:0.5Hz", samples_per_record=spr,
    )
    return EdfHeader(
        version="0", patient="X F X X", recording="Startdate 01-JAN-01",
        start_date="01.01.01", start_time="00.00.00",
        header_bytes=512, reserved="", n_records=n_records,
        record_duration_s=duration, n_signals=1, signals=[sig],
    )


def _numeric_fields():
    """{name: (offset, width)} of the numeric header fields of a one-signal file."""
    out, at = {}, 0
    for name, width, kind in (*HEADER_FIELDS, *SIGNAL_FIELDS):
        if kind is not str:
            out[name] = (at, width)
        at += width
    return out


NUMERIC_FIELDS = _numeric_fields()

_NUMBERS = st.one_of(
    st.integers(-(10**7), 10**8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -1, 1, -32768, 32767, 1e308, -1e308, 1e-300, 5e-324]),
)


def _field_text(value, width):
    """The value as an EDF field: an integer, or the most digits of a float that fit."""
    if isinstance(value, int):
        return str(value)
    for digits in range(10, 0, -1):
        text = f"{value:.{digits}g}"
        if len(text) <= width:
            return text
    return text


class TestRoundTrip:
    def test_single_signal_values(self):
        header = one_signal_header()
        digital = [np.array([-100, 0, 100, 50, -50, 25], dtype=np.int16)]
        blob = write_edf(header, digital)
        parsed, traces, warnings = parse_edf(blob)
        assert warnings == []
        assert parsed == header
        np.testing.assert_array_equal(traces[0].digital, digital[0])
        # hand-computed scalings: gain = 2/200 = 0.01, offset -1 at -100
        np.testing.assert_allclose(
            traces[0].samples, [-1.0, 0.0, 1.0, 0.5, -0.5, 0.25], atol=1e-15
        )
        assert traces[0].fs == 3.0
        assert traces[0].label == "EEG Fpz-Cz"

    def test_digital_min_maps_to_physical_min(self):
        header = one_signal_header(n_records=1)
        blob = write_edf(header, [np.array([-100, -100, -100], dtype=np.int16)])
        _, traces, _ = parse_edf(blob)
        np.testing.assert_allclose(traces[0].samples, -1.0, atol=1e-15)

    def test_multi_signal_interleave(self, rng):
        sig_a = EdfSignalHeader(
            label="EEG A", transducer="", phys_dim="uV", phys_min=-10.0, phys_max=10.0,
            dig_min=-2048, dig_max=2047, prefilter="", samples_per_record=3,
        )
        sig_b = EdfSignalHeader(
            label="EEG B", transducer="", phys_dim="uV", phys_min=-5.0, phys_max=5.0,
            dig_min=-512, dig_max=511, prefilter="", samples_per_record=2,
        )
        header = EdfHeader(
            version="0", patient="p", recording="r", start_date="02.03.04",
            start_time="05.06.07", header_bytes=768, reserved="", n_records=3,
            record_duration_s=2.0, n_signals=2, signals=[sig_a, sig_b],
        )
        dig_a = rng.integers(-2048, 2048, size=9).astype(np.int16)
        dig_b = rng.integers(-512, 512, size=6).astype(np.int16)
        blob = write_edf(header, [dig_a, dig_b])
        parsed, traces, _ = parse_edf(blob)
        assert parsed == header
        np.testing.assert_array_equal(traces[0].digital, dig_a)
        np.testing.assert_array_equal(traces[1].digital, dig_b)
        assert traces[0].fs == 1.5
        assert traces[1].fs == 1.0

    def test_write_parse_write_is_stable(self):
        header = one_signal_header()
        digital = [np.arange(6, dtype=np.int16)]
        blob = write_edf(header, digital)
        parsed, traces, _ = parse_edf(blob)
        again = write_edf(parsed, [traces[0].digital])
        assert again == blob

    def test_writer_rejects_out_of_range(self):
        header = one_signal_header(n_records=1)
        with pytest.raises(DataError):
            write_edf(header, [np.array([0, 0, 2000], dtype=np.int16)])

    def test_writer_rejects_wrong_length(self):
        header = one_signal_header(n_records=2)
        with pytest.raises(DataError):
            write_edf(header, [np.zeros(5, dtype=np.int16)])


class TestParseErrors:
    def blob(self):
        return write_edf(one_signal_header(), [np.arange(6, dtype=np.int16)])

    def test_too_short(self):
        with pytest.raises(ParseError) as err:
            parse_edf(b"0       ")
        assert err.value.offset is not None

    def test_cut_mid_record(self):
        blob = self.blob()
        with pytest.raises(ParseError) as err:
            parse_edf(blob[:-3])
        assert err.value.offset is not None
        assert "offset" in str(err.value)

    def test_non_numeric_field(self):
        blob = bytearray(self.blob())
        blob[184:192] = b"XXXXXXXX"  # header_bytes field
        with pytest.raises(ParseError) as err:
            parse_edf(bytes(blob))
        assert err.value.offset == 184

    def test_header_bytes_mismatch(self):
        blob = bytearray(self.blob())
        blob[184:192] = b"768     "
        with pytest.raises(ParseError, match="header_bytes"):
            parse_edf(bytes(blob))

    def test_digital_range_inverted(self):
        blob = bytearray(self.blob())
        # dig_min field of signal 0 starts at 256 + 16 + 80 + 8 + 8 + 8 = 376
        blob[376:384] = b"100     "
        with pytest.raises(ParseError, match="digital min"):
            parse_edf(bytes(blob))

    @pytest.mark.parametrize("duration", [b"0       ", b"nan     ", b"-1      "])
    def test_record_duration_must_be_positive_and_finite(self, duration):
        blob = bytearray(self.blob())
        blob[244:252] = duration  # record_duration_s field
        for strict in (True, False):
            with pytest.raises(ParseError, match="record_duration_s") as err:
                parse_edf(bytes(blob), strict=strict)
            assert err.value.offset == 244

    @pytest.mark.parametrize("field,at,value", [
        ("phys_min", 360, b"nan     "),
        ("phys_max", 368, b"inf     "),
        ("phys_min", 360, b"-inf    "),
    ])
    def test_physical_range_must_be_finite(self, field, at, value):
        blob = bytearray(self.blob())
        blob[at : at + 8] = value  # signal 0 phys_min at 256 + 16 + 80 + 8 = 360
        for strict in (True, False):
            with pytest.raises(ParseError, match=field) as err:
                parse_edf(bytes(blob), strict=strict)
            assert err.value.offset == at

    def test_physical_range_overflow(self):
        blob = bytearray(self.blob())
        blob[360:376] = b"-1e308  1e308   "
        with pytest.raises(ParseError, match="physical range") as err:
            parse_edf(bytes(blob))
        assert err.value.offset == 360

    def test_sample_map_overflow(self):
        blob = bytearray(self.blob())
        # phys 0..1e308 over dig 0..1: a stored 5 would map to 5e308
        blob[360:392] = b"0       1e308   0       1       "
        for strict in (True, False):
            with pytest.raises(ParseError, match="maps int16 samples outside float64") as err:
                parse_edf(bytes(blob), strict=strict)
            assert err.value.offset == 368

    @settings(max_examples=300, deadline=None)
    @given(changes=st.lists(st.tuples(st.sampled_from(sorted(NUMERIC_FIELDS)), _NUMBERS),
                            min_size=1, max_size=4, unique_by=lambda c: c[0]))
    @example(changes=[("phys_min", 0), ("phys_max", 1e308), ("dig_min", 0), ("dig_max", 1)])
    @example(changes=[("record_duration_s", 5e-324)])
    def test_numeric_header_mutations(self, changes):
        """Any numbers in the numeric header fields: the file parses to traces
        with a positive, finite rate and finite samples, or it is refused with
        a ParseError at an offset."""
        blob = bytearray(self.blob())
        for name, value in changes:
            at, width = NUMERIC_FIELDS[name]
            text = _field_text(value, width)
            assume(len(text) <= width)
            blob[at : at + width] = text.encode("ascii").ljust(width)
        for strict in (True, False):
            try:
                _, traces, _ = parse_edf(bytes(blob), strict=strict)
            except ParseError as exc:
                assert exc.offset is not None
                continue
            for trace in traces:
                assert 0 < trace.fs < math.inf
                assert np.isfinite(trace.samples).all()

    def test_lenient_repairs_padded_numeric(self):
        blob = bytearray(self.blob())
        blob[236:244] = b"2 rec   "  # n_records field
        with pytest.raises(ParseError):
            parse_edf(bytes(blob))
        _, _, warnings = parse_edf(bytes(blob), strict=False)
        assert any("n_records" in w for w in warnings)

    def test_lenient_replaces_non_ascii(self):
        blob = bytearray(self.blob())
        blob[8] = 0xFF  # patient field
        with pytest.raises(ParseError):
            parse_edf(bytes(blob))
        _, _, warnings = parse_edf(bytes(blob), strict=False)
        assert any("patient" in w for w in warnings)

    def test_lenient_field_stays_ascii_and_writable(self):
        blob = bytearray(self.blob())
        blob[8] = 0xFF    # first byte of patient "X F X X"
        blob[10] = 0x80
        header, traces, _ = parse_edf(bytes(blob), strict=False)
        assert header.patient == "? ? X X"
        blob[8] = blob[10] = ord("?")
        assert write_edf(header, [trace.digital for trace in traces]) == bytes(blob)


class TestTal:
    def test_documented_fixture(self):
        hyp = parse_tal_annotations(b"+0\x1530\x14Sleep stage W\x14\x00")
        assert hyp.entries == [(0.0, 30.0, 0)]

    def test_stage_four_merges_into_n3(self):
        hyp = parse_tal_annotations(b"+30\x1560\x14Sleep stage 4\x14\x00")
        assert hyp.entries == [(30.0, 60.0, 3)]

    def test_empty_records_skipped(self):
        assert parse_tal_annotations(b"\x00\x00\x00").entries == []

    def test_multiple_records(self):
        blob = b"+0\x1560\x14Sleep stage W\x14\x00+60\x1530\x14Sleep stage R\x14\x00"
        hyp = parse_tal_annotations(blob)
        assert hyp.entries == [(0.0, 60.0, 0), (60.0, 30.0, 4)]

    def test_unknown_text_ignored(self):
        hyp = parse_tal_annotations(b"+0\x1530\x14Lights off\x14\x00")
        assert hyp.entries == []

    def test_unscored_maps_to_none(self):
        hyp = parse_tal_annotations(b"+0\x1530\x14Sleep stage ?\x14\x00")
        assert hyp.entries == [(0.0, 30.0, None)]

    def test_missing_onset_sign(self):
        with pytest.raises(ParseError, match="record 0"):
            parse_tal_annotations(b"0\x1530\x14Sleep stage W\x14\x00")

    def test_stage_without_duration(self):
        with pytest.raises(ParseError, match="duration"):
            parse_tal_annotations(b"+0\x14Sleep stage W\x14\x00")

    def test_unterminated_annotation(self):
        with pytest.raises(ParseError, match="record 0"):
            parse_tal_annotations(b"+0\x1530\x14Sleep stage W\x00")

    @pytest.mark.parametrize("timing", [
        b"+nan\x1530", b"+inf\x1530", b"-inf\x1530",
        b"+0\x15nan", b"+0\x15inf", b"+0\x15-30",
    ])
    def test_timing_must_be_finite_with_non_negative_duration(self, timing):
        blob = b"+0\x1530\x14Sleep stage W\x14\x00" + timing + b"\x14Sleep stage 1\x14\x00"
        with pytest.raises(ParseError, match="record 1"):
            parse_tal_annotations(blob)

    def test_record_index_in_error(self):
        blob = b"+0\x1530\x14Sleep stage W\x14\x00bad\x14\x00"
        with pytest.raises(ParseError, match="record 1"):
            parse_tal_annotations(blob)


class TestAnnotationHypnogram:
    def test_decodes_the_annotation_signal(self):
        _, traces, _ = parse_edf(tal_edf(10, ["Sleep stage W", "Sleep stage ?", "Sleep stage R"]))
        hyp = annotation_hypnogram(traces)
        assert hyp.entries == [(0.0, 30.0, 0), (30.0, 30.0, None), (60.0, 30.0, 4)]

    def test_none_without_annotation_signal(self):
        _, traces, _ = parse_edf(write_edf(one_signal_header(), [np.zeros(6, dtype=np.int16)]))
        assert annotation_hypnogram(traces) is None


class TestHypnogram:
    def test_sorted_on_construction(self):
        hyp = Hypnogram([(60.0, 30.0, 1), (0.0, 60.0, 0)])
        assert [e[0] for e in hyp.entries] == [0.0, 60.0]

    def test_overlap_rejected(self):
        with pytest.raises(DataError, match="overlap"):
            Hypnogram([(0.0, 60.0, 0), (30.0, 30.0, 1)])

    def test_span_lookup(self):
        hyp = Hypnogram([(0.0, 60.0, 0), (60.0, 30.0, 2)])
        assert hyp.stages_for_epochs(4, 30.0) == [0, 0, 2, None]
        assert hyp.stages_for_epochs(2, 45.0) == [0, None]  # [45, 90) straddles 60
        assert hyp.stages_for_epochs(0, 30.0) == []
        assert Hypnogram([]).stages_for_epochs(2, 30.0) == [None, None]

    def test_epoch_boundary_tolerance(self):
        # an onset up to 1e-9 s past the epoch start, or an end up to 1e-9 s
        # short of the epoch end, still covers the epoch
        hyp = Hypnogram([(0.0, 30.0 - 5e-10, 1), (30.0 + 5e-10, 30.0, 2), (60.0 + 2e-9, 30.0, 3)])
        assert hyp.stages_for_epochs(3, 30.0) == [1, 2, None]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_batch_lookup_matches_per_span_scan(self, data):
        hyp = data.draw(hypnograms())
        epoch_s = data.draw(st.sampled_from([30.0, 15.0, 20.0]))
        n_epochs = data.draw(st.integers(0, 24))
        expected = [scan_stage_for_span(hyp, k * epoch_s, (k + 1) * epoch_s)
                    for k in range(n_epochs)]
        assert hyp.stages_for_epochs(n_epochs, epoch_s) == expected


def scan_stage_for_span(hyp, t0, t1):
    """Reference per-span scan: the first entry in onset order that covers
    [t0, t1) within 1e-9 s, looking no further than the first onset > t0."""
    for onset, duration, stage in hyp.entries:
        if onset <= t0 + 1e-9 and t1 <= onset + duration + 1e-9:
            return stage
        if onset > t0:
            break
    return None


JITTER = (0.0, 0.0, 0.0, -1e-9, -5e-10, 5e-10, 1e-9, 2e-9, 7.3, -7.3)


@st.composite
def hypnograms(draw):
    """Sorted, non-overlapping entries on a 15 s grid: gaps, zero durations,
    equal onsets, and onsets and ends within about 1e-9 s of grid points.
    Negative durations (which a TAL stream cannot carry) make the ends
    non-monotone. Each stage is the entry's index or None, so the chosen
    entry shows."""
    entries = []
    grid = draw(st.integers(0, 3))
    for i in range(draw(st.integers(0, 14))):
        length = draw(st.integers(0, 4))
        onset = 15.0 * grid + draw(st.sampled_from(JITTER))
        duration = 15.0 * length + draw(st.sampled_from(JITTER))
        entries.append((onset, duration, draw(st.sampled_from([i, i, None]))))
        grid += length + draw(st.sampled_from([0, 0, 1, 2]))
    try:
        return Hypnogram(entries)
    except DataError:  # jitter pushed one entry into the next
        assume(False)
