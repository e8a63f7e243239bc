"""EDF reading and writing plus TAL annotation encoding and decoding.

EDF files carry a 256-byte fixed-width ASCII header, one more 256-byte block
per signal (field-major), then data records of little-endian int16 samples.
A header field that is not ASCII (as EDF+ requires), a numeric field that
does not parse, or a value out of range is a ParseError naming the field and
its byte offset.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError, DataError, ParseError
from .metrics import EPOCH_S, N_CLASSES

HEADER_FIELDS = (  # (name, width, type)
    ("version", 8, str),
    ("patient", 80, str),
    ("recording", 80, str),
    ("start_date", 8, str),
    ("start_time", 8, str),
    ("header_bytes", 8, int),
    ("reserved", 44, str),
    ("n_records", 8, int),
    ("record_duration_s", 8, float),
    ("n_signals", 4, int),
)

SIGNAL_FIELDS = (
    ("label", 16, str),
    ("transducer", 80, str),
    ("phys_dim", 8, str),
    ("phys_min", 8, float),
    ("phys_max", 8, float),
    ("dig_min", 8, int),
    ("dig_max", 8, int),
    ("prefilter", 80, str),
    ("samples_per_record", 8, int),
    ("reserved", 32, str),
)

# what a parse error calls each numeric type
_NUMERIC = {int: "an integer", float: "a number"}

# bytes of data records EdfReader reads at a time
READ_BUFFER_BYTES = 1 << 18

# EDF+ label of the signal that carries TAL annotations
ANNOTATION_LABEL = "EDF Annotations"

STAGE_W, STAGE_N1, STAGE_N2, STAGE_N3, STAGE_REM = range(N_CLASSES)

STAGE_MAP = {
    "Sleep stage W": STAGE_W,
    "Sleep stage 1": STAGE_N1,
    "Sleep stage 2": STAGE_N2,
    "Sleep stage 3": STAGE_N3,
    "Sleep stage 4": STAGE_N3,
    "Sleep stage N1": STAGE_N1,
    "Sleep stage N2": STAGE_N2,
    "Sleep stage N3": STAGE_N3,
    "Sleep stage N4": STAGE_N3,
    "Sleep stage R": STAGE_REM,
    "Sleep stage ?": None,
    "Movement time": None,
}

# the annotation text each stage is written as; STAGE_MAP reads it back
STAGE_TEXT = ("Sleep stage W", "Sleep stage 1", "Sleep stage 2", "Sleep stage 3", "Sleep stage R")


@dataclass
class EdfSignalHeader:
    label: str
    transducer: str
    phys_dim: str
    phys_min: float
    phys_max: float
    dig_min: int
    dig_max: int
    prefilter: str
    samples_per_record: int
    reserved: str = ""


@dataclass
class EdfHeader:
    version: str
    patient: str
    recording: str
    start_date: str
    start_time: str
    header_bytes: int
    reserved: str
    n_records: int
    record_duration_s: float
    n_signals: int
    signals: list[EdfSignalHeader] = field(default_factory=list)


@dataclass
class SignalTrace:
    """One signal as the file stores it: int16 samples at fs Hz, mapped to
    physical units only for the spans that are read. digital is an int16
    array, or (from EdfReader.traces) the file's samples, read as sliced."""

    signal: EdfSignalHeader
    fs: float
    digital: np.ndarray  # int16

    def physical(self, a: int, b: int) -> np.ndarray:
        """Samples a:b in physical units, float64."""
        sig = self.signal
        gain = (sig.phys_max - sig.phys_min) / (sig.dig_max - sig.dig_min)
        return (self.digital[a:b].astype(np.float64) - sig.dig_min) * gain + sig.phys_min

    def __len__(self) -> int:
        return len(self.digital)

    def __getitem__(self, span: slice) -> np.ndarray:
        """trace[a:b] is physical(a, b)."""
        return self.physical(span.start, span.stop)


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, width: int, name: str, kind: type) -> tuple:
        """The next field as kind (str, int or float) and its offset."""
        at = self.pos
        if at + width > len(self.data):
            raise ParseError(f"header truncated in field {name}", offset=at)
        raw = self.data[at : at + width]
        self.pos += width
        try:
            text = raw.decode("ascii").strip()
        except UnicodeDecodeError:
            raise ParseError(f"field {name} is not ASCII", offset=at) from None
        if kind is str:
            return text, at
        try:
            return kind(text), at
        except ValueError:
            raise ParseError(f"field {name} is not {_NUMERIC[kind]}: {text!r}", offset=at) from None


def _read_header(fh) -> EdfHeader:
    """The header of the EDF file open in binary mode as fh, checked against
    the file's size."""
    size = fh.seek(0, io.SEEK_END)
    if size < 256:
        raise ParseError(f"file is {size} bytes, EDF header needs 256", offset=size)
    fh.seek(0)
    cur = _Cursor(fh.read(256))

    fields, at = {}, {}
    for name, width, kind in HEADER_FIELDS:
        fields[name], at[name] = cur.read(width, name, kind)
    header_bytes, n_signals = fields["header_bytes"], fields["n_signals"]
    record_duration_s = fields["record_duration_s"]

    if not (math.isfinite(record_duration_s) and record_duration_s > 0):
        raise ParseError(
            f"record_duration_s must be positive and finite, got {record_duration_s}",
            offset=at["record_duration_s"],
        )

    if n_signals <= 0:
        raise ParseError(f"n_signals must be positive, got {n_signals}", offset=at["n_signals"])
    if header_bytes != 256 * (1 + n_signals):
        raise ParseError(
            f"header_bytes is {header_bytes}, must be 256*(1+{n_signals}) = {256 * (1 + n_signals)}",
            offset=at["header_bytes"],
        )
    if size < header_bytes:
        raise ParseError("file ends inside the signal header block", offset=size)
    cur.data += fh.read(header_bytes - 256)

    columns, offsets = {}, {}
    for name, width, kind in SIGNAL_FIELDS:
        columns[name], offsets[name] = zip(*(cur.read(width, f"signal {i} {name}", kind)
                                             for i in range(n_signals)))

    signals = []
    for i in range(n_signals):
        sig = EdfSignalHeader(**{name: column[i] for name, column in columns.items()})
        if sig.dig_min >= sig.dig_max:
            raise ParseError(
                f"signal {i}: digital min {sig.dig_min} >= max {sig.dig_max}",
                offset=offsets["dig_min"][i],
            )
        for name in ("phys_min", "phys_max"):
            if not math.isfinite(getattr(sig, name)):
                raise ParseError(
                    f"signal {i}: {name} must be finite, got {getattr(sig, name)}",
                    offset=offsets[name][i],
                )
        if not math.isfinite(sig.phys_max - sig.phys_min):
            raise ParseError(
                f"signal {i}: physical range [{sig.phys_min}, {sig.phys_max}] overflows",
                offset=offsets["phys_min"][i],
            )
        if sig.phys_min == sig.phys_max:
            raise ParseError(
                f"signal {i}: physical min == max == {sig.phys_min}",
                offset=offsets["phys_min"][i],
            )
        # the map is monotone in d, so the two ends of int16 bound every sample
        gain = (sig.phys_max - sig.phys_min) / (sig.dig_max - sig.dig_min)
        if not all(math.isfinite((d - sig.dig_min) * gain + sig.phys_min) for d in (-32768, 32767)):
            raise ParseError(
                f"signal {i}: physical range [{sig.phys_min}, {sig.phys_max}] over digital "
                f"[{sig.dig_min}, {sig.dig_max}] maps int16 samples outside float64",
                offset=offsets["phys_max"][i],
            )
        if sig.samples_per_record <= 0:
            raise ParseError(
                f"signal {i}: samples_per_record must be positive, got {sig.samples_per_record}",
                offset=offsets["samples_per_record"][i],
            )
        if not math.isfinite(sig.samples_per_record / record_duration_s):
            raise ParseError(
                f"signal {i}: {sig.samples_per_record} samples per {record_duration_s} s "
                f"is not a finite rate", offset=at["record_duration_s"],
            )
        signals.append(sig)

    n_records = fields["n_records"]
    if n_records < 0:
        raise ParseError(f"n_records is {n_records}", offset=at["n_records"])

    per_record = sum(s.samples_per_record for s in signals)
    expected = header_bytes + n_records * per_record * 2
    if size != expected:
        raise ParseError(
            f"file is {size} bytes, header promises {expected} "
            f"({n_records} records of {per_record * 2} bytes)",
            offset=min(size, expected),
        )
    return EdfHeader(**fields, signals=signals)


class EdfReader:
    """An EDF file open in binary mode as fh: its header, checked on opening,
    and the samples of one signal over a range of data records, read through
    a buffer of at most READ_BUFFER_BYTES (or one record). The reader reads
    from fh, so it is used while fh is open."""

    def __init__(self, fh):
        self.fh = fh
        self.header = _read_header(fh)
        spr = [s.samples_per_record for s in self.header.signals]
        self._starts = np.concatenate([[0], np.cumsum(spr)]).tolist()
        self._record_bytes = 2 * self._starts[-1]

    def records(self, i: int, r0: int, r1: int) -> np.ndarray:
        """The int16 samples of signal i in data records r0:r1, in time order."""
        header = self.header
        if not 0 <= r0 <= r1 <= header.n_records:
            raise ContractError(f"records {r0}:{r1} outside 0:{header.n_records}")
        lo, hi = self._starts[i], self._starts[i + 1]
        out = np.empty((r1 - r0, hi - lo), dtype="<i2")
        step = max(1, READ_BUFFER_BYTES // self._record_bytes)
        buf = np.empty((min(step, r1 - r0), self._starts[-1]), dtype="<i2")
        self.fh.seek(header.header_bytes + r0 * self._record_bytes)
        for first in range(r0, r1, step):
            rows = buf[: min(step, r1 - first)]
            got = self.fh.readinto(rows)
            if got != rows.nbytes:
                raise ParseError(f"file ends inside data record {first + got // self._record_bytes}",
                                 offset=header.header_bytes + first * self._record_bytes + got)
            out[first - r0 : first - r0 + len(rows)] = rows[:, lo:hi]
        return out.reshape(-1)

    def traces(self) -> list[SignalTrace]:
        """Every signal as a SignalTrace whose samples are read from the file
        as they are sliced."""
        duration = self.header.record_duration_s
        return [SignalTrace(sig, sig.samples_per_record / duration, _RecordedSamples(self, i))
                for i, sig in enumerate(self.header.signals)]


class _RecordedSamples:
    """The int16 samples of one signal of an EdfReader's file. A slice reads
    the data records that cover it; len is the signal's sample count.

    The records of the last slice are kept, and a slice that starts inside
    them takes them from there: slices that each start inside the one before,
    as a resampler's overlapping blocks do, read each record once."""

    def __init__(self, reader: EdfReader, i: int):
        self.reader, self.i = reader, i
        self.spr = reader.header.signals[i].samples_per_record
        self._kept = (0, np.empty(0, dtype="<i2"))   # (first record, samples of its records)

    def __len__(self) -> int:
        return self.reader.header.n_records * self.spr

    def __getitem__(self, key: slice) -> np.ndarray:
        start, stop, step = key.indices(len(self))
        if step != 1:
            raise ContractError("recorded samples are read in contiguous slices")
        stop = max(start, stop)
        r0, r1 = start // self.spr, -(-stop // self.spr)
        first, kept = self._kept
        end = first + len(kept) // self.spr
        if first <= r0 < end:
            samples = kept[(r0 - first) * self.spr :]
            if r1 > end:
                samples = np.concatenate([samples, self.reader.records(self.i, end, r1)])
        else:
            samples = self.reader.records(self.i, r0, r1)
        self._kept = (r0, samples)
        return samples[start - r0 * self.spr : stop - r0 * self.spr]


def parse_edf(data: bytes):
    """Decode one EDF file held in memory. Returns (EdfHeader, [SignalTrace])."""
    reader = EdfReader(io.BytesIO(data))
    return reader.header, [replace(trace, digital=trace.digital[:]) for trace in reader.traces()]


def _pack(value, width: int, name: str) -> bytes:
    if isinstance(value, float):
        text = f"{value:.10g}"
        if text.endswith(".0"):
            text = text[:-2]
    else:
        text = str(value)
    if not text.isascii():
        raise DataError(f"EDF field {name} value {text!r} is not ASCII")
    raw = text.encode("ascii")
    if len(raw) > width:
        raise DataError(f"EDF field {name} value {text!r} exceeds {width} ASCII bytes")
    return raw.ljust(width)


def write_edf(header: EdfHeader, digital: list[np.ndarray]) -> bytes:
    """Serialize a header plus per-signal int16 digital sample arrays."""
    if len(digital) != header.n_signals:
        raise DataError(f"{len(digital)} signal arrays for {header.n_signals} header entries")
    header.header_bytes = 256 * (1 + header.n_signals)
    chunks = []
    for name, width, _ in HEADER_FIELDS:
        chunks.append(_pack(getattr(header, name), width, name))
    for name, width, _ in SIGNAL_FIELDS:
        for i, sig in enumerate(header.signals):
            chunks.append(_pack(getattr(sig, name), width, f"signal {i} {name}"))

    arrays = []
    for i, (sig, arr) in enumerate(zip(header.signals, digital)):
        arr = np.asarray(arr)
        if arr.size != header.n_records * sig.samples_per_record:
            raise DataError(
                f"signal {i}: {arr.size} samples, header promises "
                f"{header.n_records}*{sig.samples_per_record}"
            )
        if arr.size and (arr.min() < sig.dig_min or arr.max() > sig.dig_max):
            raise DataError(f"signal {i}: digital values leave [{sig.dig_min}, {sig.dig_max}]")
        arrays.append(arr.astype("<i2").reshape(header.n_records, sig.samples_per_record))
    for r in range(header.n_records):
        for arr in arrays:
            chunks.append(arr[r].tobytes())
    return b"".join(chunks)


def digital_from_physical(samples: np.ndarray, sig: EdfSignalHeader) -> np.ndarray:
    """Quantize physical values into the signal's digital range (clipping)."""
    gain = (sig.dig_max - sig.dig_min) / (sig.phys_max - sig.phys_min)
    digital = np.rint((np.asarray(samples, dtype=np.float64) - sig.phys_min) * gain + sig.dig_min)
    return np.clip(digital, sig.dig_min, sig.dig_max).astype(np.int16)


@dataclass
class Hypnogram:
    """Onset-sorted, non-overlapping stage annotations.

    Stage None marks spans scored as something other than the N_CLASSES
    stages (movement, unscored); epochs over them are dropped downstream.
    """

    entries: list  # (onset_s, duration_s, stage in 0..N_CLASSES-1 or None)

    def __post_init__(self):
        self.entries = sorted(self.entries, key=lambda e: e[0])
        for (o1, d1, _), (o2, _, _) in zip(self.entries, self.entries[1:]):
            if o1 + d1 > o2 + 1e-9:
                raise DataError(
                    f"hypnogram entries overlap: [{o1}, {o1 + d1}) and onset {o2}"
                )

    def stages_for_epochs(self, n_epochs: int, epoch_s: float) -> list:
        """Stage fully covering each epoch [k*epoch_s, (k+1)*epoch_s), or None.

        Per epoch this is the first entry in onset order whose span covers
        the epoch within 1e-9 s at either end, looking no further than the
        first onset after the epoch start; one sorted search over all epochs
        instead of a scan per epoch. Onsets and durations must be finite.
        """
        if not self.entries:
            return [None] * n_epochs
        k = np.arange(n_epochs)
        t0 = k * epoch_s
        t1 = (k + 1) * epoch_s
        onsets = np.array([e[0] for e in self.entries], dtype=np.float64)
        ends = onsets + np.array([e[1] for e in self.entries], dtype=np.float64) + 1e-9
        # an entry before the first onset > t0 starts at or before t0, so it
        # covers the epoch iff its end reaches t1: the first such entry is the
        # first place where the running maximum of the ends reaches t1
        first_covering = np.searchsorted(np.maximum.accumulate(ends), t1, side="left")
        first_later = np.searchsorted(onsets, t0, side="right")
        # the first onset > t0 itself still counts when it lies within 1e-9 of t0
        later = np.minimum(first_later, len(onsets) - 1)
        later_covers = ((first_later < len(onsets)) & (onsets[later] <= t0 + 1e-9)
                        & (t1 <= ends[later]))
        stages = [e[2] for e in self.entries]
        return [
            stages[c] if c < f else stages[f] if ok else None
            for c, f, ok in zip(first_covering.tolist(), first_later.tolist(), later_covers.tolist())
        ]


# bytes of TAL that encode_tal writes per data record
TAL_RECORD_BYTES = 64


def annotation_signal() -> EdfSignalHeader:
    """The header of the annotation signal that encode_tal fills."""
    return EdfSignalHeader(
        label=ANNOTATION_LABEL, transducer="", phys_dim="", phys_min=-1.0, phys_max=1.0,
        dig_min=-32768, dig_max=32767, prefilter="", samples_per_record=TAL_RECORD_BYTES // 2,
    )


def encode_tal(texts) -> np.ndarray:
    """The annotation signal's int16 samples for one EPOCH_S data record per
    entry of texts: record k holds its time-keeping TAL, then an annotation
    scoring [k*EPOCH_S, (k+1)*EPOCH_S) as texts[k], padded to TAL_RECORD_BYTES."""
    records = []
    for k, text in enumerate(texts):
        record = f"+{k * EPOCH_S}\x14\x14\x00+{k * EPOCH_S}\x15{EPOCH_S}\x14{text}\x14\x00"
        records.append(record.encode("ascii").ljust(TAL_RECORD_BYTES, b"\x00"))
    return np.frombuffer(b"".join(records), dtype="<i2")


def _tal_records(data: bytes):
    """Yield (index, record) for each non-empty NUL-terminated record of data,
    where index counts the empty records too, as data.split(b"\\x00") would.
    The stream is walked in place, a padding run a short slice at a time."""
    index = pos = 0
    while pos < len(data):
        head = data[pos:pos + TAL_RECORD_BYTES]
        padding = len(head) - len(head.lstrip(b"\x00"))
        index += padding
        pos += padding
        if padding == len(head):
            continue
        end = data.find(b"\x00", pos)
        if end < 0:
            end = len(data)
        yield index, data[pos:end]
        index += 1
        pos = end + 1


def parse_tal_annotations(data: bytes) -> Hypnogram:
    """Decode a TAL byte stream: records of +onset[\\x15dur]\\x14text\\x14...\\x00."""
    entries = []
    for index, record in _tal_records(data):
        try:
            text = record.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"TAL record {index}: not valid UTF-8") from None
        if text[0] not in "+-":
            raise ParseError(f"TAL record {index}: onset must start with + or -, got {text[:12]!r}")
        if "\x14" not in text:
            raise ParseError(f"TAL record {index}: missing annotation separator")
        timing, *annotations = text.split("\x14")
        if annotations and annotations[-1] == "":
            annotations = annotations[:-1]
        else:
            raise ParseError(f"TAL record {index}: record must end with the annotation separator")
        onset_text, _, duration_text = timing.partition("\x15")
        try:
            onset = float(onset_text)
            duration = float(duration_text) if duration_text else None
        except ValueError:
            raise ParseError(f"TAL record {index}: bad onset/duration {timing!r}") from None
        if not math.isfinite(onset):
            raise ParseError(f"TAL record {index}: onset {onset_text!r} is not finite")
        if duration is not None and not (math.isfinite(duration) and duration >= 0):
            raise ParseError(
                f"TAL record {index}: duration {duration_text!r} must be finite and non-negative"
            )
        for note in annotations:
            if note not in STAGE_MAP:
                continue
            if duration is None:
                raise ParseError(f"TAL record {index}: stage annotation without a duration")
            entries.append((onset, duration, STAGE_MAP[note]))
    return Hypnogram(entries)


def is_annotation(trace: SignalTrace) -> bool:
    """Whether the trace is an EDF+ annotation signal: TAL bytes, not samples."""
    return ANNOTATION_LABEL.lower() in trace.signal.label.lower()


def annotation_hypnogram(traces: list[SignalTrace]) -> Hypnogram | None:
    """The hypnogram in the first EDF+ annotation signal, or None without one."""
    for trace in traces:
        if is_annotation(trace):
            return parse_tal_annotations(trace.digital[:].tobytes())
    return None
