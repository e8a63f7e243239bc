"""EDF reading and writing plus TAL annotation decoding.

EDF files carry a 256-byte fixed-width ASCII header, one more 256-byte block
per signal (field-major), then data records of little-endian int16 samples.
The parser is strict by default; lenient mode repairs sloppy ASCII and
reports what it repaired instead of failing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParseError
from .metrics import N_CLASSES

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

# per numeric type: what a strict error calls it, and the first match that
# lenient mode salvages out of a sloppy field
_NUMERIC = {
    int: ("an integer", re.compile(r"-?\d+")),
    float: ("a number", re.compile(r"-?\d+(\.\d+)?([eE][+-]?\d+)?")),
}

# lenient mode reads a non-ASCII header byte as '?', keeping the field ASCII and its width
_TO_ASCII = bytes(range(128)) + b"?" * 128

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
    label: str
    fs: float
    samples: np.ndarray                 # physical units, float64
    digital: np.ndarray | None = None   # raw int16, kept for exact rewrites


class _Cursor:
    def __init__(self, data: bytes, strict: bool, warnings: list[str]):
        self.data = data
        self.pos = 0
        self.strict = strict
        self.warnings = warnings

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
            if self.strict:
                raise ParseError(f"field {name} is not ASCII", offset=at) from None
            text = raw.translate(_TO_ASCII).decode("ascii").strip()
            self.warnings.append(f"field {name} at offset {at}: non-ASCII bytes replaced")
        if kind is str:
            return text, at
        try:
            return kind(text), at
        except ValueError:
            what, salvage = _NUMERIC[kind]
            m = None if self.strict else salvage.search(text)
            if m is None:
                raise ParseError(f"field {name} is not {what}: {text!r}", offset=at) from None
            self.warnings.append(f"field {name} at offset {at}: parsed {m.group()!r} out of {text!r}")
            return kind(m.group()), at


def parse_edf(data: bytes, strict: bool = True):
    """Decode one EDF file. Returns (EdfHeader, [SignalTrace], warnings)."""
    warnings: list[str] = []
    if len(data) < 256:
        raise ParseError(f"file is {len(data)} bytes, EDF header needs 256", offset=len(data))
    cur = _Cursor(data, strict, warnings)

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
    if len(data) < header_bytes:
        raise ParseError("file ends inside the signal header block", offset=len(data))

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
        if strict:
            raise ParseError(f"n_records is {n_records}", offset=at["n_records"])
        per_record = sum(s.samples_per_record for s in signals) * 2
        n_records = (len(data) - header_bytes) // per_record
        warnings.append(f"n_records was -1, inferred {n_records} from file size")

    fields["n_records"] = n_records
    header = EdfHeader(**fields, signals=signals)

    spr = np.array([s.samples_per_record for s in signals], dtype=np.int64)
    per_record = int(spr.sum())
    expected = header_bytes + n_records * per_record * 2
    if len(data) != expected:
        raise ParseError(
            f"file is {len(data)} bytes, header promises {expected} "
            f"({n_records} records of {per_record * 2} bytes)",
            offset=min(len(data), expected),
        )
    flat = np.frombuffer(data, dtype="<i2", count=n_records * per_record, offset=header_bytes)
    table = flat.reshape(n_records, per_record)
    bounds = np.concatenate([[0], np.cumsum(spr)])

    traces = []
    for i, sig in enumerate(signals):
        digital = np.ascontiguousarray(table[:, bounds[i] : bounds[i + 1]]).reshape(-1)
        gain = (sig.phys_max - sig.phys_min) / (sig.dig_max - sig.dig_min)
        physical = (digital.astype(np.float64) - sig.dig_min) * gain + sig.phys_min
        traces.append(
            SignalTrace(
                label=sig.label,
                fs=sig.samples_per_record / header.record_duration_s,
                samples=physical,
                digital=digital,
            )
        )
    return header, traces, warnings


def _pack(value, width: int, name: str) -> bytes:
    if isinstance(value, float):
        text = f"{value:.10g}"
        if text.endswith(".0"):
            text = text[:-2]
    else:
        text = str(value)
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
        if arr.min() < sig.dig_min or arr.max() > sig.dig_max:
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


def parse_tal_annotations(data: bytes) -> Hypnogram:
    """Decode a TAL byte stream: records of +onset[\\x15dur]\\x14text\\x14...\\x00."""
    entries = []
    for index, record in enumerate(data.split(b"\x00")):
        if not record:
            continue
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


def annotation_hypnogram(traces: list[SignalTrace]) -> Hypnogram | None:
    """The hypnogram in the first EDF+ annotation signal, or None without one."""
    for trace in traces:
        if ANNOTATION_LABEL.lower() in trace.label.lower():
            return parse_tal_annotations(trace.digital.tobytes())
    return None
