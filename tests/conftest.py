import numpy as np
import pytest

from sst.edf import EdfHeader, EdfSignalHeader, write_edf


def fd_grad(f, x, h=1e-5):
    """Central finite differences of a scalar-valued f at x, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def assert_grad_close(analytic, numeric, rtol, atol=1e-8):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# header fields that EDF+ does not allow, as (field, offset, bytes) in a
# one-signal file: a number with junk, a negative record count, non-ASCII text
SLOPPY_FIELDS = [
    ("n_records", 236, b"2 rec   "),
    ("n_records", 236, b"-1      "),
    ("patient", 8, b"\xff"),
    ("signal 0 phys_dim", 352, b"\xb5"),  # Latin-1 micro sign
]
SLOPPY_IDS = ["n_records_junk", "n_records_negative", "patient_0xff", "phys_dim_0xb5"]


def tal_edf(fs, stage_texts):
    """EDF+ bytes with one 30 s record per entry of stage_texts: an EEG ramp
    at fs Hz and an annotation signal that scores record k as stage_texts[k]."""
    from sst.edf import EdfHeader, EdfSignalHeader, write_edf

    T = 30 * fs
    eeg = EdfSignalHeader(
        label="EEG Fpz-Cz", transducer="", phys_dim="uV", phys_min=-100.0, phys_max=100.0,
        dig_min=-32768, dig_max=32767, prefilter="", samples_per_record=T,
    )
    annotations = EdfSignalHeader(
        label="EDF Annotations", transducer="", phys_dim="", phys_min=-1.0, phys_max=1.0,
        dig_min=-32768, dig_max=32767, prefilter="", samples_per_record=32,
    )
    tal = b"".join(f"+{30 * k}\x1530\x14{text}\x14\x00".encode("ascii").ljust(64, b"\x00")
                   for k, text in enumerate(stage_texts))
    header = EdfHeader(
        version="0", patient="X", recording="X", start_date="01.01.00",
        start_time="00.00.00", header_bytes=0, reserved="EDF+C", n_records=len(stage_texts),
        record_duration_s=30.0, n_signals=2, signals=[eeg, annotations],
    )
    ramp = np.arange(len(stage_texts) * T) % 2000 - 1000
    return write_edf(header, [ramp, np.frombuffer(tal, dtype="<i2")])


def write_sidecar_edf(base, fs, digital, labels_text):
    """One-channel EDF of 1 s records at fs, plus its '.labels' sidecar."""
    sig = EdfSignalHeader(
        label="EEG Fpz-Cz", transducer="", phys_dim="uV", phys_min=-100.0, phys_max=100.0,
        dig_min=-32768, dig_max=32767, prefilter="", samples_per_record=fs,
    )
    header = EdfHeader(
        version="0", patient="X", recording="X", start_date="01.01.00",
        start_time="00.00.00", header_bytes=512, reserved="", n_records=len(digital) // fs,
        record_duration_s=1.0, n_signals=1, signals=[sig],
    )
    base.with_suffix(".edf").write_bytes(write_edf(header, [digital]))
    base.with_suffix(".labels").write_text(labels_text)
