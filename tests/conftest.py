import numpy as np
import pytest

from sst.edf import EdfHeader, EdfSignalHeader, annotation_signal, encode_tal, write_edf


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


def sloppy_fields(n_signals):
    """Header fields that EDF+ does not allow, as (field, offset, bytes) in a
    file of n_signals signals: a number with junk, a negative record count,
    non-ASCII text."""
    return [
        ("n_records", 236, b"2 rec   "),
        ("n_records", 236, b"-1      "),
        ("patient", 8, b"\xff"),
        ("signal 0 phys_dim", 256 + 96 * n_signals, b"\xb5"),  # Latin-1 micro sign
    ]


SLOPPY_IDS = ["n_records_junk", "n_records_negative", "patient_0xff", "phys_dim_0xb5"]


def tal_edf(fs, stage_texts, digital=None):
    """EDF+ bytes with one 30 s record per entry of stage_texts: the EEG
    samples digital (by default a ramp) at fs Hz and an annotation signal
    that scores record k as stage_texts[k]."""
    eeg = EdfSignalHeader(
        label="EEG Fpz-Cz", transducer="", phys_dim="uV", phys_min=-100.0, phys_max=100.0,
        dig_min=-32768, dig_max=32767, prefilter="", samples_per_record=30 * fs,
    )
    header = EdfHeader(
        version="0", patient="X", recording="X", start_date="01.01.00",
        start_time="00.00.00", header_bytes=0, reserved="EDF+C", n_records=len(stage_texts),
        record_duration_s=30.0, n_signals=2, signals=[eeg, annotation_signal()],
    )
    if digital is None:
        digital = np.arange(len(stage_texts) * 30 * fs) % 2000 - 1000
    return write_edf(header, [digital, encode_tal(stage_texts)])
