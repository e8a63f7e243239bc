"""The three benchmark workloads: seeded inputs, the `sst` argv, and the checks
on each call's outputs.

Inputs are written only through the program's public surface
(`edf.write_edf`, `checkpoint.save_checkpoint`) and run configs that use only
README-documented keys. The program sees the generated files and argv, never
the seed.

Why these three: `desk_train` is the README desk config, where arrays are tiny
and per-op Python, tape bookkeeping, sampling memory, losses, Adam and
validation are a visible share. `paper_train` runs the `ModelConfig` defaults,
where conv1d forward and backward dominate. `edf_transfer` is the only one
whose time goes to EDF/TAL parsing, resampling, epoch slicing and `EpochStore`
construction, and it runs the model forward-only under `no_grad` with a
checkpoint load on the path. A paper-scale transfer workload was left out: on
a shared 2-core host, fewer workloads with longer runs gave steadier figures,
and its layers are all measured on the other three."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time

import numpy as np

NAMES = ("desk_train", "paper_train", "edf_transfer")

DESK_MODEL = {"fs": 10, "S": 2, "D": 8, "N": 2, "A": 2, "head_dim": 4, "d": 1, "ffn_dim": 16}
PAPER_MODEL = {"fs": 100, "S": 20, "D": 64, "N": 16, "A": 8, "head_dim": 8, "d": 3, "ffn_dim": 128}
EDF_MODEL = {"fs": 100, "S": 10, "D": 8, "N": 2, "A": 2, "head_dim": 4, "d": 1, "ffn_dim": 16}
LOSS = {"tau": 5.0, "lambda": 1.0, "alpha": 0.1}

# Sizes per scale. "smoke" is the smallest run that still reaches every code
# path; it is what the self-test uses.
SIZES = {
    "full": {
        "desk": {"subjects": 20, "epochs": 60, "max_steps": 300, "validate_every": 50},
        "paper_train": {"subjects": 6, "epochs": 100, "max_steps": 2},
        "edf": {"nights": 2, "epochs": 2640, "sleep_epochs": 960, "batch_size": 32},
    },
    "smoke": {
        "desk": {"subjects": 4, "epochs": 30, "max_steps": 4, "validate_every": 2},
        "paper_train": {"subjects": 4, "epochs": 60, "max_steps": 1},
        "edf": {"nights": 2, "epochs": 30, "sleep_epochs": 24, "batch_size": 4},
    },
}

# At lr 0.01, validating every 50 steps, the best validation macro-F1 of 61
# seeds was 0.72 to 1.0 (median 1.0) after 300 steps; after 200 steps it was
# as low as 0.47, and validating every 100 steps left one seed at 0.30. A model
# that predicts one class scores at most about 0.13.
DESK_F1_FLOOR = 0.35

EDF_FS = 200                 # rate of the generated nights; transfer resamples to 100
EDF_UNSCORED_FRAC = 0.02     # scattered "Sleep stage ?" epochs in the sleep period
STAGE_TEXT = ("Sleep stage W", "Sleep stage 1", "Sleep stage 2", "Sleep stage 3", "Sleep stage R")
CLASS_FREQ_HZ = (2.0, 6.0, 11.0, 17.0, 23.0)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count) % (2**31)]


def _write_ini(path: str, sections: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for name, items in sections.items():
            fh.write(f"[{name}]\n")
            for key, value in items.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


def _write_expect(root: str, expect: dict) -> None:
    with open(os.path.join(root, "expect.json"), "w", encoding="ascii") as fh:
        json.dump(expect, fh, sort_keys=True)


def load_expect(root: str) -> dict:
    with open(os.path.join(root, "expect.json"), encoding="ascii") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# input generation (runs in a fresh worker process, imports sst)
# ---------------------------------------------------------------------------

_program_s = [0.0]   # seconds inside program calls during this generation


@contextlib.contextmanager
def _program():
    """Time a call into `sst`: set-up time counts the program's work, not the
    benchmark's own synthesis of signals and configs."""
    start = time.perf_counter()
    try:
        yield
    finally:
        _program_s[0] += time.perf_counter() - start


def _gen_train(root: str, seed: int, model: dict, size: dict, batch_size: int,
               validate_every: int, lr: float, f1_floor: float) -> dict:
    data_seed, train_seed = _seeds(seed, 2)
    _write_ini(os.path.join(root, "run.ini"), {
        "data": {"source": "synth", "subjects": size["subjects"], "epochs": size["epochs"],
                 "seed": data_seed},
        "model": model,
        "loss": LOSS,
        "train": {"max_steps": size["max_steps"], "validate_every": validate_every,
                  "patience": 1000, "batch_size": batch_size, "seq_len": model["S"],
                  "lr": lr, "seed": train_seed, "sampling_mode": "easy+difficult"},
    })
    return {"kind": "train", "steps": size["max_steps"], "batch_size": batch_size,
            "S": model["S"], "validates": size["max_steps"] >= validate_every,
            "f1_floor": f1_floor}


def gen_desk_train(root: str, seed: int, scale: str) -> dict:
    size = SIZES[scale]["desk"]
    floor = DESK_F1_FLOOR if scale == "full" else 0.0
    return _gen_train(root, seed, DESK_MODEL, size, 8, size["validate_every"], 0.01, floor)


def gen_paper_train(root: str, seed: int, scale: str) -> dict:
    size = SIZES[scale]["paper_train"]
    # No validation: a fixed number of steps is the whole call.
    return _gen_train(root, seed, PAPER_MODEL, size, 4, size["max_steps"] + 1, 0.001, 0.0)


def _save_random_checkpoint(path: str, model: dict, seed: int) -> None:
    from sst.checkpoint import save_checkpoint
    from sst.model import ModelConfig, ModelParams

    with _program():
        save_checkpoint(path, ModelParams(ModelConfig(**model), np.random.default_rng(seed)))


def _transfer_ini(root: str, data_dir: str, model: dict, batch_size: int) -> None:
    _write_ini(os.path.join(root, "run.ini"), {
        "data": {"source": "edf", "path": data_dir},
        "model": model,
        "train": {"batch_size": batch_size, "seq_len": model["S"]},
    })


def _window_counts(label_lists, S: int) -> list[int]:
    """Per-class label counts over the stride-S windows `sst transfer` scores."""
    counts = np.zeros(5, dtype=np.int64)
    for labels in label_lists:
        usable = (len(labels) // S) * S
        counts += np.bincount(np.asarray(labels[:usable], dtype=np.int64), minlength=5)
    return [int(c) for c in counts]


def _night(rng: np.random.Generator, n_epochs: int, sleep_epochs: int):
    """EDF+ header, digital signals and scored stages of one recording.

    The first `sleep_epochs` are the scored sleep period, with a few
    scattered "Sleep stage ?" epochs; the rest of the recording, after
    lights-on, is annotated "Sleep stage ?" as a whole.
    """
    from sst.edf import EdfHeader, EdfSignalHeader

    stages = np.empty(n_epochs, dtype=np.int64)
    stage = int(rng.integers(0, 5))
    for k in range(n_epochs):
        stages[k] = stage
        if rng.random() >= 0.8:
            stage = (stage + int(rng.integers(1, 5))) % 5
    unscored = rng.random(n_epochs) < EDF_UNSCORED_FRAC
    unscored[sleep_epochs:] = True
    legacy_n3 = rng.random(n_epochs) < 0.3     # "Sleep stage 4" merges into N3
    texts = ["Sleep stage ?" if u else "Sleep stage 4" if s == 3 and old else STAGE_TEXT[s]
             for s, u, old in zip(stages, unscored, legacy_n3)]

    T = 30 * EDF_FS
    t = np.arange(T, dtype=np.float32) / np.float32(EDF_FS)
    freqs = np.asarray(CLASS_FREQ_HZ, dtype=np.float32)[stages][:, None]
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_epochs, 1)).astype(np.float32)
    eeg = np.sin(np.float32(2.0 * np.pi) * freqs * t + phases)
    eeg *= np.float32(40.0)
    eeg += rng.standard_normal((n_epochs, T), dtype=np.float32) * np.float32(4.0)
    # +-100 uV onto the full int16 range; the signal stays well inside it.
    digital_eeg = np.rint(eeg * np.float32(32767 / 100.0)).astype("<i2").reshape(-1)

    eeg_sig = EdfSignalHeader(
        label="EEG Fpz-Cz", transducer="synthetic", phys_dim="uV", phys_min=-100.0,
        phys_max=100.0, dig_min=-32767, dig_max=32767, prefilter="", samples_per_record=T,
    )
    annot_spr = 32
    ann_sig = EdfSignalHeader(
        label="EDF Annotations", transducer="", phys_dim="", phys_min=-1.0, phys_max=1.0,
        dig_min=-32768, dig_max=32767, prefilter="", samples_per_record=annot_spr,
    )
    tal = b"".join(
        f"+{30 * k}\x14\x14\x00+{30 * k}\x1530\x14{text}\x14\x00".encode("ascii").ljust(2 * annot_spr, b"\x00")
        for k, text in enumerate(texts)
    )
    header = EdfHeader(
        version="0", patient="X X X X", recording="Startdate 01-JAN-2000 X X X",
        start_date="01.01.00", start_time="22.00.00", header_bytes=0, reserved="EDF+C",
        n_records=n_epochs, record_duration_s=30.0, n_signals=2, signals=[eeg_sig, ann_sig],
    )
    scored = [int(s) for s, u in zip(stages, unscored) if not u]
    return header, [digital_eeg, np.frombuffer(tal, dtype="<i2")], scored


def gen_edf_transfer(root: str, seed: int, scale: str) -> dict:
    from sst.edf import write_edf

    size = SIZES[scale]["edf"]
    corpus_seed, init_seed = _seeds(seed, 2)
    rng = np.random.default_rng(corpus_seed)
    data_dir = os.path.join(root, "nights")
    os.makedirs(data_dir, exist_ok=True)
    scored_lists = []
    for night in range(size["nights"]):
        header, digital, scored = _night(rng, size["epochs"], size["sleep_epochs"])
        with _program():
            encoded = write_edf(header, digital)
        with open(os.path.join(data_dir, f"night{night:02d}.edf"), "wb") as fh:
            fh.write(encoded)
        scored_lists.append(scored)
    _save_random_checkpoint(os.path.join(root, "model.ckpt"), EDF_MODEL, init_seed)
    _transfer_ini(root, data_dir, EDF_MODEL, size["batch_size"])
    return {"kind": "transfer", "S": EDF_MODEL["S"], "batch_size": size["batch_size"],
            "label_counts": _window_counts(scored_lists, EDF_MODEL["S"]), "resample_to": 100}


GENERATORS = {
    "desk_train": gen_desk_train,
    "paper_train": gen_paper_train,
    "edf_transfer": gen_edf_transfer,
}


def generate(name: str, root: str, seed: int, scale: str) -> float:
    """Write the inputs; return the seconds spent inside program calls."""
    os.makedirs(root, exist_ok=True)
    _program_s[0] = 0.0
    _write_expect(root, GENERATORS[name](root, seed, scale))
    return _program_s[0]


# ---------------------------------------------------------------------------
# the call and its checks
# ---------------------------------------------------------------------------

def argv(name: str, root: str, out: str) -> list[str]:
    expect = load_expect(root)
    config = os.path.join(root, "run.ini")
    if expect["kind"] == "train":
        return ["train", "--config", config, "--out", out]
    cmd = ["transfer", os.path.join(root, "model.ckpt"), "--config", config, "--out", out]
    if expect["resample_to"] is not None:
        cmd += ["--resample-to", str(expect["resample_to"])]
    return cmd


def check(root: str, out: str) -> tuple[int, list[str], dict]:
    """(epochs processed, failures, extras) of one finished call."""
    expect = load_expect(root)
    failures: list[str] = []
    extras: dict = {}
    if expect["kind"] == "train":
        from sst.checkpoint import load_checkpoint
        from sst.errors import SstError

        with open(os.path.join(out, "run_summary.json"), encoding="ascii") as fh:
            summary = json.load(fh)
        steps = summary["steps_trained"]
        if steps != expect["steps"]:
            failures.append(f"trained {steps} steps, expected {expect['steps']}")
        ckpt = os.path.join(out, "checkpoint.ckpt")
        try:
            params = load_checkpoint(ckpt)
            if params.config.S != expect["S"]:
                failures.append(f"checkpoint S={params.config.S}, expected {expect['S']}")
        except SstError as exc:
            failures.append(f"checkpoint does not load back: {exc}")
        with open(ckpt, "rb") as fh:
            extras["checkpoint_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        if expect["validates"]:
            with open(os.path.join(out, "metrics.json"), encoding="ascii") as fh:
                f1 = json.load(fh)["macro_f1"]
            extras["val_macro_f1"] = f1
            if f1 < expect["f1_floor"]:
                failures.append(f"validation macro-F1 {f1:.3f} below floor {expect['f1_floor']}")
        return steps * expect["batch_size"] * expect["S"], failures, extras

    with open(os.path.join(out, "metrics.json"), encoding="ascii") as fh:
        confusion = np.asarray(json.load(fh)["confusion"], dtype=np.int64)
    rows = [int(v) for v in confusion.sum(axis=1)]
    scored = int(confusion.sum())
    want = sum(expect["label_counts"])
    if scored != want:
        failures.append(f"confusion matrix sums to {scored}, expected windows*S = {want}")
    elif rows != expect["label_counts"]:
        failures.append(f"true-label counts {rows}, generator wrote {expect['label_counts']}")
    extras["windows"] = scored // expect["S"]
    return scored, failures, extras
