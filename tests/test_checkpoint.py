"""Durable runs (DESIGN.md §8): atomic writes, checkpoint store, run
manifest, and the crash/resume equivalence guarantee.

The headline test kills ``repro classify`` with a hard ``os._exit`` at
several points (mid-interval, on a checkpoint boundary, near the end),
resumes each run, and asserts the classification TSV, the quarantine
sidecar and the health summary are byte-identical to an uninterrupted
run.  Everything else here exists to make that guarantee hold: framing
validation, torn-file fallback, manifest refusal on config/input drift.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.core.pipeline import StreamingClassifier
from repro.exitcodes import EXIT_MANIFEST_MISMATCH
from repro.http.log import write_log
from repro.robustness import (
    CHECKPOINT_VERSION,
    CRASH_EXIT_CODE,
    CheckpointError,
    CheckpointStore,
    CrashInjector,
    CrashMode,
    ErrorPolicy,
    InjectedCrash,
    atomic_writer,
)
from repro.robustness.atomic import _HEADER
from repro.robustness.checkpoint import _FRAMING
from repro.robustness.runstate import (
    Checkpointing,
    ClassifySink,
    ManifestMismatch,
    RunManifest,
    fingerprint_lists,
    fingerprint_params,
    run_serial,
)
from repro.trace.corruption import CorruptionConfig, TraceCorruptor


# ---------------------------------------------------------------------------
# atomic_writer


class TestAtomicWriter:
    def test_replaces_atomically(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with atomic_writer(target) as stream:
            stream.write("new")
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]  # no temp left

    def test_exception_preserves_previous_contents(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("precious")
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as stream:
                stream.write("half-writ")
                raise RuntimeError("crash mid-write")
        assert target.read_text() == "precious"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_binary_mode(self, tmp_path):
        target = tmp_path / "blob.bin"
        with atomic_writer(target, mode="wb") as stream:
            stream.write(b"\x00\xff")
        assert target.read_bytes() == b"\x00\xff"


# ---------------------------------------------------------------------------
# CheckpointStore


class _CreatesFile:
    """Unpickling this object opens ``path`` for writing."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestCheckpointStore:
    def test_round_trip_and_generation_numbering(self, tmp_path):
        store = CheckpointStore(tmp_path)
        first = store.save({"n": 1})
        second = store.save({"n": 2})
        assert (first.generation, second.generation) == (1, 2)
        assert store.load(2).payload == {"n": 2}
        assert store.latest().payload == {"n": 2}

    def test_retention_prunes_old_generations(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        for n in range(6):
            store.save({"n": n})
        assert store.generations() == [4, 5, 6]

    def test_latest_falls_back_past_torn_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.save({"n": 1})
        newest = store.save({"n": 2})
        path = store.path_for(newest.generation)
        data = open(path, "rb").read()
        with open(path, "wb") as stream:  # torn mid-write
            stream.write(data[: len(data) // 2])
        assert store.latest().payload == {"n": 1}

    def test_latest_detects_bit_flip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"n": 1})
        newest = store.save({"n": 2})
        path = store.path_for(newest.generation)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0x01
        open(path, "wb").write(bytes(data))
        assert store.latest().payload == {"n": 1}

    def test_load_rejects_alien_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        os.makedirs(tmp_path, exist_ok=True)
        open(store.path_for(1), "wb").write(b"not a checkpoint at all........")
        with pytest.raises(CheckpointError, match="bad magic|truncated"):
            store.load(1)

    def test_load_rejects_unsupported_version(self, tmp_path):
        store = CheckpointStore(tmp_path)
        header = _HEADER.pack(_FRAMING.magic, 9999, 0, b"\x00" * 32)
        open(store.path_for(1), "wb").write(header)
        with pytest.raises(CheckpointError, match="version"):
            store.load(1)

    def test_latest_none_when_nothing_validates(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.latest() is None
        open(store.path_for(1), "wb").write(b"junk")
        assert store.latest() is None

    def test_pickle_payload_is_refused_undecoded(self, tmp_path):
        """A current-version frame with a valid digest around a pickle
        that would create a file when loaded: refused, nothing runs."""
        control, victim = tmp_path / "control", tmp_path / "victim"
        pickle.loads(pickle.dumps(_CreatesFile(str(control)))).close()
        assert control.exists()  # the payload is live
        blob = pickle.dumps({"records_fed": _CreatesFile(str(victim))})
        header = _HEADER.pack(
            _FRAMING.magic, CHECKPOINT_VERSION, len(blob), hashlib.sha256(blob).digest()
        )
        store = CheckpointStore(tmp_path)
        open(store.path_for(1), "wb").write(header + blob)
        with pytest.raises(CheckpointError, match="undecodable payload"):
            store.load(1)
        assert store.latest() is None
        assert not victim.exists()

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, keep=0)


# ---------------------------------------------------------------------------
# RunManifest


class TestRunManifest:
    def test_param_fingerprint_is_order_independent(self):
        assert fingerprint_params({"a": 1, "b": 2}) == fingerprint_params({"b": 2, "a": 1})
        assert fingerprint_params({"a": 1}) != fingerprint_params({"a": 2})

    def test_list_fingerprint_tracks_contents(self, lists):
        assert fingerprint_lists(lists) == fingerprint_lists(dict(reversed(lists.items())))

    def test_save_load_round_trip(self, tmp_path, lists):
        trace = tmp_path / "in.tsv"
        trace.write_text("#header\n1\tdata\n")
        manifest = RunManifest.build(
            command="classify", params={"seed": 1}, lists=lists,
            input_path=str(trace), output_path=str(tmp_path / "out.tsv"),
            quarantine_path=None,
        )
        manifest.save(str(tmp_path))
        loaded = RunManifest.load(str(tmp_path))
        assert loaded == manifest
        assert not loaded.mismatches(manifest)

    def test_load_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ManifestMismatch, match="nothing to resume"):
            RunManifest.load(str(tmp_path))

    @pytest.mark.parametrize(
        "edit, diagnostic",
        [
            pytest.param(lambda raw: {}, "bad or missing .*'command'", id="empty-object"),
            pytest.param(lambda raw: [1], "not a JSON object", id="list"),
            pytest.param(lambda raw: "manifest", "not a JSON object", id="string"),
            pytest.param(
                lambda raw: {k: v for k, v in raw.items() if k != "input_size"},
                "bad or missing .*'input_size'",
                id="missing-field",
            ),
            pytest.param(
                lambda raw: {**raw, "params": "seed=1"}, "bad or missing .*'params'", id="wrong-type"
            ),
            pytest.param(
                lambda raw: {**raw, "output_path": 7},
                "bad or missing .*'output_path'",
                id="wrong-nullable",
            ),
        ],
    )
    def test_load_malformed_manifest_raises(self, tmp_path, lists, edit, diagnostic):
        """Each defect is a refusal (exit 4), not a TypeError traceback."""
        trace = tmp_path / "in.tsv"
        trace.write_text("data\n")
        RunManifest.build(
            command="classify", params={"seed": 1}, lists=lists,
            input_path=str(trace), output_path=None, quarantine_path=None,
        ).save(str(tmp_path))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ManifestMismatch, match=f"malformed manifest.*{diagnostic}"):
            RunManifest.load(str(tmp_path))

    def test_mismatch_names_the_changed_param(self, tmp_path, lists):
        trace = tmp_path / "in.tsv"
        trace.write_text("data\n")
        build = lambda seed: RunManifest.build(
            command="classify", params={"seed": seed}, lists=lists,
            input_path=str(trace), output_path=None, quarantine_path=None,
        )
        diagnostics = build(1).mismatches(build(2))
        assert any("seed: 1 -> 2" in d for d in diagnostics)

    def test_mismatch_detects_input_mutation(self, tmp_path, lists):
        trace = tmp_path / "in.tsv"
        trace.write_text("data\n")
        build = lambda: RunManifest.build(
            command="classify", params={}, lists=lists,
            input_path=str(trace), output_path=None, quarantine_path=None,
        )
        before = build()
        with open(trace, "a") as stream:
            stream.write("appended\n")
        diagnostics = before.mismatches(build())
        assert any("input file changed" in d for d in diagnostics)


# ---------------------------------------------------------------------------
# StreamingClassifier state round-trip (in-process split equivalence)


def _keys(entries):
    return [
        (e.record.to_row(), e.page_url, int(e.content_type),
         e.is_ad, e.blacklist_name, e.is_whitelisted)
        for e in entries
    ]


def _none_vs_empty(records, split):
    """Nullable fields alternate None and "" in the records the cut holds."""
    edited = list(records)
    for i in range(split - 40, split):
        if i % 2:
            edited[i] = dataclasses.replace(
                edited[i], referrer=None, user_agent=None, status=None, content_type=None,
                content_length=None, location=None, http_handshake_ms=None,
            )
        else:
            edited[i] = dataclasses.replace(
                edited[i], referrer="", user_agent="", content_type="", location="",
            )
    return edited


def _uri_with_newline(records, split):
    """URIs carrying a literal ``%0A`` and the LF the reader decodes it to."""
    edited = list(records)
    for i in range(split - 40, split, 3):
        edited[i] = dataclasses.replace(edited[i], uri=edited[i].uri + "?a=%0A&b=\nc")
    return edited


class TestStreamingClassifierState:
    @pytest.mark.parametrize(
        "reorder_window, split, edit",
        [
            pytest.param(None, 1234, None, id="None"),
            pytest.param(5.0, 1234, None, id="5.0"),
            # Cut before the first record: empty heap, max_ts still -inf.
            pytest.param(5.0, 0, None, id="empty-reorder-heap"),
            pytest.param(None, 1234, _none_vs_empty, id="none-vs-empty"),
            pytest.param(5.0, 1234, _uri_with_newline, id="uri-with-newline"),
        ],
    )
    def test_split_restore_equivalence(
        self, tmp_path, pipeline, rbn_trace, reorder_window, split, edit
    ):
        records = rbn_trace.http[:3000]
        if edit is not None:
            records = edit(records, split)

        whole = StreamingClassifier(pipeline, fixup_window=64, reorder_window=reorder_window)
        golden = []
        for record in records:
            golden.extend(whole.feed(record))
        golden.extend(whole.finish())

        first = StreamingClassifier(pipeline, fixup_window=64, reorder_window=reorder_window)
        out = []
        for record in records[:split]:
            out.extend(first.feed(record))
        # Through a checkpoint file, as a resumed run reads it back.
        store = CheckpointStore(tmp_path)
        store.save({"classifier": first.export_state()})
        state = store.latest().payload["classifier"]

        second = StreamingClassifier(pipeline, fixup_window=64, reorder_window=reorder_window)
        second.restore_state(state)
        for record in records[split:]:
            out.extend(second.feed(record))
        out.extend(second.finish())

        assert _keys(out) == _keys(golden)

    def test_restore_rejects_alien_version(self, pipeline):
        classifier = StreamingClassifier(pipeline)
        with pytest.raises(ValueError, match="state version"):
            classifier.restore_state({"version": 999})


# ---------------------------------------------------------------------------
# run_serial with Checkpointing, in-process: crash (RAISE mode) + resume equivalence


@pytest.fixture(scope="module")
def durable_traces(tmp_path_factory, rbn_trace):
    """A clean and a damaged small trace on disk for durable-run tests."""
    tmp = tmp_path_factory.mktemp("durable")
    clean = tmp / "clean.tsv"
    with open(clean, "w") as stream:
        write_log(rbn_trace.http[:4000], stream)
    corruptor = TraceCorruptor(CorruptionConfig(rate=0.05, seed=11))
    dirty = tmp / "dirty.tsv"
    corruptor.corrupt_file(str(clean), str(dirty))
    return clean, dirty


def _durable_classify(
    directory,
    pipeline,
    lists,
    trace_path,
    *,
    resume=False,
    crash_after=None,
    on_error=ErrorPolicy.STRICT,
    checkpoint_every=500,
):
    directory = str(directory)
    out_path = os.path.join(directory, "final-output.tsv")
    quarantine_path = (
        os.path.join(directory, "final-quarantine.tsv")
        if on_error is ErrorPolicy.QUARANTINE
        else None
    )
    manifest = RunManifest.build(
        command="classify",
        params={"on_error": str(on_error)},
        lists=lists,
        input_path=str(trace_path),
        output_path=out_path,
        quarantine_path=quarantine_path,
    )
    result = run_serial(
        str(trace_path),
        pipeline,
        ClassifySink(part_path=os.path.join(directory, "output.part"), final_path=out_path),
        on_error=on_error,
        quarantine_path=quarantine_path,
        checkpointing=Checkpointing(
            directory=directory,
            manifest=manifest,
            every=checkpoint_every,
            resume=resume,
            crash_injector=(
                CrashInjector(crash_after, mode=CrashMode.RAISE) if crash_after else None
            ),
        ),
    )
    return result, out_path, quarantine_path


class TestDurableRunInProcess:
    @pytest.fixture(scope="class")
    def golden(self, tmp_path_factory, pipeline, lists, durable_traces):
        _, dirty = durable_traces
        tmp = tmp_path_factory.mktemp("golden")
        result, out_path, quarantine_path = _durable_classify(
            tmp, pipeline, lists, dirty, on_error=ErrorPolicy.QUARANTINE
        )
        return result, open(out_path, "rb").read(), open(quarantine_path, "rb").read()

    # 750: mid-interval; 1500: exactly on a checkpoint boundary; 3500:
    # inside the final, never-checkpointed stretch.
    @pytest.mark.parametrize("crash_after", [750, 1500, 3500])
    def test_crash_resume_is_byte_identical(
        self, tmp_path, pipeline, lists, durable_traces, golden, crash_after
    ):
        _, dirty = durable_traces
        golden_result, golden_out, golden_quarantine = golden
        with pytest.raises(InjectedCrash):
            _durable_classify(
                tmp_path, pipeline, lists, dirty,
                crash_after=crash_after, on_error=ErrorPolicy.QUARANTINE,
            )
        result, out_path, quarantine_path = _durable_classify(
            tmp_path, pipeline, lists, dirty,
            resume=True, on_error=ErrorPolicy.QUARANTINE,
        )
        assert open(out_path, "rb").read() == golden_out
        assert open(quarantine_path, "rb").read() == golden_quarantine
        # Health counters (incl. stage_errors) survived the checkpoint.
        assert result.health.summary() == golden_result.health.summary()
        assert result.resumed_generation is not None or crash_after < 500

    # 1000: on a checkpoint boundary; 1030: mid-batch; 1: the first record.
    @pytest.mark.parametrize("crash_after", [1000, 1030, 1])
    def test_crash_after_feeds_exactly_n_records(
        self, tmp_path, monkeypatch, pipeline, lists, durable_traces, crash_after
    ):
        fed = []
        feed = StreamingClassifier.feed

        def counting_feed(classifier, record):
            fed.append(record)
            return feed(classifier, record)

        monkeypatch.setattr(StreamingClassifier, "feed", counting_feed)
        clean, _ = durable_traces
        with pytest.raises(InjectedCrash):
            _durable_classify(tmp_path, pipeline, lists, clean, crash_after=crash_after)
        assert len(fed) == crash_after

    def test_completed_run_cleans_up_checkpoints(
        self, tmp_path, pipeline, lists, durable_traces
    ):
        clean, _ = durable_traces
        result, out_path, _ = _durable_classify(tmp_path, pipeline, lists, clean)
        assert result.checkpoints_written > 0
        assert CheckpointStore(tmp_path).generations() == []
        assert os.path.exists(out_path)
        assert not os.path.exists(tmp_path / "output.part")

    def test_crash_leaves_final_output_unshadowed(
        self, tmp_path, pipeline, lists, durable_traces
    ):
        clean, _ = durable_traces
        out_path = os.path.join(str(tmp_path), "final-output.tsv")
        with open(out_path, "w") as stream:
            stream.write("previous good run\n")
        with pytest.raises(InjectedCrash):
            _durable_classify(tmp_path, pipeline, lists, clean, crash_after=700)
        assert open(out_path).read() == "previous good run\n"

    def test_resume_refuses_changed_params(self, tmp_path, pipeline, lists, durable_traces):
        clean, _ = durable_traces
        with pytest.raises(InjectedCrash):
            _durable_classify(tmp_path, pipeline, lists, clean, crash_after=700)
        with pytest.raises(ManifestMismatch, match="config changed"):
            _durable_classify(
                tmp_path, pipeline, lists, clean,
                resume=True, on_error=ErrorPolicy.SKIP,  # different params
            )

    def test_resume_refuses_mutated_input(self, tmp_path, pipeline, lists, rbn_trace):
        trace = tmp_path / "trace.tsv"
        with open(trace, "w") as stream:
            write_log(rbn_trace.http[:2000], stream)
        with pytest.raises(InjectedCrash):
            _durable_classify(tmp_path, pipeline, lists, trace, crash_after=700)
        with open(trace, "a") as stream:
            stream.write("tampered\n")
        with pytest.raises(ManifestMismatch, match="input file changed"):
            _durable_classify(tmp_path, pipeline, lists, trace, resume=True)


# ---------------------------------------------------------------------------
# Subprocess: hard kill (os._exit) + resume through the real CLI


_ECO = ["--publishers", "80", "--eco-seed", "99"]


def _cli(args, cwd):
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (repo_src, env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=600,
    )


def _resumable_stdout(stdout: str) -> str:
    """What a resumed run must print byte-identically: stdout without
    the resume note, the lines naming per-run paths and the
    process-local cache block before the health marker."""
    marker = "-- pipeline health --"
    assert marker in stdout
    notes = ("resuming from checkpoint", "quarantined ", "wrote classification to")
    text = "".join(
        line for line in stdout.splitlines(keepends=True) if not line.startswith(notes)
    )
    head, _, _ = text.partition("-- decision cache --")
    return head + text[text.index(marker):]


@pytest.fixture(scope="module")
def cli_trace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("crashcli")
    clean = tmp / "trace.tsv"
    proc = _cli(
        ["trace", *_ECO, "--preset", "rbn2", "--scale", "0.0002", "--out", str(clean),
         "--tls-out", str(tmp / "tls.tsv")],
        tmp,
    )
    assert proc.returncode == 0, proc.stderr
    dirty = tmp / "dirty.tsv"
    proc = _cli(
        ["corrupt", "--trace", str(clean), "--out", str(dirty), "--rate", "0.05",
         "--seed", "3"],
        tmp,
    )
    assert proc.returncode == 0, proc.stderr
    return dirty


def _durable_args(command, trace, out, ckpt_dir, *extra):
    """A durable classify/usage/report; ``out`` names the classify
    output and, for every command, the quarantine sidecar beside it."""
    outputs = {
        "classify": ["--out", str(out)],
        "usage": ["--tls", str(trace.parent / "tls.tsv"), "--min-requests", "20"],
        "report": [],
    }[command]
    return [
        command, *_ECO, "--trace", str(trace), *outputs,
        "--on-error", "quarantine", "--quarantine-out", str(out) + ".quarantine",
        "--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "2000", *extra,
    ]


def _classify_args(trace, out, ckpt_dir, *extra):
    return _durable_args("classify", trace, out, ckpt_dir, *extra)


class TestCrashRecoveryCli:
    @pytest.fixture(scope="class")
    def golden(self, tmp_path_factory, cli_trace):
        """Uninterrupted outputs per command, computed on first use."""
        runs = {}

        def outputs(command):
            if command not in runs:
                tmp = tmp_path_factory.mktemp(f"cligolden-{command}")
                out = tmp / "golden.tsv"
                proc = _cli(_durable_args(command, cli_trace, out, tmp / "ckpt"), tmp)
                assert proc.returncode in (0, 3), proc.stderr
                runs[command] = (
                    out.read_bytes() if command == "classify" else None,
                    (tmp / "golden.tsv.quarantine").read_bytes(),
                    _resumable_stdout(proc.stdout),
                )
            return runs[command]

        return outputs

    # Checkpoints fall every 2000 records and batches are 64 long: 3000
    # and 11000 land mid-batch, 6000 on a checkpoint boundary, 4001 one
    # record past one.
    @pytest.mark.parametrize(
        "command, crash_after",
        [
            pytest.param("classify", 3000, id="3000"),
            pytest.param("classify", 6000, id="6000"),
            pytest.param("classify", 11000, id="11000"),
            pytest.param("classify", 4001, id="4001"),
            pytest.param("usage", 7001, id="usage-7001"),
            pytest.param("report", 5000, id="report-5000"),
        ],
    )
    def test_hard_kill_and_resume(self, tmp_path, cli_trace, golden, command, crash_after):
        golden_out, golden_quarantine, golden_stdout = golden(command)
        out = tmp_path / "out.tsv"
        crashed = _cli(
            _durable_args(command, cli_trace, out, tmp_path / "ckpt",
                          "--crash-after", str(crash_after)),
            tmp_path,
        )
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stderr
        assert not out.exists()  # final outputs never published by a crashed run
        resumed = _cli(
            _durable_args(command, cli_trace, out, tmp_path / "ckpt", "--resume"), tmp_path
        )
        assert resumed.returncode in (0, 3), resumed.stderr
        assert "resuming from checkpoint" in resumed.stdout
        if golden_out is not None:
            assert out.read_bytes() == golden_out
        assert (tmp_path / "out.tsv.quarantine").read_bytes() == golden_quarantine
        assert _resumable_stdout(resumed.stdout) == golden_stdout

    def test_resume_of_a_pickle_era_checkpoint_directory_exits_4(self, tmp_path, cli_trace):
        """A directory written while checkpoints were pickles: a
        version-1 manifest and version-1 generations.  Refused with a
        diagnostic, not read as "no valid checkpoint" and restarted."""
        out, ckpt = tmp_path / "out.tsv", tmp_path / "ckpt"
        crashed = _cli(_classify_args(cli_trace, out, ckpt, "--crash-after", "5000"), tmp_path)
        assert crashed.returncode == CRASH_EXIT_CODE
        store = CheckpointStore(ckpt)
        assert store.generations()
        for generation in store.generations():
            blob = pickle.dumps(store.load(generation).payload)
            header = _HEADER.pack(_FRAMING.magic, 1, len(blob), hashlib.sha256(blob).digest())
            open(store.path_for(generation), "wb").write(header + blob)
        manifest_path = ckpt / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 1
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        proc = _cli(_classify_args(cli_trace, out, ckpt, "--resume"), tmp_path)
        assert proc.returncode == EXIT_MANIFEST_MISMATCH, proc.stdout + proc.stderr
        assert "manifest version 1 != 2" in proc.stderr
        assert "config changed" not in proc.stderr
        assert "restarting from the beginning" not in proc.stdout
        assert not out.exists()

    def test_resume_with_changed_config_exits_4(self, tmp_path, cli_trace):
        out = tmp_path / "out.tsv"
        crashed = _cli(
            _classify_args(cli_trace, out, tmp_path / "ckpt", "--crash-after", "3000"),
            tmp_path,
        )
        assert crashed.returncode == CRASH_EXIT_CODE
        proc = _cli(
            ["classify", "--publishers", "80", "--eco-seed", "1234",
             "--trace", str(cli_trace), "--out", str(out),
             "--on-error", "quarantine", "--quarantine-out", str(out) + ".quarantine",
             "--checkpoint-dir", str(tmp_path / "ckpt"), "--resume"],
            tmp_path,
        )
        assert proc.returncode == EXIT_MANIFEST_MISMATCH
        assert "manifest mismatch" in proc.stderr
        assert "eco_seed" in proc.stderr

    def test_resume_of_a_checkpoint_that_pinned_a_matcher_exits_4(self, tmp_path, cli_trace):
        """Checkpoint directories written while ``--matcher`` existed
        pinned it in the manifest; the key is gone, so their config hash
        no longer matches and they are refused like any changed config."""
        import json

        out = tmp_path / "out.tsv"
        crashed = _cli(
            _classify_args(cli_trace, out, tmp_path / "ckpt", "--crash-after", "3000"),
            tmp_path,
        )
        assert crashed.returncode == CRASH_EXIT_CODE
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["params"]["matcher"] = "buckets"
        manifest["config_hash"] = fingerprint_params(manifest["params"])
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        proc = _cli(
            _classify_args(cli_trace, out, tmp_path / "ckpt", "--resume"), tmp_path
        )
        assert proc.returncode == EXIT_MANIFEST_MISMATCH
        assert "manifest mismatch" in proc.stderr
        assert "matcher: 'buckets' -> None" in proc.stderr

    def test_resume_without_checkpoint_dir_is_an_error(self, tmp_path, cli_trace):
        proc = _cli(
            ["classify", *_ECO, "--trace", str(cli_trace), "--resume"], tmp_path
        )
        assert proc.returncode != 0
        assert "--checkpoint-dir" in proc.stderr
