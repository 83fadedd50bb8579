"""Tests for the command-line interface."""

import io
import json

import numpy as np
import pytest

from repro.cli import CLIError, build_parser, code_from_manifest, code_to_manifest, main
from repro.core import GalloperCode


@pytest.fixture
def payload(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, size=100_000, dtype=np.uint8).tobytes()
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    return src, data


def run(*argv):
    return main([str(a) for a in argv])


class TestManifest:
    def test_galloper_roundtrip(self):
        code = GalloperCode(4, 2, 1, performances=[1, 1, 1, 1, 0.4, 0.4, 0.4])
        manifest = code_to_manifest(code, 1000, 10)
        rebuilt = code_from_manifest(manifest)
        assert np.array_equal(rebuilt.generator, code.generator)
        assert rebuilt.weights == code.weights

    def test_pyramid_roundtrip(self):
        from repro.codes import PyramidCode

        code = PyramidCode(4, 2, 2, all_symbol=True)
        rebuilt = code_from_manifest(code_to_manifest(code, 5, 1))
        assert np.array_equal(rebuilt.generator, code.generator)

    def test_rs_roundtrip(self):
        from repro.codes import ReedSolomonCode

        code = ReedSolomonCode(6, 3)
        rebuilt = code_from_manifest(code_to_manifest(code, 5, 1))
        assert np.array_equal(rebuilt.generator, code.generator)

    def test_unknown_code_rejected(self):
        with pytest.raises(CLIError):
            code_from_manifest({"code": "mystery"})


class TestEncodeDecodeRepair:
    def test_roundtrip(self, tmp_path, payload):
        src, data = payload
        blocks = tmp_path / "blocks"
        assert run("encode", src, blocks) == 0
        assert (blocks / "manifest.json").exists()
        assert len(list(blocks.glob("block_*.bin"))) == 7
        out = tmp_path / "restored.bin"
        assert run("decode", blocks, out) == 0
        assert out.read_bytes() == data

    def test_decode_with_lost_blocks(self, tmp_path, payload):
        src, data = payload
        blocks = tmp_path / "blocks"
        run("encode", src, blocks)
        (blocks / "block_000.bin").unlink()
        (blocks / "block_004.bin").unlink()
        out = tmp_path / "restored.bin"
        assert run("decode", blocks, out) == 0
        assert out.read_bytes() == data

    def test_decode_exclude_flag(self, tmp_path, payload):
        src, data = payload
        blocks = tmp_path / "blocks"
        run("encode", src, blocks)
        out = tmp_path / "restored.bin"
        assert run("decode", blocks, out, "--exclude", "1,5") == 0
        assert out.read_bytes() == data

    def test_repair_restores_block_bytes(self, tmp_path, payload):
        src, data = payload
        blocks = tmp_path / "blocks"
        run("encode", src, blocks)
        original = (blocks / "block_002.bin").read_bytes()
        (blocks / "block_002.bin").unlink()
        assert run("repair", blocks, 2) == 0
        assert (blocks / "block_002.bin").read_bytes() == original

    def test_repair_out_of_range(self, tmp_path, payload):
        src, _ = payload
        blocks = tmp_path / "blocks"
        run("encode", src, blocks)
        assert run("repair", blocks, 99) == 2

    def test_encode_with_performances(self, tmp_path, payload):
        src, data = payload
        blocks = tmp_path / "blocks"
        assert run("encode", src, blocks, "--performances", "1,1,1,1,0.4,0.4,0.4") == 0
        manifest = json.loads((blocks / "manifest.json").read_text())
        assert manifest["weights"][0] != manifest["weights"][4]
        out = tmp_path / "restored.bin"
        run("decode", blocks, out)
        assert out.read_bytes() == data

    def test_encode_rs(self, tmp_path, payload):
        src, data = payload
        blocks = tmp_path / "blocks"
        assert run("encode", src, blocks, "--code", "rs", "--k", "4", "--g", "2") == 0
        assert len(list(blocks.glob("block_*.bin"))) == 6
        out = tmp_path / "r.bin"
        assert run("decode", blocks, out, "--exclude", "0,1") == 0
        assert out.read_bytes() == data

    def test_missing_input(self, tmp_path):
        assert run("encode", tmp_path / "ghost.bin", tmp_path / "b") == 2

    def test_missing_manifest(self, tmp_path):
        assert run("decode", tmp_path, tmp_path / "out.bin") == 2


class TestDamagedBlockDirectories:
    """What a user can do to a block directory ends in ``error: ...`` and
    exit status 2, never in a traceback."""

    @pytest.fixture
    def blocks(self, tmp_path, payload):
        directory = tmp_path / "blocks"
        assert run("encode", payload[0], directory) == 0  # galloper(4,2,1): tolerates any 2
        return directory

    def assert_error(self, capsys, status, *words):
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        for word in words:
            assert word in err

    def test_decode_past_the_tolerance(self, blocks, tmp_path, capsys):
        for b in (0, 1, 2, 3):
            (blocks / f"block_{b:03d}.bin").unlink()
        self.assert_error(capsys, run("decode", blocks, tmp_path / "out.bin"), "cannot decode")
        assert not (tmp_path / "out.bin").exists()

    def test_decode_and_repair_with_no_blocks_left(self, blocks, tmp_path, capsys):
        for path in blocks.glob("block_*.bin"):
            path.unlink()
        self.assert_error(capsys, run("decode", blocks, tmp_path / "out.bin"), "no blocks")
        self.assert_error(capsys, run("repair", blocks, 0), "cannot repair block 0")

    def test_repair_past_the_tolerance(self, blocks, capsys):
        for b in (0, 1, 2, 3):
            (blocks / f"block_{b:03d}.bin").unlink()
        self.assert_error(capsys, run("repair", blocks, 0), "block 0")
        assert not (blocks / "block_000.bin").exists()

    @pytest.mark.parametrize("resize", [lambda raw: raw[:-5], lambda raw: raw + b"\0"],
                             ids=["truncated", "oversized"])
    def test_block_file_of_the_wrong_size(self, blocks, tmp_path, capsys, resize):
        victim = blocks / "block_003.bin"
        victim.write_bytes(resize(victim.read_bytes()))
        self.assert_error(capsys, run("decode", blocks, tmp_path / "out.bin"), "block_003.bin", "bytes")
        self.assert_error(capsys, run("repair", blocks, 0), "block_003.bin")
        # Excluding the damaged block is the way out, and still decodes.
        assert run("decode", blocks, tmp_path / "out.bin", "--exclude", "3") == 0

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"code": "rs"}', "\udcff"],
                             ids=["malformed", "not-an-object", "missing-fields", "not-utf8"])
    def test_unreadable_manifest(self, blocks, tmp_path, capsys, text):
        (blocks / "manifest.json").write_bytes(text.encode("utf-8", "surrogateescape"))
        self.assert_error(capsys, run("decode", blocks, tmp_path / "out.bin"), "manifest.json")
        self.assert_error(capsys, run("repair", blocks, 0), "manifest.json")


class TestInfoAnalyze:
    def test_info_runs(self, capsys):
        assert run("info", "--code", "galloper", "--k", "4", "--l", "2", "--g", "1") == 0
        out = capsys.readouterr().out
        assert "data parallelism : 7 / 7" in out
        assert "repair reads 2" in out

    def test_info_all_symbol(self, capsys):
        assert run("info", "--code", "galloper", "--k", "4", "--l", "2", "--g", "2", "--all-symbol") == 0
        out = capsys.readouterr().out
        assert "9 / 9" in out

    def test_analyze_runs(self, capsys):
        assert run("analyze", "--code", "pyramid", "--k", "4", "--l", "2", "--g", "1") == 0
        out = capsys.readouterr().out
        assert "MTTDL" in out
        assert "guaranteed tolerance : 2" in out

    def test_bad_performances(self, capsys):
        assert run("info", "--code", "galloper", "--performances", "a,b") == 2


class TestFigures:
    def test_single_figure(self, capsys):
        assert run("figures", "--only", "fig2") == 0
        out = capsys.readouterr().out
        assert "parallel_servers" in out

    def test_unknown_figure(self):
        assert run("figures", "--only", "fig99") == 2

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestStatsSchema:
    """`repro stats` JSON must keep a stable schema across code families."""

    TOP_KEYS = {"code", "groups", "payload_bytes", "blocks_rebuilt",
                "plan_cache", "kernel_selection", "kernel_bytes", "metrics",
                "metrics_all", "serving", "derived"}

    def _stats(self, capsys, *code_args):
        assert run("stats", "--groups", 4, "--block-bytes", 2048, *code_args) == 0
        return json.loads(capsys.readouterr().out)

    SERVING_KEYS = {
        "cache_hits", "cache_misses", "cache_admissions", "cache_rejections",
        "cache_evictions", "coalesced_reads", "hedges_fired", "hedges_won",
        "hedge_losers_discarded", "degraded_reads", "throttle_waits",
        "repair_blocks", "repair_replans", "repair_helper_blocks",
        "reads_ok", "reads_failed", "slo_ok", "unavailable",
        "requests", "failures", "p99", "cache_hit_ratio",
    }

    @pytest.mark.parametrize("code_args", [
        ("--code", "rs", "--k", "4", "--g", "2"),
        ("--code", "pyramid", "--k", "4", "--l", "2", "--g", "1"),
        ("--code", "galloper", "--k", "4", "--l", "2", "--g", "1"),
    ], ids=["rs", "pyramid", "galloper"])
    def test_schema_stable_across_codes(self, capsys, code_args):
        payload = self._stats(capsys, *code_args)
        assert set(payload) == self.TOP_KEYS
        assert set(payload["serving"]) == self.SERVING_KEYS
        assert payload["serving"]["requests"] > 0
        assert payload["serving"]["failures"] == 0
        assert payload["serving"]["reads_ok"] == payload["serving"]["requests"]
        assert payload["serving"]["p99"] > 0.0
        assert set(payload["plan_cache"]) == {"size", "maxsize", "hits", "misses"}
        assert set(payload["kernel_selection"]) == {
            "copy", "packed-full", "packed-split", "xor", "native", "native-xor",
            "xor_fallbacks", "native_fallbacks"}
        assert all(v >= 0 for v in payload["kernel_selection"].values())
        assert set(payload["kernel_bytes"]) == {
            "copy", "packed-full", "packed-split", "xor", "native", "native-xor",
            "direct-small"}
        assert all(v >= 0 for v in payload["kernel_bytes"].values())
        assert set(payload["metrics_all"]) == {"counters", "histograms", "gauges"}
        assert set(payload["derived"]) == {"groups_per_apply", "zero_copy_fraction"}
        assert payload["metrics_all"]["counters"] == payload["metrics"]
        assert payload["metrics_all"]["gauges"]["plan_cache_hit_ratio"] >= 0.0
        assert payload["blocks_rebuilt"] > 0
        assert payload["groups"] >= 4

    def test_fused_repair_compiles_one_plan(self, capsys):
        payload = self._stats(capsys, "--code", "galloper")
        # All groups share one (block, helpers) bucket, so the batched
        # repair compiles exactly one reconstruct plan for the whole storm.
        cache = payload["plan_cache"]
        assert cache["misses"] == 1
        lookups = cache["hits"] + cache["misses"]
        gauge = payload["metrics_all"]["gauges"]["plan_cache_hit_ratio"]
        assert gauge == pytest.approx(cache["hits"] / lookups)
        assert payload["derived"]["groups_per_apply"] >= 2.0


class TestServeCommand:
    """`repro serve`: workload summary JSON plus the optional trace."""

    def _serve(self, capsys, *args):
        assert run("serve", "--clients", 40, "--think", "0.05", *args) == 0
        out = capsys.readouterr().out
        return json.loads(out[: out.index("\n}") + 2])

    @pytest.mark.parametrize("code_args", [
        ("--code", "rs", "--k", "4", "--g", "3"),
        ("--code", "galloper", "--k", "4", "--l", "2", "--g", "1"),
    ], ids=["rs", "galloper"])
    def test_summary_schema(self, capsys, code_args):
        payload = self._serve(capsys, *code_args)
        assert set(payload) == {
            "code", "scenario", "clients", "requests", "failures", "availability",
            "p50", "p95", "p99", "sim_duration", "cache_hit_ratio", "counters",
        }
        assert payload["scenario"] == "zipf"
        assert payload["requests"] == 40 * 3
        assert payload["failures"] == 0
        assert payload["availability"] == 1.0
        assert 0 < payload["p50"] <= payload["p99"]

    def test_chaos_runs_repair_as_serving_traffic(self, capsys):
        payload = self._serve(capsys, "--chaos", "--seed", "7")
        assert payload["scenario"] == "chaos"
        assert payload["counters"]["repair_blocks"] > 0
        assert payload["availability"] >= 0.9

    def test_chaos_trace_carries_retries_and_timeouts(self, capsys, tmp_path):
        trace = tmp_path / "chaos.json"
        self._serve(capsys, "--chaos", "--trace", trace)
        names = {s.get("name") for s in json.loads(trace.read_text())["traceEvents"]}
        assert {"resilient.retry", "resilient.timeout"} <= names

    def test_trace_export(self, capsys, tmp_path):
        trace = tmp_path / "serve.json"
        assert run("serve", "--clients", 10, "--think", "0.05",
                   "--trace", trace) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        spans = json.loads(trace.read_text())["traceEvents"]
        names = {s.get("name") for s in spans}
        assert "serve.read" in names
        assert any(str(n).startswith("serve.disk") for n in names)
