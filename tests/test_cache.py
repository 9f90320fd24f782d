"""Tests for the content-addressed result cache (`repro.cache`).

The contract under test: a cache-served batch is *byte-identical* to
an uncached run (serial and pooled), every invalidation lever (spec
schema rev, code-rev salt, payload kind) actually orphans entries, a
damaged entry is recomputed — never served, never a crash — and
concurrent writers racing on one key leave exactly one untorn entry.
"""

import json
import pathlib
import shutil
import threading

import pytest

from repro import cache as cache_module
from repro.cache import (
    CODE_REV_SALT,
    INDEX_SCHEMA,
    ResultCache,
    _source_salt,
    cache_key,
    hit_rate,
    read_index,
)
from repro.errors import ConfigurationError
from repro.pipeline.spec import SessionSpec
from repro.sim.batch import run_batch
from repro.sim.session import SessionConfig
from repro.telemetry import TelemetryConfig

APPS = ("Facebook", "Auction")


def _configs(n=4, duration_s=2.0):
    return [SessionConfig(app=APPS[i % len(APPS)],
                          governor="section+boost",
                          duration_s=duration_s, seed=i)
            for i in range(n)]


def _bytes(results):
    return json.dumps(results, sort_keys=True)


def _spec(**overrides):
    fields = dict(app="Facebook", duration_s=2.0, seed=3)
    fields.update(overrides)
    return SessionSpec(**fields)


class TestCacheKey:
    def test_stable_across_instances(self):
        assert cache_key(_spec()) == cache_key(_spec())

    def test_spec_fields_change_the_key(self):
        base = cache_key(_spec())
        assert cache_key(_spec(seed=4)) != base
        assert cache_key(_spec(governor="fixed")) != base
        assert cache_key(_spec(duration_s=2.5)) != base

    def test_every_component_changes_the_key(self):
        base = cache_key(_spec())
        assert cache_key(_spec(), capture=True) != base
        assert cache_key(_spec(), schema_rev="repro-session/2") != base
        assert cache_key(_spec(), code_salt="other") != base

    def test_uncacheable_specs_refused(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key_for_spec(_spec(app="trace:frames.rptrace")) \
            is None
        sink = SessionConfig(
            app="Facebook", duration_s=2.0,
            telemetry=TelemetryConfig(jsonl_path="events.jsonl"))
        assert cache.key_for(sink) is None
        assert cache.stats_dict()["uncacheable"] == 2

    def test_empty_rev_or_salt_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path, schema_rev="")
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path, code_salt="")


class TestBatchIntegration:
    def test_warm_run_is_all_hits_and_byte_identical(self, tmp_path):
        configs = _configs()
        cache = ResultCache(tmp_path)
        uncached = run_batch(configs, workers=1)
        cold = run_batch(configs, workers=1, cache=cache)
        warm = run_batch(configs, workers=1, cache=cache)
        assert _bytes(cold) == _bytes(uncached)
        assert _bytes(warm) == _bytes(uncached)
        stats = cache.stats_dict()
        assert stats["misses"] == len(configs)
        assert stats["stores"] == len(configs)
        assert stats["hits"] == len(configs)

    def test_pooled_warm_run_matches_serial(self, tmp_path):
        configs = _configs()
        cache = ResultCache(tmp_path)
        uncached = run_batch(configs, workers=1)
        run_batch(configs[:2], workers=1, cache=cache)  # partial warm
        mixed = run_batch(configs, workers=2, cache=cache,
                          mp_context="fork")
        assert _bytes(mixed) == _bytes(uncached)
        warm = run_batch(configs, workers=2, cache=cache,
                         mp_context="fork")
        assert _bytes(warm) == _bytes(uncached)
        assert cache.stats_dict()["hits"] == 2 + len(configs)

    def test_progress_fires_once_per_config(self, tmp_path):
        configs = _configs()
        cache = ResultCache(tmp_path)
        run_batch(configs[2:], workers=1, cache=cache)
        seen = []
        run_batch(configs, workers=1, cache=cache,
                  progress=lambda done, total, entry:
                  seen.append((done, total)))
        assert seen == [(i + 1, len(configs))
                        for i in range(len(configs))]

    def test_failure_records_are_not_cached(self, tmp_path,
                                            monkeypatch):
        import repro.sim.batch as batch
        cache = ResultCache(tmp_path)
        configs = _configs(n=1)

        def boom(config):
            raise RuntimeError("injected session failure")

        monkeypatch.setattr(batch, "run_session", boom)
        results = run_batch(configs, workers=1, cache=cache,
                            on_error="record")
        assert results[0]["batch_failed"] is True
        assert cache.entry_count() == 0
        # The failed config still misses (never a hit) next time, and
        # a healthy run recomputes and stores normally.
        monkeypatch.undo()
        again = run_batch(configs, workers=1, cache=cache,
                          on_error="record")
        assert again[0]["app"] == configs[0].app
        stats = cache.stats_dict()
        assert stats["hits"] == 0
        assert stats["stores"] == 1


class TestInvalidation:
    def _prime(self, tmp_path, **kwargs):
        cache = ResultCache(tmp_path, **kwargs)
        configs = _configs(n=2)
        run_batch(configs, workers=1, cache=cache)
        return configs

    def test_schema_rev_bump_invalidates(self, tmp_path):
        configs = self._prime(tmp_path)
        bumped = ResultCache(tmp_path, schema_rev="repro-session/2")
        run_batch(configs, workers=1, cache=bumped)
        stats = bumped.stats_dict()
        assert stats["hits"] == 0
        assert stats["misses"] == len(configs)

    def test_code_salt_change_invalidates(self, tmp_path):
        configs = self._prime(tmp_path)
        salted = ResultCache(tmp_path, code_salt=CODE_REV_SALT + ".x")
        run_batch(configs, workers=1, cache=salted)
        assert salted.stats_dict()["hits"] == 0

    def test_governor_edit_in_package_copy_misses(self, tmp_path):
        package = pathlib.Path(cache_module.__file__).resolve().parent
        copy = tmp_path / "copy" / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert _source_salt(copy) == CODE_REV_SALT
        governor = copy / "governors" / "predictive.py"
        governor.write_text(governor.read_text()
                            + "\nEWMA_ALPHA_EDITED = 0.5\n")
        edited = _source_salt(copy)
        assert edited != CODE_REV_SALT
        assert cache_key(_spec(), code_salt=edited) != cache_key(_spec())
        configs = self._prime(tmp_path / "cache")
        stale = ResultCache(tmp_path / "cache", code_salt=edited)
        run_batch(configs, workers=1, cache=stale)
        stats = stale.stats_dict()
        assert stats["hits"] == 0
        assert stats["misses"] == len(configs)

    def _one_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _configs(n=1)[0]
        run_batch([config], workers=1, cache=cache)
        paths = list(cache.objects_dir.glob("*/*.json"))
        assert len(paths) == 1
        return cache, config, paths[0]

    def test_truncated_entry_recomputes(self, tmp_path):
        cache, config, path = self._one_entry(tmp_path)
        path.write_text(path.read_text()[: 40])
        results = run_batch([config], workers=1, cache=cache)
        assert results[0]["app"] == config.app
        stats = cache.stats_dict()
        assert stats["corrupt_entries"] == 1
        assert stats["hits"] == 0
        # The bad entry was deleted and replaced by the recompute.
        assert cache.get(cache.key_for(config)) is not None

    def test_garbage_entry_recomputes(self, tmp_path):
        cache, config, path = self._one_entry(tmp_path)
        path.write_text("{\"schema\": \"not-a-cache-entry\"}\n")
        results = run_batch([config], workers=1, cache=cache)
        assert results[0]["app"] == config.app
        assert cache.stats_dict()["corrupt_entries"] == 1

    def test_renamed_entry_key_mismatch_recomputes(self, tmp_path):
        cache, config, path = self._one_entry(tmp_path)
        other = cache.key_for(_configs(n=2)[1])
        target = cache.entry_path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        path.rename(target)
        assert cache.get(other) is None
        assert cache.stats_dict()["corrupt_entries"] == 1


class TestWriteOnce:
    def test_first_writer_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.put(key, {"entry": {"winner": 1}, "events": []})
        assert not cache.put(key, {"entry": {"winner": 2},
                                   "events": []})
        assert cache.get(key)["entry"] == {"winner": 1}
        assert cache.stats_dict()["store_races"] == 1

    def test_concurrent_writers_leave_one_untorn_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        payload = {"entry": {"metric": [float(i) for i in range(200)]},
                   "events": []}
        barrier = threading.Barrier(8)
        outcomes = []

        def race():
            barrier.wait()
            local = ResultCache(tmp_path)
            outcomes.append(local.put(key, payload))

        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count(True) == 1
        assert cache.entry_count() == 1
        # The surviving entry is complete and parses cleanly.
        assert cache.get(key) == payload

    def test_inf_round_trips_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "2" * 62
        payload = {"entry": {"metering_error": float("inf")},
                   "events": []}
        cache.put(key, payload)
        assert cache.get(key)["entry"]["metering_error"] == \
            float("inf")


class TestIndexAndEviction:
    def test_index_accumulates_across_instances(self, tmp_path):
        configs = _configs(n=2)
        first = ResultCache(tmp_path)
        run_batch(configs, workers=1, cache=first)
        first.write_index()
        first.write_index()  # repeat never double-counts
        second = ResultCache(tmp_path)
        run_batch(configs, workers=1, cache=second)
        second.write_index()
        index = read_index(tmp_path)
        assert index["schema"] == INDEX_SCHEMA
        assert index["entries"] == 2
        assert index["totals"]["stores"] == 2
        assert index["totals"]["misses"] == 2
        assert index["totals"]["hits"] == 2

    def test_damaged_index_resets_not_crashes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.index_path.write_text("not json")
        assert read_index(tmp_path) is None
        cache.write_index()
        assert read_index(tmp_path)["totals"]["hits"] == 0

    def test_prune_evicts_oldest_beyond_cap(self, tmp_path):
        import os
        cache = ResultCache(tmp_path)
        keys = [f"{i:02x}" + f"{i:x}" * 62 for i in range(4)]
        for age, key in enumerate(keys):
            cache.put(key, {"entry": {"n": age}, "events": []})
            path = cache.entry_path(key)
            os.utime(path, (1000.0 + age, 1000.0 + age))
        assert cache.prune(2) == 2
        assert cache.entry_count() == 2
        assert cache.get(keys[0]) is None  # oldest gone
        assert cache.get(keys[3]) is not None  # newest kept
        assert cache.stats_dict()["evictions"] == 2
        with pytest.raises(ConfigurationError):
            cache.prune(-1)

    def test_hit_rate_helper(self):
        assert hit_rate({"hits": 3, "misses": 1}) == (3, 4, 0.75)
        assert hit_rate({}) == (0, 0, 0.0)


class TestServiceIntegration:
    def _serve(self, state_dir, cache_dir, spec):
        import asyncio

        from repro.service import (
            ServiceConfig,
            SessionService,
            submit_job,
        )
        from repro.service.jobs import JobRequest
        submit_job(state_dir, JobRequest(job_id="job-1", spec=spec))
        service = SessionService(ServiceConfig(
            state_dir=str(state_dir), workers=1,
            until_idle=True, fsync_journal=False,
            cache_dir=str(cache_dir)))
        summary = asyncio.run(service.serve())
        assert summary["jobs"]["done"] == 1
        result = json.loads(
            (state_dir / "results" / "job-1.json").read_text())
        return service, result

    def test_cached_job_result_is_identical(self, tmp_path):
        spec = SessionSpec.from_config(
            _configs(n=1)[0]).to_json_dict()
        cache_dir = tmp_path / "cache"
        first, result_cold = self._serve(tmp_path / "a", cache_dir,
                                         spec)
        assert first.cache.stats_dict()["stores"] == 1
        second, result_warm = self._serve(tmp_path / "b", cache_dir,
                                          spec)
        stats = second.cache.stats_dict()
        assert stats["hits"] == 1
        assert stats["misses"] == 0
        assert result_warm == result_cold
        # Cache counters ride the service scrape surface.
        assert "cache.hits" in second.scrape_snapshot()["counters"]
        assert read_index(cache_dir)["totals"]["hits"] == 1
