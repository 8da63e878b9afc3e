"""Content-addressed cache: key sensitivity and corruption handling.

The cache key must change whenever *anything* that determines a point's
result changes — any MachineConfig field (however deeply nested), any
sweep param, or the code fingerprint — and a damaged cache file must be
a miss (dropped and recomputed), never an error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.patterns import Collective, ReduceOp
from repro.config import RunnerConfig, pimnet_sim_system
from repro.config.presets import small_test_system, upmem_server
from repro.errors import ConfigurationError, ReproError, RunnerError
from repro.runner import (
    CACHE_VERSION,
    ResultCache,
    cache_key,
    canonical_json,
    canonicalize,
    code_fingerprint,
    key_prefix,
    run_experiment,
)

MACHINE = pimnet_sim_system()
CODE = "f" * 64


def _key(experiment_id, machine, params, code=CODE):
    return cache_key(key_prefix(experiment_id, machine, code), params)


def _leaf_paths(value, prefix=()):
    """Every (path, leaf) of numeric/str/bool fields in a dataclass tree."""
    out = []
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            out.extend(
                _leaf_paths(getattr(value, f.name), prefix + (f.name,))
            )
    elif isinstance(value, (bool, int, float, str)):
        out.append((prefix, value))
    return out


def _replace_at(value, path, new_leaf):
    """A copy of the dataclass tree with the leaf at ``path`` replaced."""
    if not path:
        return new_leaf
    field_name = path[0]
    return dataclasses.replace(
        value,
        **{
            field_name: _replace_at(
                getattr(value, field_name), path[1:], new_leaf
            )
        },
    )


LEAF_PATHS = [path for path, _ in _leaf_paths(MACHINE)]


def _candidates(leaf, delta=1):
    """Perturbed leaf values, most likely to pass config validation first.

    Validators constrain many fields (efficiencies in (0, 1], counts
    must be powers of two, ...), so several candidates are tried; a
    field where no candidate builds a valid config is skipped — it
    still participates in the key via the fields around it.
    """
    if isinstance(leaf, bool):
        return [not leaf]
    if isinstance(leaf, int):
        return [leaf * 2, leaf + delta, leaf // 2, leaf - delta]
    if isinstance(leaf, float):
        return [leaf / 2, leaf * 2, leaf + delta, leaf / (1 + delta)]
    return [leaf + "x" * delta]


def _mutated_machine(path, leaf, delta=1):
    for candidate in _candidates(leaf, delta):
        if candidate == leaf:
            continue
        try:
            return _replace_at(MACHINE, path, candidate)
        except ReproError:
            continue
    return None


class TestKeySensitivity:
    def test_every_machine_leaf_field_is_load_bearing(self):
        """Perturbing ANY leaf of the config tree must change the key."""
        base = _key("exp", MACHINE, {})
        tested = 0
        for path, leaf in _leaf_paths(MACHINE):
            machine = _mutated_machine(path, leaf)
            if machine is None:
                continue
            tested += 1
            assert _key("exp", machine, {}) != base, path
        # The tree has dozens of leaves; the sweep must cover most.
        assert tested >= 0.8 * len(LEAF_PATHS)

    @given(
        index=st.integers(min_value=0, max_value=len(LEAF_PATHS) - 1),
        delta=st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_numeric_field_perturbations_change_key(self, index, delta):
        path, base_leaf = _leaf_paths(MACHINE)[index]
        machine = _mutated_machine(path, base_leaf, delta)
        if machine is None:
            return  # no valid perturbation for this (field, delta)
        assert _key("exp", machine, {}) != _key(
            "exp", MACHINE, {}, code=CODE
        )

    _params = st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.integers(min_value=-(10**9), max_value=10**9),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=12),
            st.booleans(),
            st.none(),
        ),
        max_size=5,
    )

    @given(params=_params, extra=st.integers())
    @settings(max_examples=50, deadline=None)
    def test_any_param_change_changes_key(self, params, extra):
        base = _key("exp", MACHINE, params)
        changed = dict(params)
        changed["__extra__"] = extra
        assert _key("exp", MACHINE, changed) != base

    @given(params=_params)
    @settings(max_examples=50, deadline=None)
    def test_param_key_order_is_irrelevant(self, params):
        reversed_params = dict(reversed(list(params.items())))
        assert _key("exp", MACHINE, params) == _key(
            "exp", MACHINE, reversed_params, code=CODE
        )

    @given(
        value=st.recursive(
            st.one_of(
                st.integers(min_value=-(10**9), max_value=10**9),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=8),
                st.booleans(),
                st.none(),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(
                    st.text(min_size=1, max_size=6), children, max_size=4
                ),
            ),
            max_leaves=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_canonical_json_roundtrips_plain_json_values(self, value):
        # Canonicalization of an already-JSON value only erases dict
        # ordering and tuple/list distinction; equality of canonical
        # strings is the cache's notion of "same params".
        assert canonical_json(value) == canonical_json(
            json.loads(json.dumps(value))
        )

    def test_experiment_id_and_code_fingerprint_change_key(self):
        base = _key("exp", MACHINE, {"a": 1})
        assert _key("exp2", MACHINE, {"a": 1}) != base
        assert _key("exp", MACHINE, {"a": 1}, code="0" * 64) != base

    def test_default_code_fingerprint_is_used_when_omitted(self):
        assert cache_key(key_prefix("exp", MACHINE), {}) == _key(
            "exp", MACHINE, {}, code=code_fingerprint()
        )

    def test_unencodable_param_raises_instead_of_guessing(self):
        with pytest.raises(RunnerError):
            _key("exp", MACHINE, {"bad": object()})
        with pytest.raises(RunnerError):
            canonicalize(object())


#: Keys pinned byte for byte, as the SHA-256 of the whole payload's
#: canonical JSON gives them: a changed key orphans every warm cache
#: already on disk.
PINNED_CODE = "0123456789abcdef" * 4
PINNED_KEYS = [
    (
        "fig11",
        pimnet_sim_system(),
        {},
        "89ec127f1e566e7d5df09c66259787ddaf5dd768d8a89734501c4aa19fe296ba",
    ),
    (
        "fault_sweep",
        small_test_system(),
        {"seed": 7, "rate": 0.5, "trials": 40},
        "a3ef7eb781905d9bf66c6704a3ac82ea156e683e14ce9990095e855bf075695c",
    ),
    (
        "fig03",
        upmem_server(),
        {
            "collective": Collective.ALL_REDUCE,
            "op": ReduceOp.SUM,
            "dtype": np.dtype("int32"),
        },
        "52640b76bd530c296ebb439525f24ffa36b66928e8087448aaac25fce8ad5873",
    ),
    (
        "conformance",
        pimnet_sim_system(),
        {
            "shape": {
                "ranks": 2,
                "chips": [1, 2.5, None],
                "nested": {"b": True, "a": "x"},
            },
            "n": np.int64(3),
        },
        "1bfd3c77d86b186ff0686a5c92b8c39cee6716eb7cbe11062a7df728f7c0b4d0",
    ),
    (
        "exp",
        pimnet_sim_system(),
        {
            "by_op": {ReduceOp.MAX: 1, ReduceOp.SUM: 2},
            "dt": np.dtype("float64"),
        },
        "e51894f4ad27082be7189fba0aef37b90b1fbe1fe7ff4fbdf9d7584440d6074f",
    ),
]


class TestPinnedKeys:
    @pytest.mark.parametrize(
        "experiment_id, machine, params, expected",
        PINNED_KEYS,
        ids=[f"{case[0]}-{i}" for i, case in enumerate(PINNED_KEYS)],
    )
    def test_key_bytes_are_pinned(
        self, experiment_id, machine, params, expected
    ):
        assert _key(experiment_id, machine, params, PINNED_CODE) == expected

    def test_prefixed_key_is_the_hash_of_the_whole_payload(self):
        params = {"by_op": {ReduceOp.MAX: 1}, "n": 2}
        payload = canonical_json(
            {
                "cache_version": CACHE_VERSION,
                "code": PINNED_CODE,
                "experiment": "exp",
                "machine": MACHINE,
                "params": params,
            }
        )
        expected = hashlib.sha256(payload.encode()).hexdigest()
        assert _key("exp", MACHINE, params, PINNED_CODE) == expected


class TestCorruptionHandling:
    def _seeded_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = _key("exp", MACHINE, {"n": 1})
        path = cache.put("exp", key, {"answer": 42}, params={"n": 1})
        return cache, key, path

    def test_roundtrip(self, tmp_path):
        cache, key, _ = self._seeded_cache(tmp_path)
        hit, value = cache.get("exp", key)
        assert hit and value == {"answer": 42}
        assert cache.counters.hits == 1

    def test_absent_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        hit, value = cache.get("exp", "0" * 64)
        assert not hit and value is None
        assert cache.counters.misses == 1

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],  # truncated write
            lambda text: "not json at all {",  # garbage
            lambda text: "{}",  # schema missing
            lambda text: json.dumps({"cache_version": 999}),  # bad version
        ],
        ids=["truncated", "garbage", "no-schema", "wrong-version"],
    )
    def test_damaged_entry_is_a_miss_not_an_error(self, tmp_path, damage):
        cache, key, path = self._seeded_cache(tmp_path)
        path.write_text(damage(path.read_text()))
        hit, value = cache.get("exp", key)
        assert not hit and value is None
        assert cache.counters.corrupt == 1
        assert not path.exists(), "damaged entry must be dropped"
        # ... and the slot is rewritable afterwards.
        cache.put("exp", key, {"answer": 43})
        assert cache.get("exp", key) == (True, {"answer": 43})

    def test_entry_under_wrong_address_is_corrupt(self, tmp_path):
        cache, key, path = self._seeded_cache(tmp_path)
        other_key = _key("exp", MACHINE, {"n": 2})
        path.rename(cache.path_for("exp", other_key))
        hit, _ = cache.get("exp", other_key)
        assert not hit
        assert cache.counters.corrupt == 1

    def test_clear_reports_removed_count(self, tmp_path):
        cache, _, _ = self._seeded_cache(tmp_path)
        assert cache.clear() == 1
        assert cache.clear() == 0

    def test_stats_shape(self, tmp_path):
        cache, _, _ = self._seeded_cache(tmp_path)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["experiments"]["exp"]["entries"] == 1
        assert stats["experiments"]["exp"]["bytes"] > 0


class TestEndToEndCorruptionRecovery:
    def test_corrupt_point_is_recomputed_not_fatal(self, tmp_path):
        runner = RunnerConfig(cache_dir=str(tmp_path / "cache"))
        cold = run_experiment("table05", runner=runner)
        cache_files = list((tmp_path / "cache" / "table05").glob("*.json"))
        assert len(cache_files) == 1
        cache_files[0].write_text("truncated{")
        again = run_experiment("table05", runner=runner)
        assert again.cache_hits == 0 and again.cache_misses == 1
        assert again.format() == cold.format()
        warm = run_experiment("table05", runner=runner)
        assert warm.cache_hits == 1


class TestRunnerConfigValidation:
    def test_defaults_are_valid(self):
        config = RunnerConfig()
        assert config.jobs == 1 and config.cache_enabled

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_bad_jobs_rejected(self, jobs):
        with pytest.raises(ConfigurationError):
            RunnerConfig(jobs=jobs)

    @pytest.mark.parametrize(
        "timeout", [0.0, -5.0, float("nan"), float("inf")]
    )
    def test_bad_timeout_rejected(self, timeout):
        with pytest.raises(ConfigurationError):
            RunnerConfig(point_timeout_s=timeout)

    def test_empty_cache_dir_rejected(self):
        with pytest.raises(ConfigurationError):
            RunnerConfig(cache_dir="")
