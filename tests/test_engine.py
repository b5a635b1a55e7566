"""Engine package: fingerprints, model cache, sessions, variants."""

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import corners, montecarlo
from repro.analysis.sensitivity import PARAMETERS, sensitivity
from repro.core.idd import idd7_mixed
from repro.devices import build_device, ddr3_2g_55nm
from repro.engine import (
    EvaluationSession,
    ModelCache,
    Variant,
    canonical_form,
    ensure_session,
    evaluate_many,
    fingerprint,
    scaling,
)
from repro.description.dram import scaled_value
from repro.errors import DescriptionError, ModelError
from repro.technology.roadmap import nodes

#: One dotted path per Table-I parameter group, to prove each group
#: participates in the cache key.
TABLE_I_PATHS = [
    "technology.c_bitline",
    "technology.c_cell",
    "technology.c_wire_signal",
    "technology.tox_logic",
    "technology.cj_logic",
    "technology.w_sa_n",
    "technology.w_swd_n",
    "technology.w_cell",
    "voltages.vint",
    "voltages.vpp",
    "voltages.vbl",
    "constant_current",
]


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        assert fingerprint(ddr3_2g_55nm()) == fingerprint(ddr3_2g_55nm())

    def test_stable_across_nodes(self):
        first = {node: fingerprint(build_device(node))
                 for node in (170, 55, 18)}
        second = {node: fingerprint(build_device(node))
                  for node in (170, 55, 18)}
        assert first == second

    def test_distinct_devices_differ(self):
        keys = {fingerprint(build_device(node))
                for node in (170, 110, 55, 18)}
        assert len(keys) == 4

    @pytest.mark.parametrize("path", TABLE_I_PATHS)
    def test_any_table_i_change_changes_key(self, ddr3_device, path):
        perturbed = ddr3_device.scale_path(path, 1.01)
        assert fingerprint(perturbed) != fingerprint(ddr3_device)

    @pytest.mark.parametrize("parameter", PARAMETERS,
                             ids=lambda parameter: parameter.name)
    def test_every_sensitivity_parameter_changes_key(self, ddr3_device,
                                                     parameter):
        perturbed = parameter.apply(ddr3_device, 1.05)
        assert fingerprint(perturbed) != fingerprint(ddr3_device)

    def test_logic_block_change_changes_key(self, ddr3_device):
        perturbed = Variant().scaled_logic("n_gates", 2.0)(ddr3_device)
        assert fingerprint(perturbed) != fingerprint(ddr3_device)

    def test_canonical_form_tags_types(self):
        assert canonical_form(1) != canonical_form(1.0)
        assert canonical_form(1) != canonical_form("1")
        assert canonical_form(True) != canonical_form(1)
        assert canonical_form(None) != canonical_form("")

    def test_canonical_form_sorts_mappings(self):
        assert canonical_form({"a": 1, "b": 2}) == \
            canonical_form({"b": 2, "a": 1})

    def test_unfingerprintable_value_raises(self):
        with pytest.raises(ModelError):
            canonical_form(object())


class TestModelCache:
    def test_hit_returns_identical_model_and_events(self, ddr3_device):
        cache = ModelCache()
        first = cache.model(ddr3_device)
        again = cache.model(ddr3_device)
        assert again is first
        assert again.events is first.events

    def test_equal_value_different_object_hits(self):
        cache = ModelCache()
        first = cache.model(ddr3_2g_55nm())
        again = cache.model(ddr3_2g_55nm())
        assert again is first
        assert cache.stats().hits == 1

    def test_lru_eviction_at_capacity(self):
        cache = ModelCache(capacity=2)
        devices = [build_device(node) for node in (170, 110, 55)]
        for device in devices:
            cache.model(device)
        stats = cache.stats()
        assert stats.size == 2
        assert stats.evictions == 1
        # 170 nm was least recently used: rebuilding it must miss.
        cache.model(devices[0])
        assert cache.stats().misses == 4

    def test_lru_order_refreshes_on_hit(self):
        cache = ModelCache(capacity=2)
        old, mid, new = [build_device(node) for node in (170, 110, 55)]
        cache.model(old)
        cache.model(mid)
        cache.model(old)          # refresh: now `mid` is the LRU entry
        cache.model(new)          # evicts `mid`
        kept = cache.model(old)
        assert cache.stats().hits == 2
        assert kept is not None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ModelError):
            ModelCache(capacity=0)

    def test_clear_keeps_counters(self, ddr3_device):
        cache = ModelCache()
        cache.model(ddr3_device)
        cache.clear()
        stats = cache.stats()
        assert stats.size == 0
        assert stats.misses == 1

    def test_stats_snapshot_fields(self, ddr3_device):
        cache = ModelCache()
        cache.model(ddr3_device)
        cache.model(ddr3_device)
        stats = cache.stats()
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        assert stats.build_seconds > 0.0
        assert "hit-rate=50.0%" in str(stats)


class TestEvaluationSession:
    def test_evaluate_matches_direct_model(self, ddr3_device,
                                           ddr3_model):
        session = EvaluationSession()
        result = session.evaluate(ddr3_device)
        assert result.power == ddr3_model.pattern_power(None).power

    def test_map_parallel_equals_serial_bit_for_bit(self, ddr3_device):
        devices = [ddr3_device.scale_path("technology.c_bitline",
                                          1.0 + 0.01 * step)
                   for step in range(8)]
        serial = EvaluationSession().map(
            devices, lambda model: idd7_mixed(model).power)
        threaded = EvaluationSession().map(
            devices, lambda model: idd7_mixed(model).power, jobs=2)
        assert threaded == serial

    def test_map_rejects_nonpositive_jobs(self, ddr3_device):
        session = EvaluationSession()
        with pytest.raises(ModelError):
            session.map([ddr3_device], lambda model: model, jobs=0)

    def test_map_devices_hands_descriptions(self, ddr3_device):
        session = EvaluationSession()
        names = session.map_devices([ddr3_device],
                                    lambda device: device.name)
        assert names == [ddr3_device.name]

    def test_repeated_sweep_has_nonzero_hit_rate(self, ddr3_device):
        session = EvaluationSession()
        sensitivity(ddr3_device, session=session)
        sensitivity(ddr3_device, session=session)
        assert session.stats.hit_rate > 0.0

    def test_evaluate_many_one_shot(self, ddr3_device):
        powers = evaluate_many([ddr3_device],
                               lambda model: idd7_mixed(model).power)
        assert powers[0] > 0.0

    def test_ensure_session_passthrough(self):
        session = EvaluationSession()
        assert ensure_session(session) is session
        assert ensure_session(None) is not session


class TestVariant:
    def test_scaling_matches_scale_path(self, ddr3_device):
        variant = scaling(["technology.c_bitline"], 1.2)
        by_hand = ddr3_device.scale_path("technology.c_bitline", 1.2)
        assert variant(ddr3_device) == by_hand

    def test_deltas_apply_in_order(self, ddr3_device):
        variant = (Variant().scaled("voltages.vdd", 2.0)
                   .scaled("voltages.vdd", 0.5))
        assert variant(ddr3_device).voltages.vdd == \
            ddr3_device.voltages.vdd

    def test_logic_clamps(self, ddr3_device):
        dense = Variant().scaled_logic("layout_density", 50.0)
        for block in dense(ddr3_device).logic_blocks:
            assert block.layout_density <= 1.0
        tiny = Variant().scaled_logic("n_gates", 1e-9)
        for block in tiny(ddr3_device).logic_blocks:
            assert block.n_gates == 1

    def test_merged_and_labels(self):
        left = scaling(["voltages.vdd"], 1.1, label="vdd")
        right = scaling(["voltages.vpp"], 1.1, label="vpp")
        both = left.merged(right)
        assert both.label == "vdd+vpp"
        assert len(both.deltas) == 2
        assert both.labelled("slow").label == "slow"

    def test_empty_variant_is_falsy_identity(self, ddr3_device):
        empty = Variant()
        assert not empty
        assert empty(ddr3_device) == ddr3_device

    def test_variant_is_validated_as_a_whole(self, ddr3_device):
        # Raising vint above today's vdd is invalid on its own; raising
        # vdd afterwards makes the final description valid.  The folded
        # rebuild accepts it, equal to the order that is valid
        # delta by delta.
        vint_first = (Variant().scaled("voltages.vint", 1.5)
                      .scaled("voltages.vdd", 1.5))
        vdd_first = (Variant().scaled("voltages.vdd", 1.5)
                     .scaled("voltages.vint", 1.5))
        with pytest.raises(DescriptionError, match="cannot exceed vdd"):
            _delta_by_delta(vint_first, ddr3_device)
        folded = vint_first.apply(ddr3_device)
        assert folded == _delta_by_delta(vdd_first, ddr3_device)
        assert folded == vdd_first.apply(ddr3_device)
        assert fingerprint(folded) == fingerprint(
            _delta_by_delta(vdd_first, ddr3_device))

    def test_invalid_variant_raises_the_sequential_error(self, ddr3_device):
        # The first failing delta is named, although validating the
        # final technology would report c_bitline (declared earlier).
        variant = (Variant().with_value("technology.share_bl_wl", 1.5)
                   .scaled("technology.c_bitline", -1.0))
        with pytest.raises(DescriptionError) as sequential:
            _delta_by_delta(variant, ddr3_device)
        with pytest.raises(DescriptionError) as folded:
            variant.apply(ddr3_device)
        assert str(folded.value) == str(sequential.value)
        assert "share_bl_wl" in str(folded.value)

    @pytest.mark.parametrize("variant", [
        # burst_length 0 means "one prefetch"; the scale reads that.
        Variant().with_value("spec.burst_length", 0)
        .scaled("spec.burst_length", 2.0),
        # trcd 0 is derived from the trc in force when it is set.
        Variant().with_value("timing.trcd", 0.0)
        .scaled("timing.trc", 1.25),
        Variant().scaled("timing.trp", 0.0).scaled("timing.trc", 1.5),
    ])
    def test_normalised_values_replay_delta_by_delta(self, ddr3_device,
                                                     variant):
        expected = _delta_by_delta(variant, ddr3_device)
        assert variant.apply(ddr3_device) == expected

    def test_integer_paths_round_at_every_step(self, ddr3_device):
        # 8 → 9 → 10, where one rounding at the end would give 9.68.
        variant = (Variant().scaled("spec.n_misc_control", 1.1)
                   .scaled("spec.n_misc_control", 1.1)
                   .with_value("spec.burst_length", 8)
                   .scaled("spec.burst_length", 1.1)
                   .scaled("spec.burst_length", 1.1))
        folded = variant.apply(ddr3_device)
        assert folded == _delta_by_delta(variant, ddr3_device)
        assert folded.spec.n_misc_control == 10
        assert folded.spec.burst_length == 10

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_folded_apply_matches_delta_by_delta(self, data):
        base = _variant_base(data.draw(st.sampled_from(nodes())),
                             data.draw(st.sampled_from((4, 8, 16))))
        variant = Variant()
        pending = {}
        for _ in range(data.draw(st.integers(1, 12))):
            kind = data.draw(st.sampled_from(
                ("scale", "scale", "scale", "set", "logic", "call")))
            if kind == "logic":
                variant = variant.scaled_logic(
                    data.draw(st.sampled_from(_LOGIC_FIELDS)),
                    data.draw(_FACTORS))
                pending = None
                continue
            if kind == "call":
                variant = variant.transformed(
                    data.draw(st.sampled_from(_TRANSFORMS)))
                pending = None
                continue
            # Revisit a path already in the variant half of the time.
            seen = sorted(pending) if pending else []
            path = data.draw(st.sampled_from(seen) if seen and data.draw(
                st.booleans()) else st.sampled_from(_VARIANT_PATHS))
            current = (pending[path] if pending and path in pending
                       else base.get_path(path))
            if kind == "scale":
                factor = data.draw(_FACTORS)
                variant = variant.scaled(path, factor)
                value = scaled_value(path, current, factor)
            else:
                value = data.draw(st.sampled_from(
                    (0, current, scaled_value(path, current, 1.1),
                     scaled_value(path, current, 0.9))))
                variant = variant.with_value(path, value)
            if pending is not None:
                pending[path] = value
        _assert_matches_delta_by_delta(variant, base, pending)


def _delta_by_delta(variant, device):
    """The reference: every delta applied on its own, in order."""
    for delta in variant.deltas:
        device = delta.apply(device)
    return device


@functools.lru_cache(maxsize=None)
def _variant_base(node, io_width):
    return build_device(node, io_width=io_width)


#: Monte-Carlo, corner and sensitivity paths, integer ``spec`` paths,
#: the floorplan's array, timing fields that normalise a zero, and a
#: top-level scalar.
_VARIANT_PATHS = tuple(sorted(
    {path for table in (montecarlo._GROUP_PATHS, corners._GROUP_PATHS)
     for paths in table.values() for path in paths}
    | {"voltages.vdd", "voltages.vpp", "technology.tox_logic",
       "technology.w_cell", "technology.l_cell", "technology.share_bl_wl",
       "technology.bits_per_csl", "spec.col_bits", "spec.row_bits",
       "spec.bank_bits", "spec.prefetch", "spec.burst_length",
       "spec.io_width", "floorplan.array.bits_per_swl",
       "floorplan.array.bits_per_bitline", "floorplan.array.wl_pitch",
       "floorplan.array.width_sa_stripe", "timing.trc", "timing.trcd",
       "timing.trp", "constant_current"}))

#: Mostly small perturbations (most draws stay valid), now and then a
#: large one or a zero (which the spec and timing fields normalise).
_FACTORS = st.one_of(st.floats(0.8, 1.25), st.sampled_from(
    (0.0, 0.5, 0.9, 0.96, 1.0, 1.04, 1.1, 2.0)))

_LOGIC_FIELDS = ("n_gates", "layout_density", "toggle")


def _more_constant_current(device):
    return device.evolve(constant_current=device.constant_current + 1e-3)


def _lower_vpp(device):
    return device.evolve(voltages=device.voltages.with_levels(
        vpp=device.voltages.vpp * 0.9))


_TRANSFORMS = (_more_constant_current, _lower_vpp)


def _assert_matches_delta_by_delta(variant, base, pending):
    try:
        expected, expected_error = _delta_by_delta(variant, base), None
    except Exception as exc:  # compared with the other side below
        expected, expected_error = None, exc
    try:
        got, error = variant.apply(base), None
    except Exception as exc:  # compared with the other side below
        got, error = None, exc
    if expected_error is None:
        assert error is None, error
        assert got == expected
        assert fingerprint(got) == fingerprint(expected)
    elif error is not None:
        assert type(error) is type(expected_error)
        assert str(error) == str(expected_error)
    elif pending is not None:
        # Accepted as a whole although an intermediate state was
        # invalid: every path holds its final value and nothing else
        # moved (restoring the paths gives the base back).
        for path, value in pending.items():
            assert got.get_path(path) == value
        assert got.replace_paths(
            {path: base.get_path(path) for path in pending}) == base
