"""The method registry: listing, capabilities, and failure modes."""

import pytest

from repro.bench.runner import METHODS
from repro.errors import QueryError, ReproError, UnknownMethodError
from repro.plan import (MethodSpec, approx_candidates, ensure_accuracy,
                        ensure_known, get_method, method_names,
                        register_method)


class TestListing:
    def test_canonical_order(self):
        assert method_names() == ("Basic", "BCL", "BCLP", "GBL", "GBC",
                                  "GBC-NH", "GBC-NB", "GBC-NW", "approx")

    def test_bench_runner_methods_is_the_registry(self):
        assert METHODS == method_names()

    def test_every_listed_method_resolves(self):
        for name in method_names():
            spec = get_method(name)
            assert spec.name == name
            assert callable(spec.runner)

    def test_approx_candidates_are_the_sampling_tier(self):
        names = [spec.name for spec in approx_candidates()]
        assert names == ["approx"]
        spec = approx_candidates()[0]
        assert spec.approximate
        assert spec.rates is not None


class TestCapabilities:
    def test_basic_cannot_pin_a_layer(self):
        assert not get_method("Basic").supports_layer

    def test_device_methods_report_metrics(self):
        for name in ("GBL", "GBC", "GBC-NH"):
            assert get_method(name).instrumented_metrics
        for name in ("Basic", "BCL", "BCLP"):
            assert not get_method(name).instrumented_metrics

    def test_priced_methods_and_their_rates(self):
        """Basic and the ablation variants are unpriced; the count_root
        methods share one rate table; every rate is positive."""
        priced = {name for name in method_names()
                  if get_method(name).rates is not None}
        assert priced == {"BCL", "BCLP", "GBL", "GBC", "approx"}
        scalar = get_method("BCL").rates
        assert get_method("BCLP").rates is scalar
        assert get_method("approx").rates is scalar
        for name in priced:
            rates = get_method(name).rates
            assert set(rates) == {"sim", "fast", "native"}
            assert all(rate > 0 for rate in rates.values())

    def test_gbc_needs_htb_state(self):
        assert "htb" in get_method("GBC").prepared_kinds
        assert "htb" not in get_method("BCL").prepared_kinds

    def test_variant_default_options(self):
        from repro.core.gbc import gbc_variant

        assert get_method("GBC-NH").default_options() == gbc_variant("NH")
        assert get_method("GBC").default_options is None


class TestFailureModes:
    def test_unknown_method_raises_named_error(self):
        with pytest.raises(UnknownMethodError, match="FOO"):
            get_method("FOO")

    def test_unknown_method_error_is_query_and_value_error(self):
        assert issubclass(UnknownMethodError, QueryError)
        assert issubclass(UnknownMethodError, ValueError)
        assert issubclass(UnknownMethodError, ReproError)

    def test_auto_is_not_a_method(self):
        with pytest.raises(UnknownMethodError):
            get_method("auto")

    def test_ensure_known_gates_auto(self):
        assert ensure_known("GBC") == "GBC"
        assert ensure_known("auto", allow_auto=True) == "auto"
        with pytest.raises(UnknownMethodError):
            ensure_known("auto")

    def test_double_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_method(MethodSpec(name="GBC", runner=lambda *a: None))

    def test_ensure_accuracy(self):
        for tier in ("exact", "approx", "auto"):
            assert ensure_accuracy(tier) == tier
        with pytest.raises(QueryError, match="accuracy"):
            ensure_accuracy("fuzzy")


class TestRegistrationImports:
    """The counter modules are imported once per process, not on every
    lookup: ``ensure_known`` runs on every ``Scheduler.submit``."""

    def test_second_lookup_imports_nothing(self, monkeypatch):
        import importlib

        ensure_known("GBC")
        calls = []
        real = importlib.import_module

        def counting(name, package=None):
            calls.append(name)
            return real(name, package)

        monkeypatch.setattr(importlib, "import_module", counting)
        assert ensure_known("GBC") == "GBC"
        assert calls == []

    def test_custom_method_registered_afterwards_resolves(self,
                                                           monkeypatch):
        import repro.plan.registry as registry

        ensure_known("GBC")
        # a private copy, so the canonical listing above stays intact
        monkeypatch.setattr(registry, "_REGISTRY",
                            dict(registry._REGISTRY))
        spec = register_method(MethodSpec(name="custom-late",
                                          runner=lambda *a, **k: None))
        assert ensure_known("custom-late") == "custom-late"
        assert get_method("custom-late") is spec
        assert "custom-late" in method_names()

    def test_failed_import_is_retried(self, monkeypatch):
        import importlib

        import repro.plan.registry as registry

        monkeypatch.setattr(registry, "_core_registered", False)
        real = importlib.import_module
        planted = []

        def fails_once(name, package=None):
            if not planted:
                planted.append(name)
                raise ImportError(f"planted failure importing {name}")
            return real(name, package)

        monkeypatch.setattr(importlib, "import_module", fails_once)
        with pytest.raises(ImportError, match="planted"):
            ensure_known("GBC")
        assert not registry._core_registered
        assert ensure_known("GBC") == "GBC"
        assert registry._core_registered
