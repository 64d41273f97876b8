"""The public API surface stays importable and coherent."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_one_serving_front_door(self):
        """One design serves as one ``GroupSpec``; the bare pool and its
        session-wide batching knobs are gone."""
        import inspect

        import repro.serving
        from repro.serving import serve_trace

        for module in (repro, repro.serving):
            assert not [n for n in module.__all__ if "pool" in n.lower()]
        params = inspect.signature(serve_trace).parameters
        assert not {"policy", "batch_window_ms", "max_batch"} & set(params)

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet_runs(self):
        """The README / module docstring quickstart must stay valid."""
        from repro import Customization, FCad, build_codec_avatar_decoder, get_device

        result = FCad(
            network=build_codec_avatar_decoder(),
            device=get_device("Z7045"),
            quant="int8",
            customization=Customization(
                batch_sizes=(1, 2, 2), priorities=(1.0, 1.0, 1.0)
            ),
        ).run(iterations=2, population=10, seed=0)
        assert "F-CAD" in result.render()

    @pytest.mark.parametrize(
        "module",
        [
            "repro.ir",
            "repro.frontend",
            "repro.profiler",
            "repro.models",
            "repro.runtime",
            "repro.quant",
            "repro.arch",
            "repro.analysis",
            "repro.construction",
            "repro.perf",
            "repro.dse",
            "repro.baselines",
            "repro.sim",
            "repro.devices",
            "repro.fcad",
            "repro.experiments",
            "repro.utils",
        ],
    )
    def test_subpackages_import(self, module):
        importlib.import_module(module)

    def test_subpackage_all_exports_resolve(self):
        for module_name in (
            "repro.ir",
            "repro.dse",
            "repro.perf",
            "repro.sim",
            "repro.baselines",
            "repro.devices",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name}"
