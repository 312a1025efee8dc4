"""Tests for the ASCII timeline renderer."""

import pytest

from repro.analysis.timeline import (
    _NODE_CODES,
    hardware_timeline,
    node_code,
    node_codes,
    rate_sparkline,
    render_run_timeline,
)
from repro.core.paldia import PaldiaPolicy
from repro.framework.system import ServerlessRun
from repro.workloads.traces import azure_trace, constant_trace


class TestSparkline:
    def test_width(self):
        trace = constant_trace(10.0, 60.0)
        assert len(rate_sparkline(trace, width=40)) == 40

    def test_flat_trace_uniform(self):
        trace = constant_trace(10.0, 60.0)
        assert len(set(rate_sparkline(trace, width=20))) == 1

    def test_surge_shows_peak(self):
        trace = azure_trace(peak_rps=200.0, duration=300.0, seed=1)
        line = rate_sparkline(trace, width=60)
        assert "█" in line

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            rate_sparkline(constant_trace(1.0, 10.0), width=0)


class TestHardwareTimeline:
    @pytest.fixture(scope="class")
    def run_result(self, ):
        from repro.hardware.profiles import ProfileService
        from repro.framework.slo import SLO
        from repro.workloads.models import get_model

        model = get_model("resnet50")
        profiles = ProfileService()
        slo = SLO()
        trace = azure_trace(peak_rps=model.peak_rps, duration=120.0, seed=2)
        policy = PaldiaPolicy(model, profiles, slo.target_seconds)
        result = ServerlessRun(model, trace, policy, profiles, slo).execute()
        return result, trace

    def test_initial_node_recorded(self, run_result):
        result, _ = run_result
        assert result.switch_log[0][0] == 0.0

    def test_strip_width_and_alphabet(self, run_result):
        result, trace = run_result
        strip = hardware_timeline(result, trace.duration, width=50)
        assert len(strip) == 50
        assert set(strip) <= set("VKMc.?")

    def test_render_combines_both(self, run_result):
        result, trace = run_result
        out = render_run_timeline(result, trace, width=40)
        assert "offered rate" in out
        assert "serving node" in out

    def test_legend_derived_from_catalog(self, run_result):
        result, trace = run_result
        out = render_run_timeline(result, trace, width=40)
        assert "V=V100 K=K80 M=M60 c=CPU" in out


class TestNodeCodes:
    """The strip alphabet is derived from the hardware catalog."""

    def test_default_catalog_letters_stable(self):
        # The historical letters must survive the catalog derivation.
        assert _NODE_CODES == {
            "p3.2xlarge": "V",
            "p2.xlarge": "K",
            "g3s.xlarge": "M",
            "c6i.4xlarge": "c",
            "c6i.2xlarge": "c",
            "m4.xlarge": "c",
            "-": ".",
        }

    def test_gpu_code_is_device_initial(self):
        from repro.hardware.catalog import default_catalog

        cat = default_catalog()
        assert node_code(cat.get("p3.2xlarge")) == "V"
        assert node_code(cat.get("p2.xlarge")) == "K"

    def test_cpu_shapes_collapse_to_c(self):
        from repro.hardware.catalog import default_catalog

        for spec in default_catalog():
            if not spec.is_gpu:
                assert node_code(spec) == "c"

    def test_restricted_catalog(self):
        from repro.hardware.catalog import default_catalog

        cat = default_catalog().restricted(["p3.2xlarge", "m4.xlarge"])
        assert node_codes(cat) == {
            "p3.2xlarge": "V", "m4.xlarge": "c", "-": ".",
        }
