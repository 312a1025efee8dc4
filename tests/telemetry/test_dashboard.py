"""Tests for the live TTY dashboard and its non-TTY fallback."""

import io
import math

import pytest

from repro.telemetry.dashboard import LiveDashboard, sparkline


class _TtyBuffer(io.StringIO):
    def isatty(self):
        return True


def _row(t, **kv):
    row = {"t": t, "rate.offered": 10.0, "rate.predicted": 9.0,
           "queue.device": 1.0, "pool.warm_idle": 3.0,
           "slo.burn_rate": 0.5, "hw.selected": 0.0}
    row.update(kv)
    return row


class TestFallbackMode:
    def test_plain_lines_no_ansi(self):
        buf = io.StringIO()
        dash = LiveDashboard(buf, fallback_every=2)
        for i in range(4):
            dash.on_sample(float(i), _row(float(i)))
        out = buf.getvalue()
        assert "\x1b" not in out
        assert out.count("[live]") == 2

    def test_fallback_line_contents(self):
        buf = io.StringIO()
        dash = LiveDashboard(
            buf, fallback_every=1, hardware_names={0: "p3.2xlarge"}
        )
        dash.on_sample(1.0, _row(1.0))
        line = buf.getvalue()
        assert "hw=p3.2xlarge" in line
        assert "rps=10" in line
        assert "warm=3" in line

    def test_failover_hardware_label(self):
        buf = io.StringIO()
        dash = LiveDashboard(buf, fallback_every=1)
        dash.on_sample(1.0, _row(1.0, **{"hw.selected": float("nan")}))
        assert "hw=(failover)" in buf.getvalue()


class TestTtyMode:
    def test_repaints_in_place_with_ansi(self):
        buf = _TtyBuffer()
        dash = LiveDashboard(buf, refresh_seconds=0.0)
        dash.on_sample(1.0, _row(1.0))
        dash.on_sample(2.0, _row(2.0))
        out = buf.getvalue()
        assert "\x1b[2K" in out          # clear-line on every repaint
        assert "\x1b[" in out and "F" in out  # cursor-up for the 2nd frame
        assert "serving" in out

    def test_finish_moves_past_panel(self):
        buf = _TtyBuffer()
        dash = LiveDashboard(buf, refresh_seconds=0.0)
        dash.on_sample(1.0, _row(1.0))
        dash.finish(1.0, _row(1.0))
        assert buf.getvalue().endswith("\n")

    def test_render_lines_panel_shape(self):
        dash = LiveDashboard(io.StringIO(), hardware_names={0: "p3.2xlarge"})
        dash.on_sample(1.0, _row(1.0))
        lines = dash.render_lines(1.0, _row(1.0))
        assert "serving p3.2xlarge" in lines[0]
        labels = "".join(lines[1:])
        for expected in ("offered rps", "queued reqs", "warm pool"):
            assert expected in labels


class TestRobustness:
    def test_broken_stream_disables_quietly(self):
        class Broken(io.StringIO):
            def write(self, *_):
                raise OSError("pipe closed")

        dash = LiveDashboard(Broken(), fallback_every=1)
        dash.on_sample(1.0, _row(1.0))  # must not raise
        assert dash._dead
        dash.on_sample(2.0, _row(2.0))  # no-op once dead
        dash.finish(2.0)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            LiveDashboard(io.StringIO(), width=2)

    def test_invalid_fallback_every_rejected(self):
        with pytest.raises(ValueError):
            LiveDashboard(io.StringIO(), fallback_every=0)


class TestSparkline:
    def test_scaled_to_the_largest_value(self):
        assert sparkline([0.0, 1.0, 2.0, 4.0, 8.0]) == " ▁▂▄█"

    def test_peak_sets_the_scale(self):
        assert sparkline([0.5, 1.0], peak=1.0) == "▄█"
        assert sparkline([0.5, 1.0], peak=2.0) == "▂▄"

    def test_nan_renders_as_space(self):
        assert sparkline([1.0, math.nan, 1.0]) == "█ █"
        assert sparkline([math.nan, math.nan]) == "  "
        assert sparkline([]) == ""

    def test_dashboard_panel_drops_nan_and_right_justifies(self):
        from repro.telemetry.dashboard import _spark

        assert _spark([1.0, math.nan, 2.0], width=5) == "   ▄█"
