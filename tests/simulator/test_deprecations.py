"""Keyword-only constructor tails across the framework.

The telemetry-injection redesign made ``tracer`` (and its neighbours)
keyword-only across the framework.  The old positional call shapes were
kept working for one release behind ``DeprecationWarning`` shims; that
release has passed, the shims are gone, and positional use is now a
plain ``TypeError``.  These tests pin both halves of the final contract:
positional tails raise, keyword forms are silent.
"""

import warnings

import pytest

from repro.core.autoscaler import Autoscaler
from repro.core.predictor import EWMAPredictor
from repro.framework.slo import SLO
from repro.framework.system import ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.chaos import ChaosEngine, ChaosHooks, ChaosSpec, PeriodicOutage
from repro.simulator.cluster import Cluster
from repro.simulator.engine import Simulator
from repro.telemetry import NULL_TRACER, Tracer


class TestSimulatorKeywordOnly:
    def test_positional_profiler_is_typeerror(self):
        class Prof:
            def push_site(self, fn):
                pass

            def pop(self):
                pass

        with pytest.raises(TypeError):
            Simulator(0.0, Prof())

    def test_keyword_profiler_is_silent(self):
        class Prof:
            def __init__(self):
                self.n = 0

            def push_site(self, fn):
                self.n += 1

            def pop(self):
                pass

        prof = Prof()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = Simulator(0.0, profiler=prof)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert prof.n == 1


class TestClusterKeywordOnly:
    def test_positional_tracer_is_typeerror(self):
        profiles = ProfileService()
        with pytest.raises(TypeError):
            Cluster(
                Simulator(), profiles.catalog, profiles.interference, 0,
                Tracer(),
            )

    def test_tracer_keyword_is_typeerror(self):
        # Lease events reach the tracer through the observer bundle the
        # leasing run hands to ``acquire``; the cluster takes no tracer.
        profiles = ProfileService()
        with pytest.raises(TypeError):
            Cluster(
                Simulator(), profiles.catalog, profiles.interference, 0,
                tracer=Tracer(),
            )


class TestChaosEngineKeywordOnly:
    def _make(self, *tail, **kw):
        return ChaosEngine(
            Simulator(),
            ChaosSpec(faults=(PeriodicOutage(120.0, 60.0),)),
            ChaosHooks(),
            *tail,
            **kw,
        )

    def test_positional_horizon_is_typeerror(self):
        with pytest.raises(TypeError):
            self._make(250.0)

    def test_positional_horizon_and_tracer_is_typeerror(self):
        with pytest.raises(TypeError):
            self._make(250.0, Tracer())

    def test_keyword_form_is_silent(self):
        tracer = Tracer()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inj = self._make(horizon=100.0, tracer=tracer)
        assert inj.horizon == 100.0
        assert inj.tracer is tracer


class TestServerlessRunKeywordOnly:
    def _args(self):
        from repro.experiments.schemes import make_policy
        from repro.workloads.models import get_model
        from repro.workloads.traces import constant_trace

        model = get_model("resnet50")
        profiles = ProfileService()
        slo = SLO()
        trace = constant_trace(5.0, 5.0)
        policy = make_policy(
            "paldia", model, profiles, slo.target_seconds, trace
        )
        return model, trace, policy, profiles, slo

    def test_positional_sim_is_typeerror(self):
        model, trace, policy, profiles, slo = self._args()
        with pytest.raises(TypeError):
            ServerlessRun(model, trace, policy, profiles, slo, None, Simulator())

    def test_positional_tracer_tail_is_typeerror(self):
        model, trace, policy, profiles, slo = self._args()
        with pytest.raises(TypeError):
            ServerlessRun(
                model, trace, policy, profiles, slo, None, None, None, Tracer()
            )

    def test_keyword_form_is_silent(self):
        model, trace, policy, profiles, slo = self._args()
        sim = Simulator()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = ServerlessRun(
                model, trace, policy, profiles, slo, sim=sim, tracer=None
            )
        assert run.sim is sim
        assert run.tracer is NULL_TRACER


class TestAutoscalerTracer:
    def _make(self, **kw):
        from repro.workloads.models import get_model

        return Autoscaler(
            model=get_model("resnet50"),
            profiles=ProfileService(),
            predictor=EWMAPredictor(),
            slo_seconds=0.2,
            **kw,
        )

    def test_constructor_injection(self):
        tracer = Tracer()
        assert self._make(tracer=tracer).tracer is tracer

    def test_defaults_to_null_tracer(self):
        assert self._make().tracer is NULL_TRACER

    def test_tracer_is_keyword_only(self):
        from repro.workloads.models import get_model

        with pytest.raises(TypeError):
            Autoscaler(
                get_model("resnet50"), ProfileService(), EWMAPredictor(),
                0.2, 600.0, 10.0, 1.0, Tracer(),
            )

    def test_post_hoc_assignment_still_works(self):
        scaler = self._make()
        tracer = Tracer()
        scaler.tracer = tracer
        assert scaler.tracer is tracer
