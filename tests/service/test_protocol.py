"""Wire-protocol round trips: requests, statuses, results."""

import json

import pytest

from repro.core.enumerator import EnumerationConfig
from repro.core.minimality import CriterionMode
from repro.core.synthesis import OracleSpec, SynthesisOptions, synthesize
from repro.models.registry import get_model
from repro.obs import load_report
from repro.service.protocol import (
    JobResult,
    JobState,
    JobStatus,
    SynthesisRequest,
    result_from_payload,
    result_to_payload,
)


def _request(**knobs) -> SynthesisRequest:
    return SynthesisRequest.build("tso", bound=3, **knobs)


class TestSynthesisRequest:
    def test_payload_round_trip(self):
        req = _request(
            axioms=["sc_per_loc"],
            mode=CriterionMode.EXACT,
            config=EnumerationConfig(max_events=3, max_addresses=1),
            oracle_spec=OracleSpec(oracle="relational", cnf_cache_dir="cnf"),
        )
        back = SynthesisRequest.from_payload(req.to_payload())
        # axioms normalize to a tuple on the way in, so compare the
        # canonical wire forms (which is also what the fingerprint sees)
        assert back.to_payload() == req.to_payload()
        assert back.fingerprint() == req.fingerprint()
        assert back.options.config == req.options.config
        assert back.options.mode is req.options.mode

    def test_fingerprint_is_content_derived_and_stable(self):
        a = _request(oracle_spec=OracleSpec(oracle="relational"))
        b = SynthesisRequest(
            "tso",
            SynthesisOptions(
                bound=3, oracle_spec=OracleSpec(oracle="relational")
            ),
        )
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != _request().fingerprint()
        assert (
            a.fingerprint()
            != SynthesisRequest.build(
                "sc", bound=3, oracle_spec=OracleSpec(oracle="relational")
            ).fingerprint()
        )

    def test_json_serializable(self):
        payload = _request(config=EnumerationConfig(max_events=3)).to_payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_local_only_candidates_rejected(self):
        req = SynthesisRequest(
            "tso", SynthesisOptions(bound=3, candidates=[])
        )
        with pytest.raises(ValueError, match="process-local"):
            req.to_payload()

    def test_local_only_progress_rejected(self):
        req = SynthesisRequest(
            "tso", SynthesisOptions(bound=3, progress_events=lambda e: None)
        )
        with pytest.raises(ValueError, match="process-local"):
            req.to_payload()

    def test_unknown_field_rejected(self):
        payload = _request().to_payload()
        payload["options"]["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            SynthesisRequest.from_payload(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("oracle", "relational"),
            ("incremental", False),
            ("cnf_cache_dir", "cnf"),
            ("prefilter", True),
        ],
    )
    def test_loose_oracle_keys_rejected(self, field, value):
        # Pre-1.2 clients sent the oracle knobs as loose option keys;
        # since 1.3 only the nested oracle_spec object is accepted.
        payload = _request().to_payload()
        del payload["options"]["oracle_spec"]
        payload["options"][field] = value
        with pytest.raises(ValueError, match="oracle_spec") as info:
            SynthesisRequest.from_payload(payload)
        assert field in str(info.value)

    @pytest.mark.parametrize(
        "field, value", [("incremental", False), ("prefilter", True)]
    )
    def test_removed_oracle_spec_fields_rejected(self, field, value):
        # The cold-solver and prefilter knobs left OracleSpec in 1.5; a
        # request still carrying them is refused, naming the field,
        # rather than run with the knob silently dropped.
        payload = _request(
            oracle_spec=OracleSpec(oracle="relational")
        ).to_payload()
        payload["options"]["oracle_spec"][field] = value
        with pytest.raises(ValueError, match="unknown oracle spec") as info:
            SynthesisRequest.from_payload(payload)
        assert field in str(info.value)

    def test_removed_reject_field_rejected(self):
        # The lint-based candidate filter left in 1.6; a request still
        # carrying its "reject" option is refused, naming the field.
        payload = _request().to_payload()
        assert "reject" not in payload["options"]
        payload["options"]["reject"] = "early-reject"
        with pytest.raises(ValueError, match="unknown synthesis option") as info:
            SynthesisRequest.from_payload(payload)
        assert "reject" in str(info.value)

    def test_missing_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            SynthesisRequest.from_payload({"options": {"bound": 3}})

    def test_report_envelope(self):
        report = _request().to_report()
        back = load_report(json.loads(json.dumps(report.to_json_dict())))
        assert back.schema_name == "synthesis-request"
        assert SynthesisRequest.from_payload(back.payload) == _request()


class TestJobStatus:
    def test_round_trip(self):
        status = JobStatus(
            job_id="job-0001",
            state=JobState.RUNNING.value,
            fingerprint="abc",
            model="tso",
            bound=4,
            clients=3,
            position=None,
            queue_seconds=0.25,
            worker=1,
            metrics={"compile_hits": 2},
        )
        back = JobStatus.from_payload(
            json.loads(json.dumps(status.to_payload()))
        )
        assert back == status

    def test_summary_mentions_dedup_clients(self):
        status = JobStatus(
            job_id="job-0001",
            state="queued",
            fingerprint="abc",
            model="tso",
            bound=4,
            clients=2,
            position=0,
        )
        text = status.summary()
        assert "clients=2" in text and "position=0" in text


class TestResultRoundTrip:
    def test_suites_reconstruct_byte_identical(self):
        result = synthesize(
            get_model("tso"),
            SynthesisOptions(
                bound=3,
                config=EnumerationConfig(max_events=3, max_addresses=1),
            ),
        )
        payload = json.loads(json.dumps(result_to_payload(result)))
        back = result_from_payload(payload)
        assert back.union.to_json() == result.union.to_json()
        assert set(back.per_axiom) == set(result.per_axiom)
        for name, suite in result.per_axiom.items():
            assert back.per_axiom[name].to_json() == suite.to_json()
        assert back.minimal_tests == result.minimal_tests
        assert back.oracle_stats == result.oracle_stats

    def test_job_result_round_trip(self):
        result = synthesize(
            get_model("tso"),
            SynthesisOptions(
                bound=2, config=EnumerationConfig(max_events=2)
            ),
        )
        job = JobResult(job_id="job-0001", state="done", result=result)
        back = JobResult.from_payload(
            json.loads(json.dumps(job.to_payload()))
        )
        assert back.result is not None
        assert back.result.union.to_json() == result.union.to_json()
        # v2: no per-axiom seconds, since one pass checks every axiom
        envelope = job.to_report().to_json_dict()
        assert envelope["schema"] == {"name": "job-result", "version": 2}
        assert set(envelope["payload"]["result"]) == {
            "model", "bound", "jobs", "shards", "candidates",
            "unique_candidates", "minimal_tests", "wall_seconds",
            "cpu_seconds", "oracle", "per_axiom", "union",
        }

    def test_failed_job_result_carries_error_only(self):
        job = JobResult(job_id="job-0002", state="failed", error="boom")
        back = JobResult.from_payload(job.to_payload())
        assert back.result is None
        assert back.error == "boom"
