"""Golden union-suite digests for every registered model.

Each digest is the sha256 of ``TestSuite.to_json()`` of the union suite
that ``synthesize(model, SynthesisOptions(bound=B))`` returns: the
default (explicit) oracle and the model's default enumeration config,
which for ``sc_vmem``/``tso_vmem`` includes one virtual-to-physical
alias.  A suite is byte-identical across oracle, ``jobs``, cache state
and refactors, so a changed digest is a changed product, never noise.

Bound 2 and bound 3 both pin all 11 models.  The bound-3 runs take
about 10 s together on a 2-CPU machine, c11 (about 5 s) the longest.
Power at bound 4 (about 11 s) pins the explicit oracle on the model that
spends the most per execution: its ``ppo`` fixed point, and the derived
relations its axioms share.  ``bench/golden.json`` pins armv8:3 and
tso:3/4/5 for ``pytest bench``, and the two files must agree on every
key they share.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis import lint_trace_dir
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.models.registry import available_models, get_model
from repro.obs import summarize_trace_dir

GOLDEN = {
    "armv7:2": "adac57922f6ce956f44593bf028df21dc4bf993c5c869ddb6e182239caadfb9a",
    "armv8:2": "7588628363525ce133cc214fc8bde7b7451d735af91c52388a157ff8e60a1526",
    "c11:2": "98b3bdc019a85b974f44ba79f69a2675d1feaf13bf6e4b0e665d0698a876c25e",
    "opencl:2": "2220cde46df6d265516f37aa69bb1516351583983c936008763be3cb1b7658c1",
    "power:2": "fda0882893db1e0ff6070cd3326b937459206ab8198df26bc5289001e45c11a6",
    "rvwmo:2": "78eea46498a4111d81d172228900b4c76f1c7369b38769b03f63876c13ca931f",
    "sc:2": "5d1af29e28577bb2ebcab3ac2e9a1e36b2b28808b18b13626be78203bb1e2900",
    "sc_vmem:2": "e9cf8bfdcbfd5706398aa9b8b72c9ce4737f7f341824cd639d0a18cc075d2bb6",
    "scc:2": "073027242938e0e56c988a622cabc421507892922140aa59b775ef05ce0122b3",
    "tso:2": "d4903aae5498e7859e5caea631a7c643cb7d3a5bebc615db30a519d05eb5895c",
    "tso_vmem:2": "8057c86a2602ae7dcd12396ba3f85b6780288ec72d08933880e96832df433e03",
    "sc:3": "00cb71fd70f1997efd31e7994dd5333e0ad2a317add4a710b00d60bf9d567f0b",
    "tso:3": "8e422b01a06278fe459501b9570aa493e69ae0c0aa476c03f06ecc0e74d4d433",
    "scc:3": "07314e42481cf6a8081b744270c179d8c7b66b24fa4e51aadd9818d19bae0ade",
    "armv7:3": "7ffa9e8b5633be1b7c1902ecf2cc9d4327e6cbef63738b5329b6047d582cdf3a",
    "power:3": "adf9b977fc36d47c90ca85939c08236ce8c289b57c882a8781f299dcb676c98a",
    "sc_vmem:3": "28fda7aba481dd8da0d4af2f9473031b91a69787a59eb9c96a86dab4bf791c91",
    "tso_vmem:3": "64990cda610f9d36e053afe7c2c23cd217944571bdfcc6bc150821cb3d22a8d1",
    "armv8:3": "0761d2caa1c2cd90ebc0b640b7fc7f486c62970547311a79b1c0e3b0b442425a",
    "rvwmo:3": "bd1801973c96d8644143c4a5addb712c194cb555b95ea6db79c2bd39d589708c",
    "opencl:3": "defcf9b82a8fc043570f0861fe7c87b110540ca7ac417683198f6dad5d363e31",
    "c11:3": "8ae62686a4ba82e0f6afaa9dee961398421dc47c436c4df4e1a848eeb0536b65",
    "power:4": "629ffab9c3e4a0e86405d1eabbcc457c8ec655d2b731d668e57edd17d29b3c21",
}

BENCH_GOLDEN = Path(__file__).resolve().parents[2] / "bench" / "golden.json"


def union_digest(result) -> str:
    return hashlib.sha256(result.union.to_json().encode()).hexdigest()


@pytest.mark.parametrize("key", list(GOLDEN))
def test_union_suite_matches_its_digest(key):
    model, bound = key.split(":")
    result = synthesize(get_model(model), SynthesisOptions(bound=int(bound)))
    assert len(result.union) > 0
    assert union_digest(result) == GOLDEN[key]


def test_every_registered_model_is_pinned():
    for bound in (2, 3):
        pinned = {key.split(":")[0] for key in GOLDEN if key.endswith(f":{bound}")}
        assert pinned == set(available_models()), bound


def test_digests_shared_with_the_bench_agree():
    bench = json.loads(BENCH_GOLDEN.read_text(encoding="utf-8"))["suites"]
    shared = sorted(set(GOLDEN) & set(bench))
    assert shared
    for key in shared:
        assert GOLDEN[key] == bench[key], key


def test_sharded_traced_vmem_run_matches_its_digest(tmp_path):
    # jobs > 1 fans the enhanced candidate stream out to shard children;
    # tracing observes it without changing the suite
    trace_dir = str(tmp_path)
    result = synthesize(
        get_model("sc_vmem"),
        SynthesisOptions(bound=3, jobs=2, trace_dir=trace_dir),
    )
    assert union_digest(result) == GOLDEN["sc_vmem:3"]
    assert list(lint_trace_dir(trace_dir)) == []
    phases = summarize_trace_dir(trace_dir)["phases"]
    assert phases
    for phase in phases:
        assert isinstance(phase.get("wall"), (int, float)), phase
