"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import causalproc as cp  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

HELD_OUT_SEED = 987654321


def span(name, start, end, parent, op="p0o0", nbytes=0, extra=None):
    return [name, start, end, parent, op, nbytes, extra]


def test_self_time_on_synthetic_tree():
    tree = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("a.x", 1.5, 2.0, 1),
        span("b", 5.0, 9.0, 0),
        span("b.y", 5.0, 6.0, 3),
        span("b.z", 8.0, 9.5, 3),  # runs past its parent: only the overlap counts
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.5, 0.5, 2.0, 1.0, 1.5])
    stats = spans.layer_stats(tree)
    assert stats["root"] == {"calls": 1, "self_s": pytest.approx(3.0), "bytes": 0, "extra": 0}
    assert spans.count_under(tree, "b.y", "root") == 1
    assert spans.count_under(tree, "a.x", "b") == 0


def test_merge_shifts_parents_and_build_time_counts_outermost_builds():
    merged = [span("exemplars.make_switch", 0.0, 2.0, None, "setup")]
    spans.merge(merged, [span("cli.main", 0.0, 5.0, None), span("exemplars.make_af", 1.0, 2.0, 0),
                         span("exemplars.make_af_deterministic", 1.2, 1.5, 1)])
    assert [s[spans.PARENT] for s in merged] == [None, None, 1, 2]
    assert spans.build_seconds(merged) == pytest.approx(3.0)
    assert "exemplars.make_switch" not in spans.layer_stats(merged, skip_op="setup")


def test_calls_outside_an_operation_are_not_traced():
    tracer = spans.Tracer()
    inc = tracer.wrap("x.inc", lambda v: v + 1)
    assert inc(1) == 2 and tracer.spans == []
    tracer.op = "p0o0"
    assert inc(1) == 2 and [s[spans.NAME] for s in tracer.spans] == ["x.inc"]


def test_percentile_and_sample_count_rule():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile([5, 1, 4, 2, 3, 6, 8, 7, 9, 10], 90) == 9


def _tiny_workload(tmp_path):
    sigma = cp.make_mix_example()
    keys = iter(range(10**6))

    def make_pass(ctx, rng):
        return [
            ops.Op("t:validate", lambda ctx: cp.validate_process(sigma), ops._validate_obs("mixture")),
            ops.Op("t:separability", lambda ctx: cp.bipartite_separability(sigma), lambda ctx, v: {"status": v.status}),
            ops.Op("t:comb_search", lambda ctx: cp.comb_search(sigma), ops._comb_obs),
            *ops._roundtrip_ops("t", f"t{next(keys)}", cp.make_switch(2)),
        ]

    ctx = ops.Context(tmp_path, {})
    wl = ops.Workload(lambda c, r: None, lambda c: None, make_pass, lambda c: make_pass(c, None))
    golden = {op.key: ops.plain(op.observe(ctx, op.run(ctx))) for op in make_pass(ctx, None)}
    return ctx, wl, golden


def test_golden_mismatch_and_exception_count_as_failures(tmp_path):
    ctx, wl, golden = _tiny_workload(tmp_path)
    ok = worker.run_phase(ctx, wl, 0, 1, golden)
    assert ok["failures"] == [] and ok["attempted"] == 5

    wrong = json.loads(json.dumps(golden))
    wrong["t:validate"]["valid"] = False
    wrong["t:validate"]["trace"] += 1e-3
    bad = worker.run_phase(ctx, wl, 0, 1, wrong)
    assert len(bad["failures"]) == 1 and bad["failures"][0].startswith("t:validate")

    del wrong["t:comb_search"]
    assert len(worker.run_phase(ctx, wl, 0, 1, wrong)["failures"]) == 2

    def raising(ctx, rng):
        return [ops.Op("t:validate", lambda ctx: 1 / 0, ops._comb_obs)]

    boom = worker.run_phase(ctx, ops.Workload(None, None, raising, None), 0, 1, golden)
    assert boom["failures"] and "ZeroDivisionError" in boom["failures"][0]


def test_numbers_match_within_stated_tolerance_only():
    assert ops.mismatches({"r": 1.0 + 1e-7}, {"r": 1.0}) == []
    assert ops.mismatches({"r": 1.0 + 1e-3}, {"r": 1.0})
    assert ops.mismatches({"r": 1e-12}, {"r": 0.0}) == []
    assert ops.mismatches({"n": 1}, {"n": True})
    assert ops.mismatches({"a": 1, "extra": 2}, {"a": 1})


def _inputs(seed):
    rng = np.random.default_rng(seed)
    return [
        inputs.permutation_chain(rng).process.op.matrix,
        inputs.permutation_chain(rng, inputs.FILE_SLOTS, inputs.FILE_MEMORY).process.op.matrix,
        inputs.permuted_switches(rng, 1)[0].op.matrix,
        inputs.rank_two_mixture(rng).op.matrix,
        inputs.haar_process(rng).op.matrix,
        inputs.dressed_pair(rng).op.matrix,
        inputs.hull_mixture(rng).table,
    ]


def test_generator_is_deterministic_per_seed():
    a, b, c = _inputs(3), _inputs(3), _inputs(4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not any(np.array_equal(x, y) for x, y in zip(a, c))


def test_held_out_seed_keeps_the_verdict_classes():
    rng = np.random.default_rng(HELD_OUT_SEED)
    mixture = inputs.rank_two_mixture(rng)
    assert cp.validate_process(mixture).valid
    assert np.sum(np.linalg.eigvalsh(mixture.op.matrix) > 1e-9) == 2
    haar = cp.validate_process(inputs.haar_process(rng))
    assert not haar.valid and haar.offending_types
    assert len(inputs.dressed_pair(rng).nodes) == 2
    assert cp.polytope_membership(inputs.hull_mixture(rng)).inside
    assert cp.validate_process(inputs.permutation_chain(rng).process).valid
    assert cp.validate_process(inputs.permutation_chain(rng, inputs.FILE_SLOTS, inputs.FILE_MEMORY).process).valid
    switch = cp.validate_process(inputs.permuted_switches(rng, 1)[0])
    assert switch.valid and switch.psd_method == "cholesky"


TRACED = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import numpy as np
import causalproc as cp, inputs, spans
t = spans.Tracer(); spans.install(t); t.op = "op"
sigma = cp.make_switch(2).process
cp.validate_process(sigma); cp.discover(sigma); cp.comb_search(sigma)
cp.bipartite_separability(inputs.dressed_pair(np.random.default_rng(0)))
cp.write_process_file({path!r}, sigma); cp.read_process_file({path!r})
st = spans.layer_stats(t.spans)
print(json.dumps({{k: [v["calls"], v["bytes"], v["extra"]] for k, v in st.items()}}, sort_keys=True))
print(spans.count_under(t.spans, "hs.project_trivial", "combs.comb_search"))
"""


def test_layer_counts_repeat_exactly_across_traced_runs(tmp_path):
    code = TRACED.format(here=str(HERE), src=str(HERE.parent / "src"), path=str(tmp_path / "s.json"))
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    counts = json.loads(outs[0].splitlines()[0])
    for name in ("labeled.partial_trace", "hs.project_trivial", "process.validate_process", "combs.comb_search",
                 "fileio.write_process_file", "fileio.dict_to_process", "channels.cptp_residuals"):
        assert counts[name][0] > 0, name
    assert counts["combs.bipartite_separability"][2] > 0  # iterations
    assert counts["fileio.write_process_file"][2] > 0  # bytes written
    assert int(outs[0].splitlines()[1]) > 0  # comb_search nodes


def test_benchmark_json_lists_what_the_worker_computes():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    e2e = {"setup_s", "wall_s", "latency_p50_s", "latency_p90_s", "peak_rss_mb"}
    assert {m["name"] for m in bench["end_to_end"]} == e2e
    fake = {"wall_s": 1.0, "latencies_s": [1.0], "keys": ["cli:x"], "cli_runtime_s": [0.5]}
    layers = worker.layer_metrics([span("labeled.product", 0, 1, None)], fake, fake, 0.0)
    assert {m["name"] for m in bench["per_layer"]} == set(layers)
