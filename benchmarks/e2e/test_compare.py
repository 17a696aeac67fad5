import json

import pytest

import compare


def _runs(base, step=0.0):
    # Small alternating jitter around ``base``.
    return [base + step + (0.01 if i % 2 else -0.01) for i in range(10)]


def test_improved_when_change_wins_every_pair_beyond_the_iqr():
    assert compare.verdict(_runs(10.0), _runs(9.0), "lower", 0.1) == "improved"
    assert compare.verdict(_runs(10.0), _runs(11.0), "higher", 0.1) == (
        "improved"
    )


def test_regressed_beyond_the_bound():
    assert compare.verdict(_runs(10.0), _runs(11.5), "lower", 0.1) == (
        "regressed"
    )
    assert compare.verdict(_runs(10.0), _runs(8.5), "higher", 0.1) == (
        "regressed"
    )


def test_unchanged_within_the_bound():
    assert compare.verdict(_runs(10.0), _runs(10.3), "lower", 0.1) == (
        "unchanged"
    )


def test_unresolved_with_too_few_pairs_or_too_much_spread():
    assert compare.verdict([10.0] * 9, [5.0] * 9, "lower", 0.1) == (
        "unresolved"
    )
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, [v + 0.1 for v in noisy], "lower", 0.1) == (
        "unresolved"
    )


def test_one_sided_win_needs_nine_in_ten():
    parent = _runs(10.0)
    change = [9.0] * 8 + [11.0] * 2  # wins only 8 of 10
    assert compare.verdict(parent, change, "lower", 0.25) != "improved"


def test_unbounded_metric_regresses_by_the_mirrored_rule():
    assert compare.verdict(_runs(10.0), _runs(12.0), "lower", None) == (
        "regressed"
    )
    assert compare.verdict(_runs(10.0), _runs(10.0), "lower", None) == (
        "unchanged"
    )


SPEC = {
    "end_to_end": [
        {"name": "convert_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [],
}


def _record(value, seed, seconds=10, correct=True, failed=0, **extra):
    metrics = {"convert_ms": {"value": value, "unit": "ms"}}
    metrics.update(extra)
    return {
        "workload": "fig2-large", "trace": 0, "seed": seed,
        "seconds": seconds, "correct": correct, "attempted": 100,
        "failed": failed, "metrics": metrics,
    }


def _compare(tmp_path, parent, change):
    for name, records in (("p.jsonl", parent), ("c.jsonl", change)):
        with open(tmp_path / name, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
    return compare.compare(
        compare.load_runs(tmp_path / "p.jsonl"),
        compare.load_runs(tmp_path / "c.jsonl"),
        SPEC,
    )


def test_compare_pairs_runs_per_workload(tmp_path):
    rows = _compare(
        tmp_path,
        [_record(v, seed) for seed, v in enumerate(_runs(10.0))],
        [_record(v, seed) for seed, v in enumerate(_runs(12.0))],
    )
    assert [(r[0], r[2], r[3], r[6], r[7]) for r in rows] == [
        ("fig2-large", 10, "convert_ms", 10, "regressed")
    ]


def test_runs_pair_by_seed_not_by_file_order():
    # Each seed has its own cost; the change is 1% faster on every seed
    # but its file lists the seeds in another order.
    parent = [_record(10.0 + 5 * seed, seed) for seed in range(10)]
    change = [_record(0.99 * (10.0 + 5 * seed), seed)
              for seed in reversed(range(10))]
    # Paired by file order, half the pairs would be large losses.
    pairs = compare.pair_runs(parent, change)
    assert [p["seed"] for p, _c in pairs] == [c["seed"] for _p, c in pairs]
    wins = sum(c["metrics"]["convert_ms"]["value"]
               < p["metrics"]["convert_ms"]["value"] for p, c in pairs)
    assert wins == 10


def test_groups_split_by_run_length(tmp_path):
    parent = [_record(10.0, s) for s in range(10)]
    parent += [_record(10.0, s, seconds=3) for s in range(10)]
    change = [_record(10.0, s) for s in range(10)]
    change += [_record(20.0, s, seconds=3) for s in range(10)]
    rows = _compare(tmp_path, parent, change)
    assert [(r[1], r[2], r[-1]) for r in rows] == [
        (0, 3, "regressed"), (0, 10, "unchanged"),
    ]


def test_different_seeds_are_refused(tmp_path):
    parent = [_record(10.0, s) for s in range(10)]
    change = [_record(10.0, s) for s in range(1, 11)]
    with pytest.raises(compare.MismatchedRuns):
        _compare(tmp_path, parent, change)


def test_more_failures_regress_every_metric(tmp_path):
    parent = [_record(10.0, s) for s in range(10)]
    change = [_record(8.0, s) for s in range(10)]
    assert [r[-1] for r in _compare(tmp_path, parent, change)] == ["improved"]
    change[3] = _record(8.0, 3, failed=1)
    assert [r[-1] for r in _compare(tmp_path, parent, change)] == [
        "regressed"
    ]
    change[3] = _record(8.0, 3, correct=False)
    rows = _compare(tmp_path, parent, change)
    assert [(r[6], r[-1]) for r in rows] == [(9, "regressed")]


def test_daemon_layers_use_their_own_direction(tmp_path):
    def hit(value):
        return {"serve.cache_hit_ratio": {"value": value, "unit": "ratio",
                                          "better": "higher"}}

    parent = [_record(10.0, s, **hit(0.5)) for s in range(10)]
    change = [_record(10.0, s, **hit(0.9)) for s in range(10)]
    rows = {r[3]: r[-1] for r in _compare(tmp_path, parent, change)}
    assert rows["serve.cache_hit_ratio"] == "improved"
