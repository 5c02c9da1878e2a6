import pytest

from pairs import benchmark_spec, summarise


def test_summary_of_fixed_runs():
    parent = [{"wall_s": w, "primary_per_s": r}
              for w, r in ((1.0, 100.0), (2.0, 300.0), (3.0, 200.0),
                           (4.0, 400.0))]
    change = [{"wall_s": w, "primary_per_s": r}
              for w, r in ((0.5, 150.0), (2.0, 350.0), (1.0, 100.0),
                           (5.0, 500.0))]
    out = summarise(parent, change,
                    {"wall_s": "lower", "primary_per_s": "higher"})
    wall = out["wall_s"]
    # numpy's linear quartiles of 1, 2, 3, 4 and of 0.5, 1, 2, 5
    assert wall["parent"] == {"q1": 1.75, "median": 2.5, "q3": 3.25,
                              "iqr": 1.5}
    assert wall["change"] == {"q1": 0.875, "median": 1.5, "q3": 2.75,
                              "iqr": 1.875}
    # lower is better: pairs 0 and 2 won, pair 1 tied, pair 3 lost
    assert (wall["wins"], wall["pairs"], wall["better"]) == (2, 4, "lower")
    assert wall["ratio"] == 1.5 / 2.5
    rate = out["primary_per_s"]
    assert rate["parent"]["median"] == 250.0
    assert rate["change"]["median"] == 250.0
    # higher is better: pairs 0, 1 and 3 won, pair 2 lost
    assert (rate["wins"], rate["ratio"]) == (3, 1.0)


def test_summary_needs_paired_runs():
    with pytest.raises(ValueError, match="equal"):
        summarise([{"wall_s": 1.0}], [], {"wall_s": "lower"})


def test_spec_follows_the_benchmark():
    seconds, sides = benchmark_spec()
    assert seconds == 20
    assert sides["wall_s"] == "lower"
    assert sides["primary_per_s"] == "higher"
    assert set(sides) == {"setup_s", "wall_s", "peak_rss_mb",
                          "primary_per_s", "secondary_per_s"}
