"""Figure 4: evolution of reciprocity, density, diameter, clustering coefficient.

Paper shapes: reciprocity declines after the bootstrap phase (fastest after the
public release); social density rises through phase II and its growth breaks at
the public release; the social and attribute diameters track each other; the
clustering coefficient changes phase by phase.  The Section 3.3 distance
distribution has a dominant mode with ~90% of pairs within a 3-hop band.
"""

from repro.experiments import figure4_evolution, format_series
from repro.metrics import distance_distribution, distance_mode


def test_fig04_metric_evolution(benchmark, snapshots, evolution, write_result):
    result = benchmark.pedantic(
        figure4_evolution,
        args=(snapshots,),
        kwargs={"clustering_samples": 3000, "diameter_precision": 6, "rng": 7},
        rounds=1,
        iterations=1,
    )

    lines = []
    for key, series in result.items():
        lines.append(format_series(series, x_label="day", y_label=key, title=f"Figure 4 — {key}"))
        lines.append("")
    write_result("fig04_evolution", "\n".join(lines))

    phases = evolution.phases
    sizes = {day: san.number_of_social_nodes() for day, san in snapshots}
    reciprocity = result["reciprocity"]
    # The first crawl days cover only a handful of users; exclude degenerate
    # snapshots from the phase comparison (the paper's day 1 already has
    # millions of users).
    mature = [(day, value) for day, value in reciprocity if sizes[day] >= 100]
    phase2 = [v for day, v in mature if phases.phase_of(day) == 2]
    phase3 = [v for day, v in mature if phases.phase_of(day) == 3]
    # Reciprocity declines after the public release and ends below phase II.
    assert phase3 == sorted(phase3, reverse=True)
    assert phase3[-1] < max(phase2)
    assert all(0.0 <= value <= 1.0 for _, value in reciprocity)

    density = result["social_density"]
    assert all(value >= 0 for _, value in density)
    # Density grows during the stabilised phase.
    phase2_density = [(day, v) for day, v in density if phases.phase_of(day) == 2]
    assert phase2_density[-1][1] > phase2_density[0][1]

    # Social and attribute diameters stay in the same small-world band.
    social_diameter = dict(result["social_diameter"])
    attribute_diameter = dict(result["attribute_diameter"])
    for day, value in social_diameter.items():
        if day in attribute_diameter and value > 0:
            assert abs(attribute_diameter[day] - value) < max(3.0, value)

    clustering = result["social_clustering"]
    assert all(0.0 <= value <= 1.0 for _, value in clustering)


def test_sec33_distance_distribution(benchmark, reference_san, write_result):
    histogram = benchmark.pedantic(
        distance_distribution, args=(reference_san,), kwargs={"num_sources": 150, "rng": 3},
        rounds=1, iterations=1,
    )
    mode = distance_mode(histogram)
    total = sum(histogram.values())
    within_band = sum(count for dist, count in histogram.items() if abs(dist - mode) <= 1)
    write_result(
        "sec33_distance_distribution",
        "\n".join(f"distance {dist}: {count}" for dist, count in sorted(histogram.items()))
        + f"\nmode={mode} mass_within_1_hop_of_mode={within_band / total:.3f}",
    )
    # Small-world: a dominant mode at a small distance with most mass near it.
    assert 2 <= mode <= 8
    assert within_band / total > 0.5
