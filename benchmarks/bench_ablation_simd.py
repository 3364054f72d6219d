"""Ablation: SIMD channel alignment (Section V-B).

"The vectorization works best when the number of channels is a multiple of
the SIMD vector width ... wider vectors will not necessarily result in
higher performance" — the lane efficiency model swept over C for
4/8/16-wide vectors.
"""

from _util import print_series

from repro.perfmodel.vectorization import (
    best_simd_width,
    simd_channel_efficiency,
)


def test_ablation_simd_channel_alignment(benchmark):
    channels = list(range(4, 25))

    table = benchmark(
        lambda: {
            c: {w: simd_channel_efficiency(c, w) for w in (4, 8, 16)}
            for c in channels
        }
    )
    rows = [
        (c, table[c][4], table[c][8], table[c][16], best_simd_width(c))
        for c in channels
    ]
    print_series(
        "Ablation: SIMD lane efficiency vs channel count (Section V-B)",
        ["channels", "width 4", "width 8", "width 16", "best width"],
        rows,
    )
    # the paper's benchmark has 16 channels: every width is fully efficient,
    # widest wins
    assert table[16] == {4: 1.0, 8: 1.0, 16: 1.0}
    assert best_simd_width(16) == 16
    # but e.g. 12 channels favour narrower vectors
    assert best_simd_width(12) == 4
    assert table[12][16] < table[12][4]
    # efficiency dips right after each multiple of the width
    assert table[17][16] < 0.6
