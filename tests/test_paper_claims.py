"""The paper-claims gate: each config-form figure's qualitative result.

One check per figure, run at quick size through the same
``repro run NAME`` path a user drives (``quick_figure``): the inequalities
the paper's evaluation states — who wins where, what stays flat, what is
exact — rather than any particular number.
"""

from __future__ import annotations

import pytest


def _fig2(result):
    tag, sd, td = (result.rms[name] for name in ("TAG", "SD", "TD"))
    rates = list(result.loss_rates)
    # TAG exact at p=0, then degrades steeply: well over 2x SD at the top
    # rate, having crossed SD's flat curve by p=0.1.
    assert tag[0] == 0.0
    assert tag[-1] > 2 * sd[-1]
    assert tag[rates.index(0.1)] > sd[rates.index(0.1)]
    # SD stays near its ~12% approximation error across the sweep.
    assert max(sd) < 0.35
    # TD exact at p=0 and comparable-to-better than SD at the top rate.
    assert td[0] == 0.0
    assert td[-1] < tag[-1]
    assert td[-1] < 1.6 * sd[-1]


def _td_tracks_the_best_baseline(result):
    # At every rate TD is no worse than ~the best baseline (modulo noise).
    for index in range(len(result.loss_rates)):
        best = min(result.rms["TAG"][index], result.rms["SD"][index])
        assert result.rms["TD"][index] <= best + 0.12


def _fig5a(result):
    index_25 = list(result.loss_rates).index(0.25)
    # TAG monotone-degrading, far worse than SD by p=0.25.
    assert result.rms["TAG"][index_25] > 2 * result.rms["SD"][index_25]
    # The adaptive schemes are exact at p=0 (all-tree) like TAG.
    assert result.rms["TD"][0] == 0.0
    assert result.rms["TD-Coarse"][0] == 0.0
    _td_tracks_the_best_baseline(result)


def _fig5b(result):
    # Regional failures hurt the tree badly once the region is lossy.
    high = list(result.loss_rates).index(0.75)
    assert result.rms["TAG"][high] > result.rms["SD"][high]
    # TD keeps exact tree aggregation outside the failure region, so it
    # tracks (or beats) the best baseline across the sweep.
    _td_tracks_the_best_baseline(result)


def _fig6(result):
    phases = result.phase_means()
    tag, sd = phases["TAG"], phases["SD"]
    # TAG accurate in the quiet phases, bad in the global-loss phase.
    assert tag[0] < 0.05
    assert tag[2] > sd[2]
    # SD pays its approximation error even when quiet.
    assert sd[0] > 0.02
    # The adaptive schemes end the final quiet phase at (or below) TAG-quiet
    # levels once converged — compare their last-eighth tail.
    tail = len(result.epochs) // 8
    td_tail = result.relative_errors["TD"][-tail:]
    sd_tail = result.relative_errors["SD"][-tail:]
    assert sum(td_tail) / tail <= sum(sd_tail) / tail + 0.05


def _labdata(result):
    # Paper: TAG 0.5, SD 0.12, TD/TD-Coarse 0.1. Shape targets: TAG several
    # times worse than SD; the adaptive schemes near SD (they converge to
    # running synopsis diffusion over most of the lab's nodes).
    assert result.rms["TAG"] > 2 * result.rms["SD"]
    assert result.rms["TD"] <= result.rms["SD"] + 0.10
    assert result.rms["TD-Coarse"] <= result.rms["SD"] + 0.10
    assert result.delta_sizes["TD-Coarse"] >= 40  # most nodes multi-path


def _table1(result):
    count = {r.scheme: r for r in result.rows if r.aggregate == "Count"}
    # Every scheme transmits ~once per node ("minimal" messages).
    for row in count.values():
        assert row.messages_per_node <= 1.5
    # Tree suffers the largest communication error; its approximation error
    # is zero; multi-path is the reverse.
    assert count["TAG"].communication_error > count["SD"].communication_error
    assert count["TAG"].approximation_error <= 0.01
    assert count["SD"].approximation_error > 0.01
    # Tributary-Delta: multi-path-like communication error.
    assert count["TD"].communication_error < count["TAG"].communication_error
    # Frequent items: multi-path messages are larger than tree messages.
    items = {r.scheme: r for r in result.rows if r.aggregate == "Freq. Items"}
    assert items["SD"].mean_message_words > items["TAG"].mean_message_words


CLAIMS = {
    "fig2": _fig2,
    "fig5a": _fig5a,
    "fig5b": _fig5b,
    "fig6": _fig6,
    "labdata": _labdata,
    "table1": _table1,
}


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_paper_claim(quick_figure, name):
    CLAIMS[name](quick_figure(name))
