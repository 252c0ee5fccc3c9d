"""The paper-claims gate: each experiment's qualitative result.

One check per experiment, run at quick size through the same
``repro run NAME`` path a user drives (``quick_figure``): the inequalities
the paper's evaluation states — who wins where, what stays flat, what is
exact — rather than any particular number.
"""

from __future__ import annotations

import pytest

from repro.experiments.fig_fi_loss import FIG9_LOSS_RATES, run_figure9


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


def _fig4(result):
    mild, severe = result.panels
    # The delta leans into the failure quadrant ("the delta region expands
    # only in the direction of the failure region").
    assert mild.delta
    assert mild.concentration > 1.0
    assert severe.delta
    # The severe failure pulls in at least as much of the quadrant.
    assert severe.delta_inside >= mild.delta_inside * 0.8


def _our_tree_dominates(result):
    # Our construction dominates TAG's at (almost) every point.
    wins = sum(
        1 for ours, tag in zip(result.our_tree, result.tag_tree) if ours >= tag
    )
    assert wins >= len(result.parameters) - 1


def _fig7a(result):
    _our_tree_dominates(result)
    # Density helps: the densest point beats the sparsest for our tree.
    assert result.our_tree[-1] >= result.our_tree[0]


def _table2(result):
    # Exact reproduction of the paper's H(i) rows.
    assert result.te_profile == [37, 10, 6, 1]
    assert result.te_fractions[:3] == pytest.approx(
        [37 / 54, 47 / 54, 53 / 54]
    )
    assert result.t2_profile == [8, 4, 2, 1]
    # Both trees are 2-dominating (the property the table demonstrates).
    assert result.te_domination >= 2.0
    assert result.t2_domination >= 2.0


def _fig8(result):
    # LabData (bushy tree): Quantiles-based pays far more than the
    # epsilon-deficient summaries; Min Total-load is competitive with Min
    # Max-load even on max load.
    lab_q_avg, _ = result.loads("LabData", "Quantiles-based")
    lab_t_avg, lab_t_max = result.loads("LabData", "Min Total-load")
    lab_m_avg, lab_m_max = result.loads("LabData", "Min Max-load")
    lab_h_avg, lab_h_max = result.loads("LabData", "Hybrid")
    assert lab_q_avg > 3 * max(lab_t_avg, lab_m_avg, lab_h_avg)
    assert lab_t_max <= 1.5 * lab_m_max
    # Hybrid: within a factor 2 of the best on both metrics.
    assert lab_h_avg <= 2 * min(lab_t_avg, lab_m_avg) + 2
    assert lab_h_max <= 2 * min(lab_t_max, lab_m_max) + 2
    # Synthetic disjoint-uniform stream: Min Total-load's average (= total)
    # load is roughly half of Min Max-load's.
    syn_t_avg, _ = result.loads("Synthetic", "Min Total-load")
    syn_m_avg, _ = result.loads("Synthetic", "Min Max-load")
    assert syn_t_avg < 0.75 * syn_m_avg


def _fig9a(result):
    tag, sd, td = (result.false_negatives[n] for n in ("TAG", "SD", "TD"))
    # Near-zero false negatives all around without loss.
    assert max(tag[0], sd[0], td[0]) <= 10
    # TAG degrades much faster than SD; TD tracks the better of the two.
    assert tag[-1] > sd[-1]
    assert td[-1] <= tag[-1]


def _latency(result):
    table = result.table
    # Table 1: identical 'minimal' latency for Count across all approaches.
    assert (
        table["tree (count)"]
        == table["multi-path (count)"]
        == table["tributary-delta (count)"]
    )
    # Footnote 6 at both granularities.
    assert result.overhead > 1.0
    assert table["tree (freq items, 2 retx)"] > table["multi-path (freq items)"]


def _lifetime(result):
    tag, sd, td = (result.reports[name] for name in ("TAG", "SD", "TD"))
    # Small tree payloads outlive sketch payloads, first and last death.
    assert tag.first_death_epochs > sd.first_death_epochs
    # TD's median mote lives like a tree node (tributaries dominate) ...
    assert td.epochs_to_fraction_dead(0.5) > sd.epochs_to_fraction_dead(0.5)
    # ... while its delta boundary is the hottest spot in any scheme.
    assert td.first_death_epochs <= sd.first_death_epochs


def _sweep_threshold(result):
    fractions = result.series["delta_fraction"]
    assert fractions == sorted(fractions)  # higher target, bigger delta
    # A bigger delta must not hurt accuracy under this loss.
    rms = result.series["rms_error"]
    assert rms[-1] <= rms[0] + 0.05


def _sweep_interval(result):
    control = result.series["control_messages"]
    assert control[0] >= control[-1]  # rarer adaptation, less control traffic


def _sweep_heuristic(result):
    # The paper's max/2 heuristic (index 1) expands at least as fast as the
    # top-1 base design (index 0) within the same budget.
    switched = result.series["switched_nodes"]
    assert switched[1] >= switched[0]


CLAIMS = {
    "fig2": _fig2,
    "fig4": _fig4,
    "fig5a": _fig5a,
    "fig5b": _fig5b,
    "fig6": _fig6,
    "fig7a": _fig7a,
    "fig7b": _our_tree_dominates,
    "fig8": _fig8,
    "fig9a": _fig9a,
    "labdata": _labdata,
    "latency": _latency,
    "lifetime": _lifetime,
    "sweep-heuristic": _sweep_heuristic,
    "sweep-interval": _sweep_interval,
    "sweep-threshold": _sweep_threshold,
    "table1": _table1,
    "table2": _table2,
}


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_paper_claim(quick_figure, name):
    CLAIMS[name](quick_figure(name))


def test_figure9b_multipath_still_wins_at_the_top_rate():
    # Retransmission rescues the tree at moderate loss, but multi-path
    # still wins at the top of the sweep (paper: "at loss rates greater
    # than 0.5, the multi-path algorithm still outperforms"). The claim
    # reads that one point, and each rate of Figure 9 is an independent
    # run, so only the top rate runs here (the whole quick grid is 7 s).
    result = run_figure9(
        retransmissions=2, quick=True, loss_rates=FIG9_LOSS_RATES[-1:]
    )
    [tag], [sd] = (result.false_negatives[name] for name in ("TAG", "SD"))
    assert tag >= sd - 5
