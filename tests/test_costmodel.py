import numpy as np
import pytest

from crisscross.costmodel import (
    WorkloadSpec,
    flops_cc2d,
    flops_cc3d,
    flops_nonlocal,
    render_report,
)

PAPER_SPEC = dict(h=97, w=97, c=512, c_reduced=64)


class TestReportedTotals:
    @pytest.mark.parametrize("loops,target", [(1, 8.3), (2, 16.5), (3, 24.7)])
    def test_rcca_gflops(self, loops, target):
        rep = flops_cc2d(WorkloadSpec(loops=loops, **PAPER_SPEC))
        assert abs(rep.gflops - target) / target < 0.03

    def test_nonlocal_gflops(self):
        rep = flops_nonlocal(WorkloadSpec(**PAPER_SPEC))
        assert abs(rep.gflops - 108.0) / 108.0 < 0.03

    def test_flop_reduction_claim(self):
        cc = flops_cc2d(WorkloadSpec(loops=2, **PAPER_SPEC))
        nl = flops_nonlocal(WorkloadSpec(**PAPER_SPEC))
        assert cc.flops_total / nl.flops_total <= 0.16

    def test_attention_buffer_ratio(self):
        cc = flops_cc2d(WorkloadSpec(loops=2, **PAPER_SPEC))
        nl = flops_nonlocal(WorkloadSpec(**PAPER_SPEC))
        ratio = nl.attention_bytes / cc.attention_bytes
        assert ratio >= 11.0
        # closed form: N / (2 (H+W-1)) = 9409/386
        assert ratio == pytest.approx(9409 / 386)


class TestModelStructure:
    def test_degenerate_grid_hand_count(self):
        # H=W=1: 3 projections over one position, one score, trivial softmax,
        # one aggregation term plus the residual add
        c, cr = 3, 1
        rep = flops_cc2d(WorkloadSpec(h=1, w=1, c=c, c_reduced=cr))
        assert rep.flops_breakdown["projections"] == 2 * c * cr * 2 + c * c * 2
        assert rep.flops_breakdown["affinity"] == cr * 2
        assert rep.flops_breakdown["softmax"] == 3
        assert rep.flops_breakdown["aggregation"] == c * 2 + c

    def test_3d_hand_count(self):
        # 2x2x2 volume, C=2, C'=1: N=8, context=4
        rep = flops_cc3d(WorkloadSpec(h=2, w=2, t=2, c=2, c_reduced=1))
        assert rep.flops_breakdown == {
            "projections": 2 * 8 * 2 * 1 * 2 + 8 * 2 * 2 * 2,
            "affinity": 8 * 4 * 1 * 2,
            "softmax": 3 * 8 * 4,
            "aggregation": 8 * 4 * 2 * 2 + 8 * 2,
        }
        assert rep.flops_total == 432

    def test_t1_equals_2d_model(self):
        spec3 = WorkloadSpec(h=9, w=7, t=1, c=16, c_reduced=4, loops=2)
        spec2 = WorkloadSpec(h=9, w=7, c=16, c_reduced=4, loops=2)
        a, b = flops_cc3d(spec3), flops_cc2d(spec2)
        assert a.flops_breakdown == b.flops_breakdown
        assert a.attention_bytes == b.attention_bytes

    def test_2d_model_rejects_a_temporal_extent(self):
        # a 2D spec with t > 1 counted FLOPs over H*W but bytes over T*H*W
        with pytest.raises(ValueError, match="t=3"):
            flops_cc2d(WorkloadSpec(h=4, w=4, t=3, c=4, c_reduced=2))
        rep = flops_cc2d(WorkloadSpec(h=4, w=4, c=4, c_reduced=2))
        assert (rep.flops_total, rep.attention_bytes) == (2768, 448)

    def test_3d_affinity_subquadratic_in_volume(self):
        costs = []
        for t in (2, 4, 8, 16):
            rep = flops_cc3d(WorkloadSpec(h=8, w=8, t=t, c=8, c_reduced=2))
            n = t * 64
            costs.append(rep.flops_breakdown["affinity"] / n**2)
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_monotonic_in_every_extent(self):
        base = WorkloadSpec(h=8, w=9, c=16, c_reduced=4, loops=2)
        f0 = flops_cc2d(base).flops_total
        bumps = [dict(h=9), dict(w=10), dict(c=17), dict(c_reduced=5),
                 dict(loops=3)]
        for bump in bumps:
            kwargs = dict(h=base.h, w=base.w, c=base.c,
                          c_reduced=base.c_reduced, loops=base.loops)
            kwargs.update(bump)
            assert flops_cc2d(WorkloadSpec(**kwargs)).flops_total > f0

    def test_affinity_ratio_grows_linearly(self):
        ratios = []
        for s in (8, 16, 32, 64):
            nl = flops_nonlocal(WorkloadSpec(h=s, w=s, c=8, c_reduced=2))
            cc = flops_cc2d(WorkloadSpec(h=s, w=s, c=8, c_reduced=2))
            ratios.append(nl.flops_breakdown["affinity"] /
                          cc.flops_breakdown["affinity"])
        for prev, cur in zip(ratios, ratios[1:]):
            assert abs(cur / prev - 2.0) < 0.2  # doubles within 10%

    def test_training_memory_mode_doubles_buffer(self):
        inf = flops_cc2d(WorkloadSpec(h=5, w=5, c=4, c_reduced=2))
        tr = flops_cc2d(WorkloadSpec(h=5, w=5, c=4, c_reduced=2,
                                     memory_mode="training"))
        assert tr.attention_bytes == 2 * inf.attention_bytes

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(h=0, w=5)
        with pytest.raises(ValueError):
            WorkloadSpec(h=5, w=5, c=4, c_reduced=4)
        with pytest.raises(ValueError):
            WorkloadSpec(h=5, w=5, bytes_per_scalar=2)


class TestRenderReport:
    def test_empty_is_header_only(self):
        csv = render_report([], "csv")
        assert csv.strip().splitlines() == [
            "method,loops,h,w,t,c,c_reduced,gflops,attn_mb,ratio_vs_nl"]

    def test_two_rows(self):
        reps = [flops_nonlocal(WorkloadSpec(h=4, w=4, c=4, c_reduced=2)),
                flops_cc2d(WorkloadSpec(h=4, w=4, c=4, c_reduced=2))]
        csv = render_report(reps, "csv")
        lines = csv.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("NL,") and lines[2].startswith("RCCA(R=1),")

    def test_markdown_contains_paper_numbers(self):
        reps = [flops_nonlocal(WorkloadSpec(**PAPER_SPEC))]
        reps += [flops_cc2d(WorkloadSpec(loops=r, **PAPER_SPEC))
                 for r in (1, 2, 3)]
        md = render_report(reps, "md")
        for token in ("108.4", "8.26", "16.5", "24.8"):
            assert token in md

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report([], "html")
