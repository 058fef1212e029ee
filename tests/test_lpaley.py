"""Dyadic partition and Besov machinery.

Key structural facts under test: the multipliers sum to exactly 1 on every
grid frequency (reconstruction is then FFT-exact), at most two multipliers
overlap so the squared sum sits in [1/2, 1], and a pure mode lands in the
predictable pair of blocks.  The interpolation inequality with p = r = 2
is log-convexity with constant exactly one, so it gets a hard bound.
"""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gchlab import experiments, fields, lpaley
from gchlab.config import AUDIT_IDS, parse_config
from gchlab.errors import ConfigError, EstimationError
from gchlab.fields import (
    Grid1D,
    RealField,
    SeededNormals,
    lp_norm,
    random_band_limited,
    random_band_limited_values,
    refine_values,
    sobolev_norm,
    spectrum,
    synthesize,
)
from gchlab.lpaley import (
    besov_norm,
    build_partition,
    chi_base,
    dyadic_block,
    inequality_audit,
    low_cutoff,
    partition_for,
    reconstruct,
    smooth_step,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestMollifier:
    def test_step_pins_endpoints(self):
        # exactly 0 for t <= -1 and 1 for t >= 1, out to the infinities
        t = np.array([-np.inf, -1e300, -3.0, -1.0, 1.0, 3.0, 1e300, np.inf])
        assert np.array_equal(smooth_step(t), [0.0] * 4 + [1.0] * 4)
        assert np.array_equal(smooth_step(np.nextafter([-1.0, 1.0], [-2.0, 2.0])), [0.0, 1.0])

    def test_step_monotone(self):
        assert np.all(np.diff(smooth_step(np.linspace(-1.1, 1.1, 200001))) >= 0.0)

    def test_step_is_exactly_one_half_at_zero(self):
        assert smooth_step(0.0)[0] == 0.5

    def test_step_is_odd_about_one_half(self):
        t = np.linspace(-1.5, 1.5, 30001)
        assert np.max(np.abs(smooth_step(t) + smooth_step(-t) - 1.0)) <= 1e-15

    def test_chi_plateau_and_support(self):
        xi = np.array([0.0, 0.5, 0.75, 4.0 / 3.0, 2.0, 10.0])
        c = chi_base(xi)
        assert np.array_equal(c[:3], [1.0, 1.0, 1.0])
        assert np.array_equal(c[3:], [0.0, 0.0, 0.0])
        mid = chi_base(np.array([1.0]))[0]
        assert 0.0 < mid < 1.0

    def test_chi_is_exact_beside_its_plateau_and_support_ends(self):
        ends = np.array([0.75, 4.0 / 3.0])
        c = chi_base(np.concatenate([np.nextafter(ends, 0.0), ends, np.nextafter(ends, 2.0)]))
        assert np.array_equal(c[[0, 2]], [1.0, 1.0])
        assert np.array_equal(c[[3, 5]], [0.0, 0.0])
        xi = np.random.default_rng(3).uniform(0.0, 3.0, 200000)
        c = chi_base(xi)
        assert np.all(c[xi <= 0.75] == 1.0) and np.all(c[xi >= 4.0 / 3.0] == 0.0)

    def test_import_leaves_no_spinning_worker(self):
        # numpy's own start-up spin is over after the first sleep; an
        # eigen-solve at import would wake the BLAS worker, which then
        # spins through the measured sleep
        code = (
            "import resource, time\n"
            "import numpy\n"
            "time.sleep(0.5)\n"
            "import gchlab.lpaley\n"
            "r0 = resource.getrusage(resource.RUSAGE_SELF)\n"
            "time.sleep(0.3)\n"
            "r1 = resource.getrusage(resource.RUSAGE_SELF)\n"
            "print(r1.ru_utime - r0.ru_utime + r1.ru_stime - r0.ru_stime)\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        assert float(proc.stdout) < 0.03


class TestPartition:
    def test_sums_to_one_exactly(self):
        for L, n in ((40.0, 256), (math.pi, 512), (15.0, 1024)):
            part = build_partition(Grid1D(L, n))
            total = part.multipliers.sum(axis=0)
            assert np.max(np.abs(total - 1.0)) < 1e-14

    def test_squared_sum_bounds(self):
        part = build_partition(Grid1D(40.0, 512))
        sq = (part.multipliers**2).sum(axis=0)
        assert np.all(sq <= 1.0 + 1e-14)
        assert np.all(sq >= 0.5 - 1e-14)

    def test_annulus_supports_disjoint_beyond_neighbors(self):
        part = build_partition(Grid1D(40.0, 512))
        rows = part.multipliers
        for a in range(rows.shape[0]):
            for b in range(a + 2, rows.shape[0]):
                assert np.max(np.abs(rows[a] * rows[b])) == 0.0

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(ConfigError):
            build_partition(Grid1D(400.0, 16))

    def test_cache_returns_same_object(self):
        g = Grid1D(40.0, 256)
        assert partition_for(g) is partition_for(Grid1D(40.0, 256))


class TestBlocks:
    def test_pure_mode_lands_in_expected_blocks(self):
        g = Grid1D(math.pi, 256)
        part = build_partition(g)
        f = RealField(g, np.cos(2.0 * g.x))
        hits = []
        for j in part.blocks:
            blk = dyadic_block(f, j)
            if np.max(np.abs(blk.values)) > 1e-13:
                hits.append(j)
        assert hits == [0, 1]

    def test_reconstruction_exact(self):
        g = Grid1D(40.0, 512)
        part = build_partition(g)
        rng = np.random.default_rng(13)
        for _ in range(5):
            f = RealField(g, rng.standard_normal(g.n))
            back = reconstruct([dyadic_block(f, j) for j in part.blocks])
            assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_far_blocks_orthogonal(self):
        g = Grid1D(40.0, 512)
        part = build_partition(g)
        f = RealField(g, np.random.default_rng(19).standard_normal(g.n))
        b0 = dyadic_block(f, 0)
        b3 = dyadic_block(f, 3)
        # multiplier supports are literally disjoint, so the masked spectra
        # cannot share a bin
        ch = spectrum(f.values)
        assert np.max(np.abs(part.mult(0) * ch * part.mult(3) * ch)) == 0.0
        # physical inner product is zero up to fft roundoff
        scale = sobolev_norm(b0, 0.0) * sobolev_norm(b3, 0.0)
        assert abs(np.sum(b0.values * b3.values) * g.dx) < 1e-12 * max(scale, 1e-30)

    def test_out_of_range_block_is_zero(self):
        g = Grid1D(40.0, 256)
        part = build_partition(g)
        f = RealField(g, np.ones(g.n))
        assert np.max(np.abs(dyadic_block(f, part.j_max + 5).values)) == 0.0

    def test_low_cutoff_telescopes(self):
        g = Grid1D(40.0, 512)
        part = build_partition(g)
        rng = np.random.default_rng(23)
        f = RealField(g, rng.standard_normal(g.n))
        s0 = low_cutoff(f, 0)
        d_low = dyadic_block(f, -1)
        assert np.max(np.abs(s0.values - d_low.values)) < 1e-14
        full = low_cutoff(f, part.j_max + 1)
        assert np.max(np.abs(full.values - f.values)) < 1e-12
        with pytest.raises(ConfigError):
            low_cutoff(f, -1)

    def test_cutoff_converges_on_band_limited_field(self):
        g = Grid1D(40.0, 512)
        part = build_partition(g)
        f = random_band_limited(g, np.random.default_rng(29))
        gaps = []
        for j in range(0, part.j_max + 2):
            d = low_cutoff(f, j)
            gaps.append(np.max(np.abs(d.values - f.values)))
        assert all(b <= a + 1e-13 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-12


class TestBesovNorm:
    def test_matches_sobolev_on_sobolev_diagonal(self):
        # B^s_{2,2} is equivalent to H^s: the ratio depends on s through
        # the block weights but must stay in a fixed band as N grows
        rng = np.random.default_rng(31)
        ratios = []
        for n in (256, 512, 1024):
            g = Grid1D(40.0, n)
            f = random_band_limited(g, rng)
            ratios.append(besov_norm(f, 1.5, 2.0, 2.0) / sobolev_norm(f, 1.5))
        assert all(0.2 < r < 5.0 for r in ratios)
        assert max(ratios) / min(ratios) < 1.2

    def test_single_mode_ratio_bounds(self):
        g = Grid1D(math.pi, 512)
        for m in (1, 2, 5, 16, 40, 100):
            f = RealField(g, np.cos(m * g.x))
            ratio = besov_norm(f, 0.0, 2.0, 2.0) / lp_norm(f, 2.0)
            assert 2.0 ** -0.5 - 1e-12 <= ratio <= 1.0 + 1e-12

    def test_r_infinity_is_max(self):
        g = Grid1D(40.0, 256)
        part = build_partition(g)
        f = random_band_limited(g, np.random.default_rng(37))
        vals = []
        for j in part.blocks:
            blk = dyadic_block(f, j)
            vals.append(2.0 ** (j * 1.0) * sobolev_norm(blk, 0.0))
        assert besov_norm(f, 1.0, 2.0, math.inf) == pytest.approx(
            max(vals), rel=1e-12
        )

    def test_rejects_bad_indices(self):
        g = Grid1D(40.0, 256)
        f = RealField(g, np.zeros(g.n))
        with pytest.raises(ConfigError):
            besov_norm(f, 1.0, 0.5, 2.0)
        with pytest.raises(ConfigError):
            besov_norm(f, 1.0, 2.0, 0.0)


class TestGridPartition:
    """besov_norm, dyadic_block and low_cutoff take no partition: each reads
    partition_for(f.grid), which must be the partition of f's grid."""

    def test_functions_match_a_freshly_built_partition(self, monkeypatch):
        monkeypatch.setattr(lpaley, "_partition_cache", {})  # (L, n) not yet cached
        rng = np.random.default_rng(41)
        g = Grid1D(13.0, 128)
        fresh = build_partition(Grid1D(13.0, 128))
        values = random_band_limited(g, rng).values
        ch = spectrum(values)
        for grid in (g, Grid1D(13.0, 128)):
            f = RealField(grid, values)
            for p in (2.0, 1.5, math.inf):
                ref = lpaley._besov_sum(lpaley._block_norms(grid, ch, p, fresh), 0.7, 2.0)
                assert besov_norm(f, 0.7, p, 2.0) == float(ref)
            for j in fresh.blocks:
                ref = synthesize(ch * fresh.mult(j))
                assert np.array_equal(dyadic_block(f, j).values, ref)
            for j in range(fresh.j_max + 2):
                ref = synthesize(ch * fresh.multipliers[: j + 1].sum(axis=0))
                assert np.array_equal(low_cutoff(f, j).values, ref)
        assert list(lpaley._partition_cache) == [(13.0, 128)]

    @pytest.mark.parametrize("n", [64, 512, 1024])
    def test_a_row_keeps_its_block_norms_bits_in_any_stack(self, monkeypatch, n):
        # each row of a stacked p = 2 call has the bits of its one-row call,
        # whatever the row count, the row's place and the heap offset of the
        # Parseval power (placed 0-7 doubles into a larger buffer)
        g = Grid1D(20.0, n)
        part = build_partition(g)
        assert part.squares.tobytes() == (part.multipliers**2).tobytes()
        stack = spectrum(random_band_limited_values(g, SeededNormals(n), 101))
        rows = [lpaley._block_norms(g, ch, 2.0, part) for ch in stack]
        power = fields.coefficient_power
        for offset in range(8):

            def shifted(grid, ch, offset=offset):
                p = power(grid, ch)
                buf = np.empty(p.size + offset)[offset:].reshape(p.shape)
                buf[...] = p
                return buf

            monkeypatch.setattr(lpaley, "coefficient_power", shifted)
            for count in (1, 7, 26, 101):
                got = lpaley._block_norms(g, stack[:count], 2.0, part)
                for i in range(count):
                    assert got[i].tobytes() == rows[i].tobytes(), (offset, count, i)


@pytest.fixture(scope="module")
def corpus():
    g = Grid1D(40.0, 256)
    rng = np.random.default_rng(101)
    return [random_band_limited(g, rng) for _ in range(24)]


class TestAudits:
    def test_all_audits_pass(self, corpus):
        for aid in AUDIT_IDS:
            rep = inequality_audit(corpus, [aid])[0]
            assert rep.passed, f"{aid}: {rep}"
            assert np.isfinite(rep.fitted_constant)
            assert 1.0 / 1.15 <= rep.refinement_ratio <= 1.15

    def test_interpolation_hard_bound(self, corpus):
        rep = inequality_audit(corpus, ["interpolation"])[0]
        assert np.all(np.asarray(rep.ratios) <= 1.0 + 1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            inequality_audit([], ["algebra"])

    def test_unknown_audit_rejected(self, corpus):
        with pytest.raises(ConfigError):
            inequality_audit(corpus, ["no_such_audit"])

    def test_mixed_grids_rejected(self, corpus):
        odd = random_band_limited(Grid1D(40.0, 512), np.random.default_rng(1))
        with pytest.raises(ConfigError):
            inequality_audit(corpus + [odd], ["algebra"])

    def test_report_serializes(self, corpus):
        rep = inequality_audit(corpus, ["embedding"])[0]
        js = dataclasses.asdict(rep)
        assert js["audit_id"] == "embedding"
        assert isinstance(js["fitted_constant"], float)


def _lam(f, s):
    return RealField(f.grid, synthesize(spectrum(f.values) * (1.0 + f.grid.k**2) ** (s / 2.0)))


def per_field_ratios(corpus, which, params):
    """The audit ratios one field at a time, from the one-field functions:
    the reference the stacked audit must reproduce."""
    s = params["s"]
    out = []
    for i, f in enumerate(corpus):
        g = corpus[(i + 1) % len(corpus)]
        if which == "embedding":
            p1, r1, p2, r2 = params["p1"], params["r1"], params["p2"], params["r2"]
            lhs = besov_norm(f, s - (1.0 / p1 - 1.0 / p2), p2, r2)
            rhs = besov_norm(f, s, p1, r1)
        elif which == "interpolation":
            th, s1, s2 = params["theta"], params["s1"], params["s2"]
            lhs = besov_norm(f, th * s1 + (1.0 - th) * s2)
            # numpy's power, as the audit takes it, not Python's: the two can
            # differ in the last bit
            b1, b2 = np.array([besov_norm(f, s1)]), np.array([besov_norm(f, s2)])
            rhs = (b1**th * b2 ** (1.0 - th))[0]
        elif which == "algebra":
            lhs = besov_norm(RealField(f.grid, f.values**2), s)
            rhs = 2.0 * lp_norm(f, math.inf) * besov_norm(f, s)
        elif which == "morse":
            lhs = besov_norm(RealField(f.grid, f.values * g.values), s - 1.0)
            rhs = besov_norm(f, s - 1.0) * besov_norm(g, s)
        else:
            prod = RealField(f.grid, f.values * g.values)
            comm = RealField(f.grid, _lam(prod, s).values - f.values * _lam(g, s).values)
            lhs = lp_norm(comm, 2.0)
            fx = RealField(f.grid, synthesize(spectrum(f.values) * f.grid.ik))
            rhs = lp_norm(_lam(f, s), 2.0) * lp_norm(g, math.inf)
            rhs += lp_norm(fx, math.inf) * lp_norm(_lam(g, s - 1.0), 2.0)
        out.append(lhs / rhs)
    return np.array(out)


class TestStackedAudit:
    """inequality_audit runs on the corpus as one stack of fields."""

    @pytest.mark.parametrize("aid", AUDIT_IDS)
    def test_matches_per_field_reference(self, corpus, aid):
        rep = inequality_audit(corpus, [aid])[0]
        # the embedding's target exponents p2 = r2 = inf are stored as None
        params = {k: math.inf if v is None else v for k, v in rep.params.items()}
        base = per_field_ratios(corpus, aid, params)
        g2 = Grid1D(corpus[0].grid.L, 2 * corpus[0].grid.n)
        fine = per_field_ratios(
            [RealField(g2, refine_values(f.values)) for f in corpus], aid, params
        )
        # bitwise: the reference takes the same numpy operations one row at a
        # time, and a row's block norms do not depend on the stack
        assert rep.ratios == base.tolist()
        assert rep.refinement_ratio == max(fine) / max(base)

    def test_one_call_matches_one_audit_per_call(self, corpus):
        # the shared per-grid stacks must not carry one audit into another,
        # in any order, and a repeated id gets the same report again
        ids = ("kato_ponce", "morse", "embedding", "kato_ponce", "algebra", "interpolation")
        together = inequality_audit(corpus, ids)
        assert [r.audit_id for r in together] == list(ids)
        for rep in together:
            alone = inequality_audit(corpus, [rep.audit_id])[0]
            assert dataclasses.asdict(rep) == dataclasses.asdict(alone)

    @pytest.mark.parametrize("aid", AUDIT_IDS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_fails(self, aid, bad):
        g = Grid1D(40.0, 256)
        rng = np.random.default_rng(7)
        corpus = [random_band_limited(g, rng) for _ in range(6)]
        corpus[3].values[100] = bad
        with np.errstate(invalid="ignore"):
            rep = inequality_audit(corpus, [aid])[0]
        assert not math.isfinite(rep.fitted_constant)
        assert not rep.passed

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"spectrum": 0, "synthesize": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in counts:
            fn = getattr(fields, name)
            for mod in (fields, lpaley):
                monkeypatch.setattr(mod, name, counted(name, fn))
        return counts

    @pytest.mark.parametrize("aid", AUDIT_IDS)
    def test_transform_count_does_not_grow_with_corpus(self, calls, aid):
        g = Grid1D(40.0, 256)
        rng = np.random.default_rng(41)
        corpora = [[random_band_limited(g, rng) for _ in range(c)] for c in (4, 40, 200)]
        seen = []
        for corpus in corpora:
            calls.update(spectrum=0, synthesize=0)
            inequality_audit(corpus, [aid])
            seen.append(dict(calls))
        # 4 and 40 fields fit one block; 200 fields of 256 nodes take four
        assert seen[0] == seen[1]
        assert seen[0]["spectrum"] > 0
        blocks = -(-200 * g.n // lpaley.BLOCK_NODES)
        assert blocks == 4
        assert seen[2] == {name: blocks * n for name, n in seen[0].items()}


def seeded_corpus(grid, seed, count):
    values = random_band_limited_values(grid, SeededNormals(seed), count)
    return [RealField(grid, v) for v in values]


class TestAuditBlocks:
    """The corpus is audited in balanced blocks of consecutive fields, each
    stacked with the next field as its neighbour row."""

    @pytest.mark.parametrize("count", [1, 2, 25, 26, 101])
    @pytest.mark.parametrize(
        "ids",
        [
            ("kato_ponce", "morse", "embedding", "kato_ponce", "algebra", "interpolation"),
            ("morse", "interpolation"),
        ],
    )
    def test_block_size_does_not_change_the_audit(self, monkeypatch, count, ids):
        g = Grid1D(20.0, 512)
        corpus = seeded_corpus(g, 9, count)
        reports = {}
        # one field per block, the whole corpus in one block, the default
        for nodes in (g.n, count * g.n, lpaley.BLOCK_NODES):
            monkeypatch.setattr(lpaley, "BLOCK_NODES", nodes)
            reports[nodes] = inequality_audit(corpus, ids)
        ref = reports.pop(nodes)
        assert [r.audit_id for r in ref] == list(ids)
        for got in reports.values():
            for a, b in zip(got, ref):
                assert dataclasses.asdict(a) == dataclasses.asdict(b)

    @pytest.mark.parametrize("aid", AUDIT_IDS)
    @pytest.mark.parametrize("zero", [0, 2])
    def test_zero_field_at_a_block_edge_is_degenerate(self, monkeypatch, aid, zero):
        # three blocks of two fields: field 0 opens the first block and is
        # the last block's neighbour row, field 2 opens the second block and
        # is the first block's neighbour row
        g = Grid1D(40.0, 256)
        monkeypatch.setattr(lpaley, "BLOCK_NODES", 2 * g.n)
        corpus = seeded_corpus(g, 5, 6)
        corpus[zero] = RealField(g, np.zeros(g.n))
        with pytest.raises(EstimationError, match="degenerate sample"):
            inequality_audit(corpus, [aid])


class TestAuditRun:
    """besov-audit at its defaults: one refinement per block, and one
    spectrum of each block per grid shared by the five audits."""

    @pytest.fixture
    def defaults(self):
        cfg = parse_config("", "besov-audit")
        return cfg, Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])

    def test_refines_each_block_once_and_takes_its_spectrum_once_per_grid(
        self, monkeypatch, defaults
    ):
        cfg, grid = defaults
        refined, spectra = [], []
        refine_values, spectrum_ = fields.refine_values, fields.spectrum

        def counted_refine(values):
            refined.append(values.copy())
            return refine_values(values)

        def counted_spectrum(values):
            spectra.append(values.copy())
            return spectrum_(values)

        monkeypatch.setattr(lpaley, "refine_values", counted_refine)
        monkeypatch.setattr(lpaley, "spectrum", counted_spectrum)
        assert experiments.run_besov_audit(cfg, grid).passed
        count = cfg["corpus"]["count"]
        # one refinement per block; the blocks differ by at most one field,
        # and each carries the next block's first field as its neighbour row
        assert len(refined) == -(-count * grid.n // lpaley.BLOCK_NODES) == 4
        sizes = [len(block) - 1 for block in refined]
        assert sum(sizes) == count and max(sizes) - min(sizes) <= 1
        for block, after in zip(refined, refined[1:] + refined[:1]):
            assert np.array_equal(block[-1], after[0])
        for block in refined:
            for stack in (block, refine_values(block)):
                assert sum(np.array_equal(v, stack) for v in spectra) == 1

    def traced_peak(self, cfg, grid):
        # a warm-up run first, so the partitions and numpy's lazy imports are
        # not counted
        experiments.run_besov_audit(cfg, grid)
        tracemalloc.start()
        try:
            experiments.run_besov_audit(cfg, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_peak_is_bounded(self, defaults):
        # 4,970,660 B when each audit took its own spectra of the corpus,
        # 4.71 MB with the whole corpus as one stack, 1.68 MB in blocks
        assert self.traced_peak(*defaults) <= 1_850_000

    def test_memory_peak_grows_with_the_corpus_values_alone(self):
        # past the corpus itself (8n B a field) each field may add 2 kB: the
        # draw's half spectrum, its ratios and its report rows; the audit's
        # blocks do not grow with the count
        peaks = []
        for count in (100, 400):
            cfg = parse_config(f"[corpus]\ncount = {count}\n", "besov-audit")
            grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["n"])
            peaks.append(self.traced_peak(cfg, grid))
        assert peaks[1] - peaks[0] <= 300 * (8 * grid.n + 2048)

    def test_series_does_not_depend_on_heap_layout(self, defaults):
        # the blocks are small enough to live on the heap, at any alignment;
        # odd allocations held between runs move where the next run's land
        cfg, grid = defaults
        first = experiments.run_besov_audit(cfg, grid).files["series.csv"]
        held = []
        for i in range(8):
            held.append(np.ones(3 + 37 * i))
            held.append(np.ones(3 + 1543 * i))
            assert experiments.run_besov_audit(cfg, grid).files["series.csv"] == first
